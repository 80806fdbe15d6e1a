"""What a traced run spans, and the per-layer metrics derived from it.

:func:`program_spans` lists the program functions a traced run wraps
while the program runs on its own (``run_muxlink``, the runner, the
server thread, child processes), so its time is attributed to layers.
Span-derived metrics are the median duration of one call of that span
(``*_ms`` / ``*_s``); every workload's traced run calls each of them.
Counter-derived metrics are totals over the traced run unless the name
says ``mean``, ``ratio``, ``rate`` or ``per_s``.  Every metric here is
measured on every workload: a layer only some workloads call (the
runner, the server, the CLI's parser) is reported in those workloads'
notes instead.
"""

from __future__ import annotations

import numpy as np

from harness import Tracer


def program_spans(runner: bool = False) -> list[tuple[object, str, str]]:
    """``(owner, attribute, span name)`` of the program's stages, as
    :meth:`harness.Tracer.wrapped` takes them.  With *runner*, also the
    experiment runner's locking, digests and codec calls."""
    import repro.core.muxlink as muxlink
    import repro.store as store
    import repro.store.codec as codec
    from repro.linkpred.trainer import Trainer

    targets = [
        (muxlink, "extract_attack_graph", "linkpred.graph"),
        (muxlink, "sample_links", "linkpred.sample"),
        (muxlink, "build_link_dataset", "linkpred.dataset"),
        (muxlink, "make_trainer", "linkpred.trainer_init"),
        (Trainer, "fit", "linkpred.fit"),
        (muxlink, "score_stream", "linkpred.score"),
        (muxlink, "postprocess_likelihoods", "core.postprocess"),
        (store, "circuit_digest", "store.key"),
        (store, "encode_attack_artifact", "store.encode"),
        (store, "decode_attack_artifact", "store.decode"),
        (codec, "dump", "store.put"),
        (codec, "load", "store.get"),
    ]
    if runner:
        import repro.experiments.runner as runner_mod

        targets += [
            (runner_mod, "load_benchmark", "benchgen.load"),
            (runner_mod, "lock_with", "locking.lock"),
            (runner_mod, "circuit_digest", "store.key"),
            (runner_mod, "encode_attack_artifact", "store.encode"),
            (runner_mod, "encode_lock_artifact", "store.encode"),
            (runner_mod, "decode_attack_artifact", "store.decode"),
            (runner_mod, "decode_lock_artifact", "store.decode"),
            (runner_mod, "decode_circuit", "store.decode"),
            (runner_mod, "score_key", "core.score"),
        ]
    return targets


#: metric name -> (span name, scale to the metric's unit)
SPAN_METRICS = {
    "locking.lock_ms": ("locking.lock", 1e3),
    "linkpred.graph_ms": ("linkpred.graph", 1e3),
    "linkpred.sample_ms": ("linkpred.sample", 1e3),
    "linkpred.dataset_s": ("linkpred.dataset", 1.0),
    "linkpred.trainer_init_s": ("linkpred.trainer_init", 1.0),
    "linkpred.epoch_ms": ("linkpred.epoch", 1e3),
    "linkpred.score_ms": ("linkpred.score", 1e3),
    "gnn.assemble_ms": ("gnn.assemble", 1e3),
    "nn.forward_ms": ("nn.forward", 1e3),
    "nn.backward_ms": ("nn.backward", 1e3),
    "nn.optim_step_ms": ("nn.optim_step", 1e3),
    "core.postprocess_ms": ("core.postprocess", 1e3),
    "store.encode_ms": ("store.encode", 1e3),
    "store.put_ms": ("store.put", 1e3),
    "store.get_ms": ("store.get", 1e3),
    "store.decode_ms": ("store.decode", 1e3),
}


def span_metrics(tracer: Tracer) -> dict[str, float]:
    return {
        metric: tracer.median(span) * scale
        for metric, (span, scale) in SPAN_METRICS.items()
        if tracer.durations(span)
    }


def count_attack(tracer: Tracer, staged) -> None:
    """Counters of one staged attack (see :mod:`stages`)."""
    dataset = staged.dataset
    sizes = dataset.subgraph_sizes or [e.n_nodes for e in dataset.train]
    batch_size = staged.trainer.config.batch_size
    tracer.count("linkpred.links", len(dataset.train) + len(dataset.validation))
    tracer.count("linkpred.targets", staged.n_targets)
    tracer.count("linkpred.subgraph_nodes_sum", float(np.sum(sizes)))
    tracer.count("linkpred.subgraphs", len(sizes))
    tracer.count(
        "linkpred.examples_trained",
        staged.epoch_examples * staged.result.history.epochs_run,
    )
    tracer.count("gnn.batches", -(-staged.epoch_examples // batch_size))
    tracer.count("gnn.attacks", 1)
    key = staged.result.predicted_key
    tracer.count("core.bits", len(key))
    tracer.count("core.decided_bits", sum(1 for b in key if b in "01"))


def count_metrics(tracer: Tracer) -> dict[str, float]:
    """Metrics of the counters :func:`count_attack` and :mod:`stages`
    recorded; none when the traced run made no staged attack."""
    c = tracer.counts
    metrics: dict[str, float] = {}
    if c.get("gnn.attacks"):
        epoch_s = tracer.total("linkpred.epoch")
        metrics.update(
            {
                "linkpred.links": c["linkpred.links"],
                "linkpred.targets": c["linkpred.targets"],
                "linkpred.subgraph_nodes_mean": c["linkpred.subgraph_nodes_sum"]
                / c["linkpred.subgraphs"],
                "linkpred.train_examples_per_s": c["linkpred.examples_trained"]
                / epoch_s,
                "gnn.batches_per_epoch": c["gnn.batches"] / c["gnn.attacks"],
                "core.decision_rate": c["core.decided_bits"] / c["core.bits"],
            }
        )
    if c.get("store.artifacts"):
        metrics["store.artifact_kb"] = (
            c["store.artifact_bytes"] / c["store.artifacts"] / 1024.0
        )
    return metrics


def store_counters(*stats) -> dict[str, float]:
    """Sum :class:`repro.store.StoreStats` of every store a run used."""
    return {
        "store.bytes_written": sum(s.bytes_written for s in stats),
        "store.bytes_read": sum(s.bytes_read for s in stats),
        "store.hits": sum(s.hits for s in stats),
    }


def store_note(*stats) -> str:
    """The store counters no per-layer metric carries."""
    return (
        f"store: misses {sum(s.misses for s in stats)}, "
        f"writes {sum(s.writes for s in stats)}"
    )
