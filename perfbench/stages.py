"""``run_muxlink``'s stages, called one by one under spans.

:func:`staged_attack` makes the same public calls, in the same order and
with the same arguments, as :func:`repro.core.muxlink.run_muxlink` — so
its key and likelihoods must equal an untraced ``run_muxlink`` bit for
bit (the benchmark checks this).  Training advances one epoch per
``Trainer.fit(until_epoch=...)`` call, which the trainer guarantees is
the same trajectory as one ``fit()``.

:func:`replica_epoch` runs one more epoch over a trained trainer's
batch assembler, timing ``BatchAssembler.assemble`` → ``DGCNN.loss`` →
``backward`` → ``Adam.step`` separately: the per-op split of an epoch.
It moves the model's weights, so it runs after everything that reads
them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.muxlink import MuxLinkConfig, MuxLinkResult
from repro.core.postprocess import (
    ScoredMux,
    decisions_to_key,
    postprocess_likelihoods,
)
from repro.linkpred import (
    build_link_dataset,
    extract_attack_graph,
    iter_target_examples,
    make_trainer,
    sample_links,
    score_stream,
)
import repro.store.codec as codec
from repro.store import (
    attack_store_key,
    circuit_digest,
    decode_attack_artifact,
    encode_attack_artifact,
)


@dataclass
class StagedAttack:
    result: MuxLinkResult
    dataset: object
    trainer: object
    n_targets: int
    epoch_examples: int  # training examples per epoch


def staged_attack(circuit, config: MuxLinkConfig, tracer) -> StagedAttack:
    """Attack *circuit* stage by stage; see the module docstring."""
    if config.score_prefetch <= 0 or config.n_workers > 1:
        raise ValueError("staged_attack mirrors the streamed scoring path")
    with tracer.span("linkpred.graph"):
        graph = extract_attack_graph(circuit)
    with tracer.span("linkpred.sample"):
        sample = sample_links(
            graph,
            max_links=config.max_train_links,
            val_fraction=config.val_fraction,
            seed=config.seed,
        )
    with tracer.span("linkpred.dataset"):
        dataset = build_link_dataset(
            graph,
            sample,
            h=config.h,
            use_drnl=config.use_drnl,
            use_gate_types=config.use_gate_types,
            use_degree=config.use_degree,
            n_workers=config.n_workers,
        )
    with tracer.span("linkpred.trainer_init"):
        trainer = make_trainer(dataset, config.train)
    for epoch in range(config.train.epochs):
        with tracer.span("linkpred.epoch"):
            model, history = trainer.fit(until_epoch=epoch + 1)
        if history.stopped_early:
            break

    target_examples: list = []

    def chunks():
        for group in iter_target_examples(
            graph, dataset, chunk_size=config.train.batch_size
        ):
            target_examples.extend(group)
            yield [t.example for t in group]

    with tracer.span("linkpred.score"):
        likelihoods = score_stream(
            model, chunks(), config.train.batch_size,
            prefetch=config.score_prefetch,
        )

    with tracer.span("core.regroup"):
        by_mux: dict[tuple[str, int], dict[int, float]] = {}
        meta: dict[tuple[str, int], object] = {}
        for example, likelihood in zip(target_examples, likelihoods):
            key = (example.target.mux_name, example.target.load)
            by_mux.setdefault(key, {})[example.select_value] = float(likelihood)
            meta[key] = example.target
        scored = [
            ScoredMux(
                mux_name=meta[key].mux_name,
                key_index=meta[key].key_index,
                load=meta[key].load,
                drivers=(meta[key].cand_d0, meta[key].cand_d1),
                likelihoods=(scores[0], scores[1]),
            )
            for key, scores in by_mux.items()
        ]
        n_bits = max(t.key_index for t in graph.targets) + 1
    with tracer.span("core.postprocess"):
        decisions = postprocess_likelihoods(scored, config.threshold)
        predicted = decisions_to_key(decisions, n_bits)

    result = MuxLinkResult(
        predicted_key=predicted,
        scored=scored,
        n_key_bits=n_bits,
        history=history,
        runtime_seconds={},
        graph=graph,
        model=model,
    )
    return StagedAttack(
        result=result,
        dataset=dataset,
        trainer=trainer,
        n_targets=len(target_examples),
        epoch_examples=len(dataset.train),
    )


def store_roundtrip(circuit, config, result, store, tracer) -> MuxLinkResult:
    """Encode, put, get and decode *result* at ``run_muxlink``'s address.

    ``store.put``/``store.get`` span the codec's file write and read,
    as they do inside the program (:func:`layers.program_spans`)."""
    with tracer.span("store.key"):
        digest = circuit_digest(circuit)
    key = attack_store_key(digest, config)
    with tracer.span("store.encode"):
        payload = encode_attack_artifact(result)
    with tracer.wrapped([(codec, "dump", "store.put"), (codec, "load", "store.get")]):
        path = store.put("attacks", key, payload)
        loaded = store.get("attacks", key)
    tracer.count("store.artifact_bytes", path.stat().st_size)
    tracer.count("store.artifacts")
    with tracer.span("store.decode"):
        return decode_attack_artifact(loaded)


def replica_epoch(trainer, tracer, seed: int = 0) -> int:
    """One timed epoch split by op; returns the number of batches."""
    model = trainer.model
    optimizer = trainer.optimizer
    assembler = trainer.train_assembler
    batch_size = trainer.config.batch_size
    order = np.random.default_rng(seed).permutation(len(assembler))
    model.train()
    batches = 0
    for start in range(0, len(order), batch_size):
        with tracer.span("gnn.assemble"):
            batch = assembler.assemble(
                order[start : start + batch_size], reuse_buffers=True
            )
        optimizer.zero_grad()
        with tracer.span("nn.forward"):
            loss = model.loss(batch)
        with tracer.span("nn.backward"):
            loss.backward()
        with tracer.span("nn.optim_step"):
            optimizer.step()
        batches += 1
    model.eval()
    return batches


def result_fingerprint(result: MuxLinkResult) -> str:
    """Digest of everything an attack computed (timings excluded):
    key, per-MUX likelihoods, loss history and trained weights."""
    digest = hashlib.sha256()
    digest.update(result.predicted_key.encode())
    for mux in sorted(
        result.scored, key=lambda s: (s.mux_name, s.load, s.key_index)
    ):
        digest.update(
            repr((mux.mux_name, mux.key_index, mux.load, mux.drivers,
                  mux.likelihoods)).encode()
        )
    history = result.history
    digest.update(repr((history.train_loss, history.val_loss)).encode())
    if result.model is not None:
        for array in result.model.state_dict():
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def likelihood_table(result: MuxLinkResult) -> tuple:
    """Key and per-MUX likelihoods, the attack-large parity payload."""
    return (
        result.predicted_key,
        tuple(
            sorted(
                (s.mux_name, s.key_index, s.load, s.likelihoods)
                for s in result.scored
            )
        ),
    )
