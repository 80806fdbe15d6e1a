"""grid-ci: the Fig. 7 CI grid through the pooled runner, cold then warm.

Set-up builds the 16 cells of ``fig7_cells(CI_SCALE, seed)`` and an
``ExperimentRunner(jobs=2)`` over a fresh on-disk store.  The timed
region is one cold pass (lock, train and persist every cell over a
two-process pool) followed by warm passes: each a new runner over the
same store, so every cell is a store read, a decode and an Algorithm 1
rescoring with zero training.

Check: every warm record equals its cold record by
``record_fingerprint``.  The traced run additionally re-computes every
cell stage by stage in-process, which must reproduce the pool's
artifacts bit for bit.

``peak_rss_mb`` is the largest RSS of this process, which runs the
runner, and of the pool children.  The traced run spans the runner and
``run_muxlink``'s stages in the pool children too (they are forked
while the spans are in place); its warm passes alternate untraced and
traced, which gives the tracing overhead of one pass.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

from repro.benchgen import load_benchmark
from repro.core import aggregate_metrics
from repro.experiments import CI_SCALE, SMOKE_SCALE, fig7_cells
from repro.experiments.common import lock_with
from repro.experiments.runner import ExperimentRunner, record_fingerprint
from repro.store import ArtifactStore

import layers
from harness import Timing, children_rss_mb, own_rss_mb, paired_overhead_ms
from stages import (
    replica_epoch,
    result_fingerprint,
    staged_attack,
    store_roundtrip,
)

JOBS = 2


@dataclass
class State:
    cells: list
    store_dir: object
    runner: ExperimentRunner


def setup(ctx) -> State:
    scale = SMOKE_SCALE if ctx.tiny else CI_SCALE
    store_dir = ctx.work / "grid-store"
    return State(
        cells=fig7_cells(scale, ctx.seed),
        store_dir=store_dir,
        runner=ExperimentRunner(jobs=JOBS, store=store_dir),
    )


def teardown(state: State) -> None:
    state.runner.close()


def _warm_pass(state: State):
    start = time.perf_counter()
    with ExperimentRunner(jobs=JOBS, store=state.store_dir) as runner:
        records = runner.run(state.cells)
    return time.perf_counter() - start, records, runner


def _flip(key: str) -> str:
    return ("1" if key[:1] != "1" else "0") + key[1:]


def run(ctx, state: State, outcome) -> None:
    tracer = ctx.tracer
    cells = state.cells
    n_warm = 3 if ctx.tiny else max(3, round(2 * ctx.seconds))
    program = layers.program_spans(runner=True)

    with tracer.span("op.cold_pass"), tracer.wrapped(program):
        start = time.perf_counter()
        cold = state.runner.run(cells)
        cold_s = time.perf_counter() - start
        state.runner.close()  # pool children exit; their RSS is counted
    for _ in cells:
        outcome.op()
    with tracer.span("bench.check"):
        cold_fp = [record_fingerprint(r) for r in cold]

    # A traced run pairs each traced warm pass with an untraced one.
    warm = Timing("grid warm pass")
    traced_warm = Timing("grid warm pass, traced")
    warm_runners = []
    for i in range(n_warm):
        passes = [(warm, tracer.untraced())]
        if ctx.traced:
            passes.append((traced_warm, tracer.wrapped(program)))
        for timing, mode in passes:
            ctx.host.sample(2)
            with mode, tracer.span("op.warm_pass"):
                seconds, records, runner = _warm_pass(state)
            timing.add(seconds)
            warm_runners.append(runner)
            with tracer.span("bench.check"):
                if ctx.corrupt and i == 0:
                    records[0] = dataclasses.replace(
                        records[0], predicted_key=_flip(records[0].predicted_key)
                    )
                for cell, record, expected in zip(cells, records, cold_fp):
                    outcome.op()
                    outcome.check(
                        record_fingerprint(record) == expected,
                        f"warm record of {cell.benchmark}/{cell.scheme}/"
                        f"K={cell.key_size} differs from its cold record",
                    )

    # The warm passes run in this process alone and are scaled to the
    # reference host speed; the cold pass keeps both cores busy.
    scale = ctx.host.factor
    pooled = aggregate_metrics([r.metrics for r in cold])
    outcome.metrics.update(
        {
            "cold_op_s": cold_s,
            "warm_op_ms": warm.median * 1e3 * scale,
            "ops_per_s": len(cells) * (1 + warm.n)
            / (cold_s + sum(warm.samples) * scale),
            "peak_rss_mb": max(own_rss_mb(), children_rss_mb()),
            "kpa": pooled.kpa,
            "accuracy": pooled.accuracy,
        }
    )
    stats = state.runner.stats
    loaded = sum(r.stats.attacks_loaded for r in warm_runners)
    outcome.notes.append(
        f"grid cold pass: {cold_s:.4f}s for {len(cells)} cells ({stats.summary()})"
    )
    outcome.notes.append(
        f"runner: attacks_computed {stats.attacks_computed}, store_reuse_ratio "
        f"{loaded / (len(cells) * len(warm_runners)):.4f}, pool_busy_frac "
        f"{sum(r.runtime_seconds for r in cold) / (JOBS * cold_s):.4f}"
    )
    outcome.notes.append(warm.describe(1e3, "ms") + " measured")
    outcome.notes.append(
        f"pooled over {len(cold)} cells: KPA {pooled.kpa:.4f} "
        f"AC {pooled.accuracy:.4f} PC {pooled.precision:.4f}"
    )
    if not ctx.traced:
        return

    # -- traced: every cell stage by stage, in-process ----------------------
    stage_store = ArtifactStore(ctx.work / "staged-store")
    bases: dict = {}
    cold_results = [record.extras["result"] for record in cold]
    for cell, cold_result in zip(cells, cold_results):
        with tracer.span("bench.cell_staged"):
            base_key = (cell.benchmark, cell.circuit_scale)
            if base_key not in bases:
                with tracer.span("benchgen.load"):
                    bases[base_key] = load_benchmark(*base_key)
            with tracer.span("locking.lock"):
                locked = lock_with(
                    cell.scheme, bases[base_key], key_size=cell.key_size,
                    seed=cell.lock_seed,
                )
            staged = staged_attack(locked.circuit, cell.config, tracer)
            layers.count_attack(tracer, staged)
            decoded = store_roundtrip(
                locked.circuit, cell.config, staged.result, stage_store, tracer
            )
            with tracer.span("bench.check"):
                expected = result_fingerprint(cold_result)
                outcome.check(
                    result_fingerprint(staged.result) == expected
                    and result_fingerprint(decoded) == expected,
                    f"staged {cell.benchmark}/{cell.scheme}/K={cell.key_size} "
                    "differs from the pooled run",
                )
            with tracer.span("bench.replica_epoch"):
                replica_epoch(staged.trainer, tracer)

    stores = [
        state.runner.store.stats, stage_store.stats,
        *(r.store.stats for r in warm_runners),
    ]
    outcome.metrics.update(layers.store_counters(*stores))
    outcome.notes.append(layers.store_note(*stores))
    outcome.notes.append(traced_warm.describe(1e3, "ms"))
    outcome.notes.append(
        f"tracing overhead per warm pass: {paired_overhead_ms(warm, traced_warm):.4f} ms "
        f"(paired median over {traced_warm.n} pairs; negative when below the "
        "host's noise)"
    )
