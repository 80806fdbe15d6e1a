"""cli-cold: ``repro attack`` in a fresh interpreter, one after another.

Set-up writes seeded locked netlists (c3540 at scale 0.2, D-MUX, K=32)
as BENCH files, each with its true key in the ``#key=`` comment so the
CLI prints AC/KPA.  Timed: cold invocations ``repro attack FILE
--epochs 2`` (interpreter start, imports, parse, training, scoring) and
store-answered invocations with ``--store`` (interpreter start,
imports, parse, store read).

Checks: every printed key equals in-process ``run_muxlink`` on the same
file at the CLI's configuration; that reference run also fills the store
the ``--store`` invocations read.

``peak_rss_mb`` is the largest RSS of a ``repro attack`` process, read
from ``os.wait4``.  The traced run pairs every invocation with one under
``child.py cli``, which spans the CLI's import and stages in the child;
the parent adds the child's interpreter start (spawn to the script's
first statement) and exit (end of ``repro.cli.main`` to the reap) as
``cli.process_start`` and ``cli.process_exit``.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

import numpy as np

from repro.benchgen import load_benchmark
from repro.core import MuxLinkConfig, aggregate_metrics, run_muxlink, score_key
from repro.experiments.common import lock_with
from repro.linkpred import TrainConfig
from repro.netlist import dump_bench, load_bench
from repro.store import ArtifactStore

import layers
from harness import BENCH_DIR, Timing, paired_overhead_ms, run_child
from stages import (
    likelihood_table,
    replica_epoch,
    staged_attack,
    store_roundtrip,
)

DESIGN = ("c3540", 0.2)
KEY_SIZE = 32
EPOCHS = 2
_KEY_LINE = re.compile(r"^predicted key: ([01x]*)$", re.MULTILINE)


@dataclass
class State:
    files: list
    keys: list


def setup(ctx) -> State:
    n_files = 2 if ctx.tiny else max(2, round(ctx.seconds / 2))
    base = load_benchmark(*DESIGN)
    rng = np.random.default_rng(ctx.seed)
    files, keys = [], []
    for index, lock_seed in enumerate(rng.integers(0, 2**31, size=n_files)):
        with ctx.tracer.span("locking.lock"):
            locked = lock_with("D-MUX", base, KEY_SIZE, int(lock_seed))
        path = ctx.work / f"locked-{index}.bench"
        dump_bench(locked.circuit, path, key=locked.key)
        files.append(path)
        keys.append(locked.key)
    return State(files, keys)


def teardown(state: State) -> None:
    pass


def cli_config() -> MuxLinkConfig:
    """What ``repro attack FILE --epochs EPOCHS`` builds (CLI defaults)."""
    return MuxLinkConfig(
        h=3,
        threshold=0.01,
        train=TrainConfig(epochs=EPOCHS, learning_rate=1e-3, seed=0),
        seed=0,
    )


def run(ctx, state: State, outcome) -> None:
    tracer = ctx.tracer
    store_dir = ctx.work / "cli-store"
    config = cli_config()

    references = []
    with tracer.wrapped(layers.program_spans()):
        for path in state.files:
            with tracer.span("netlist.parse"):
                circuit, _ = load_bench(path)
            references.append(run_muxlink(circuit, config, store=store_dir))

    rss: list[float] = []

    def invoke(index, timing, extra=(), traced=False) -> str:
        """One ``repro attack`` process on file *index*; its printed key."""
        path = state.files[index]
        argv = ["attack", str(path), "--epochs", str(EPOCHS), *extra]
        if traced:
            command = [sys.executable, str(BENCH_DIR / "child.py"), "cli", *argv]
            child = run_child(command, ctx.traced_env, ctx.work, timeout=120)
            _attribute_process(tracer, child)
        else:
            command = [sys.executable, "-m", "repro.cli", *argv]
            child = run_child(command, ctx.env, ctx.work, timeout=120)
            rss.append(child.rss_mb)
        timing.add(child.seconds)
        outcome.op()
        match = _KEY_LINE.search(child.stdout)
        key = match.group(1) if child.returncode == 0 and match else None
        expected = references[index].predicted_key
        if ctx.corrupt and index == 0 and key:
            key = ("1" if key[0] != "1" else "0") + key[1:]
        with tracer.span("bench.check"):
            outcome.check(
                key == expected,
                f"repro attack {' '.join(extra)} on {path.name} printed {key!r}, "
                f"expected {expected!r} (exit {child.returncode}: "
                f"{child.stderr[-300:]})",
            )
        return key or "x" * len(expected)  # no key printed: all undecided

    # Cold and store-answered invocations alternate, so both samples
    # spread over the whole run; a traced run follows each with the same
    # invocation traced.
    store_args = ("--store", str(store_dir))
    cold = Timing("repro attack process")
    warm = Timing("repro attack --store process")
    traced_cold = Timing("repro attack process, traced")
    traced_warm = Timing("repro attack --store process, traced")
    printed = []
    for index in range(len(state.files)):
        with tracer.untraced(), tracer.span("op.attack_process"):
            printed.append(invoke(index, cold))
        if ctx.traced:
            with tracer.span("op.attack_process"):
                invoke(index, traced_cold, traced=True)
        with tracer.untraced(), tracer.span("op.attack_store_process"):
            invoke(index, warm, store_args)
        if ctx.traced:
            with tracer.span("op.attack_store_process"):
                invoke(index, traced_warm, store_args, traced=True)

    pooled = aggregate_metrics(
        [score_key(key, true) for key, true in zip(printed, state.keys)]
    )
    outcome.metrics.update(
        {
            "cold_op_s": cold.median,
            "warm_op_ms": warm.median * 1e3,
            "ops_per_s": (cold.n + warm.n) / (sum(cold.samples) + sum(warm.samples)),
            "peak_rss_mb": max(rss),
            "kpa": pooled.kpa,
            "accuracy": pooled.accuracy,
        }
    )
    outcome.notes.append(cold.describe())
    outcome.notes.append(warm.describe(1e3, "ms"))
    outcome.notes.append(
        f"pooled over {len(printed)} netlists: KPA {pooled.kpa:.4f} "
        f"AC {pooled.accuracy:.4f}"
    )
    if not ctx.traced:
        return

    circuit, _ = load_bench(state.files[0])
    staged = staged_attack(circuit, config, tracer)
    layers.count_attack(tracer, staged)
    staged_store = ArtifactStore(ctx.work / "staged-store")
    decoded = store_roundtrip(circuit, config, staged.result, staged_store, tracer)
    with tracer.span("bench.check"):
        expected = likelihood_table(references[0])
        outcome.check(
            likelihood_table(staged.result) == expected
            and likelihood_table(decoded) == expected,
            "stage-by-stage attack differs from run_muxlink",
        )
    with tracer.span("bench.replica_epoch"):
        replica_epoch(staged.trainer, tracer)
    outcome.metrics.update(layers.store_counters(staged_store.stats))
    outcome.notes.append(layers.store_note(staged_store.stats))
    for untraced, traced, label in (
        (cold, traced_cold, "repro attack process"),
        (warm, traced_warm, "repro attack --store process"),
    ):
        outcome.notes.append(traced.describe(1e3, "ms"))
        outcome.notes.append(
            f"tracing overhead per {label}: "
            f"{paired_overhead_ms(untraced, traced):.4f} ms (paired median over "
            f"{traced.n} pairs; negative when below the host's noise)"
        )


def _attribute_process(tracer, child) -> None:
    """Merge a traced child's spans and add its interpreter start and
    exit, which only the parent sees."""
    tracer.merge_spool()
    own = [s for s in tracer.spans if s.thread == -child.pid]
    if not own:
        return
    tracer.add_span(
        "cli.process_start", child.start_ns, min(s.start_ns for s in own), -child.pid
    )
    main_end = max(s.end_ns for s in own if s.name == "op.cli_main")
    tracer.add_span("cli.process_exit", main_end, child.end_ns, -child.pid)
