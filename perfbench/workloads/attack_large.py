"""attack-large: one in-process MuxLink attack on full-size c7552.

Set-up imports the package and runs a warm-up attack on a tiny design,
so lazy first-use costs stay out of the timed region.  The input is
c7552 at scale 1.0 (3512 gates) D-MUX-locked with a 128-bit key under
``make_cell`` seeds, attacked with the CI training recipe cut to
``EPOCHS`` epochs.  Timed: one ``run_muxlink`` (no store, pool, server
or import cost inside), then repeat attacks of the same design answered
from an artifact store (``run_muxlink(store=...)``: netlist digest,
store read, decode and Algorithm 1 rescoring).

Checks: the stage-by-stage replica of the attack (:mod:`stages`)
reproduces the key and every likelihood; the store round trip and every
store-answered repeat return the same key and likelihoods.

``peak_rss_mb`` is this process's peak right after the attack: the
warm-up and the attack, nothing the checks allocate.  The traced run
spans ``run_muxlink``'s stages and pairs each traced repeat with an
untraced one, which gives the tracing overhead of one repeat.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.benchgen import load_benchmark
from repro.core import run_muxlink, score_key
from repro.experiments import CI_SCALE, SMOKE_SCALE
from repro.experiments.common import lock_with
from repro.experiments.runner import make_cell
from repro.store import ArtifactStore

import layers
from harness import Timing, own_rss_mb, paired_overhead_ms
from stages import (
    likelihood_table,
    replica_epoch,
    result_fingerprint,
    staged_attack,
    store_roundtrip,
)

DESIGN = ("c7552", 1.0)
KEY_SIZE = 128
EPOCHS = 3
TINY = ("c1355", 0.1, 6)  # warm-up design, and the whole input at --size tiny


def _cell(name: str, scale: float, key_size: int, seed: int, epochs: int):
    preset = CI_SCALE if scale >= 1.0 else SMOKE_SCALE
    cell = make_cell(preset, name, scale, "D-MUX", key_size, seed)
    config = replace(cell.config, train=replace(cell.config.train, epochs=epochs))
    return cell, config


def setup(ctx):
    name, scale, key_size = TINY
    cell, config = _cell(name, scale, key_size, ctx.seed, 2)
    locked = lock_with("D-MUX", load_benchmark(name, scale), key_size, cell.lock_seed)
    run_muxlink(locked.circuit, config)
    return None


def teardown(state) -> None:
    pass


def run(ctx, state, outcome) -> None:
    tracer = ctx.tracer
    if ctx.tiny:
        name, scale, key_size = TINY
        epochs, n_warm = 2, 4
    else:
        (name, scale), key_size = DESIGN, KEY_SIZE
        epochs, n_warm = EPOCHS, max(4, round(4 * ctx.seconds))

    program = layers.program_spans()
    cell, config = _cell(name, scale, key_size, ctx.seed, epochs)
    with tracer.span("benchgen.load"):
        base = load_benchmark(name, scale)
    with tracer.span("locking.lock"):
        locked = lock_with("D-MUX", base, key_size, cell.lock_seed)
    circuit = locked.circuit

    with tracer.span("op.attack"), tracer.wrapped(program):
        start = time.perf_counter()
        result = run_muxlink(circuit, config)
        attack_s = time.perf_counter() - start
    peak_rss = own_rss_mb()
    outcome.op()

    # Store-answered repeats run in two halves, before and after the
    # stage-by-stage replica, so their samples span most of the run.
    store = ArtifactStore(ctx.work / "attack-store")
    decoded = store_roundtrip(circuit, config, result, store, tracer)
    reference = likelihood_table(result)
    with tracer.span("bench.check"):
        outcome.check(
            result_fingerprint(decoded) == result_fingerprint(result),
            "store round trip changed the attack artifact",
        )

    # A traced run pairs each traced repeat with an untraced one.
    warm = Timing("store-answered repeat attack")
    traced_warm = Timing("store-answered repeat attack, traced")

    def warm_attacks(count: int) -> None:
        for _ in range(count):
            repeats = [(warm, tracer.untraced())]
            if ctx.traced:
                repeats.append((traced_warm, tracer.wrapped(program)))
            for timing, mode in repeats:
                ctx.host.sample()
                with mode, tracer.span("op.repeat_attack"):
                    start = time.perf_counter()
                    repeat = run_muxlink(circuit, config, store=store)
                    timing.add(time.perf_counter() - start)
                outcome.op()
                with tracer.span("bench.check"):
                    outcome.check(
                        likelihood_table(repeat) == reference,
                        "store-answered repeat differs from the attack",
                    )

    warm_attacks(n_warm // 2)

    staged = staged_attack(circuit, config, tracer)
    layers.count_attack(tracer, staged)
    with tracer.span("bench.check"):
        if ctx.corrupt:
            key, rows = likelihood_table(staged.result)
            name0, index0, load0, (p0, p1) = rows[0]
            rows = ((name0, index0, load0, (p0 + 1e-9, p1)),) + rows[1:]
            observed = (key, rows)
        else:
            observed = likelihood_table(staged.result)
        outcome.check(
            observed == reference
            and result_fingerprint(staged.result) == result_fingerprint(result),
            "stage-by-stage attack differs from run_muxlink",
        )
    warm_attacks(n_warm - n_warm // 2)

    # The repeats are scaled to the reference host speed by the
    # calibration among them.  The attack is not: one 12 s operation
    # cannot be bracketed closely enough, and the calibration around it
    # did not steady it.
    scale = ctx.host.factor
    metrics = score_key(result.predicted_key, locked.key)
    outcome.metrics.update(
        {
            "cold_op_s": attack_s,
            "warm_op_ms": warm.median * 1e3 * scale,
            "ops_per_s": (1 + warm.n) / (attack_s + sum(warm.samples) * scale),
            "peak_rss_mb": peak_rss,
            "kpa": metrics.kpa,
            "accuracy": metrics.accuracy,
        }
    )
    outcome.notes.append(
        f"{name}@{scale} K={key_size}: {len(circuit.gates)} gates, "
        f"attack {attack_s:.4f}s ({', '.join(f'{k} {v:.3f}s' for k, v in result.runtime_seconds.items())})"
    )
    outcome.notes.append(warm.describe(1e3, "ms") + " measured")
    outcome.notes.append(
        f"KPA {metrics.kpa:.4f} AC {metrics.accuracy:.4f} X={metrics.n_x}"
    )
    if not ctx.traced:
        return

    with tracer.span("bench.replica_epoch"):
        replica_epoch(staged.trainer, tracer)
    outcome.metrics.update(layers.store_counters(store.stats))
    outcome.notes.append(layers.store_note(store.stats))
    outcome.notes.append(traced_warm.describe(1e3, "ms"))
    outcome.notes.append(
        f"tracing overhead per repeat: {paired_overhead_ms(warm, traced_warm):.4f} ms "
        f"(paired median over {traced_warm.n} pairs; negative when below the "
        "host's noise)"
    )
