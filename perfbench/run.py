"""Repo benchmark: one seeded workload per run, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload grid-ci --seed 1 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run and reports the per-layer
metrics, and prints the span table, the share of the traced wall-clock
that layer spans cover and the tracing overhead.  Every run checks the program's outputs; the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``
and the exit code is non-zero when an output check failed.

``setup_s`` is the median of four set-ups: this process's own and three
fresh interpreters that only set up (``--setup-probe``), run after the
workload.  Each workload measures ``peak_rss_mb`` over the program's
own processes.  grid-ci's warm passes and attack-large's store repeats,
single-threaded work in this process, are scaled to a reference host
speed (``harness.HostSpeed``); their measured values are printed too.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import harness
from harness import BenchError, Outcome, Tracer

#: workload name -> module under ``workloads/``
WORKLOADS = {
    "grid-ci": "grid_ci",
    "attack-large": "attack_large",
    "serve-mixed": "serve_mixed",
    "cli-cold": "cli_cold",
}

#: Extra set-ups per run, each in a fresh interpreter.
SETUP_PROBES = 3


@dataclass
class Context:
    """Everything a workload run is parameterized by."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    tiny: bool  # shrunk inputs, for the self-check
    corrupt: bool  # tamper with one checked output, for the self-check
    work: Path
    env: dict
    tracer: Tracer
    host: harness.HostSpeed

    @property
    def traced_env(self) -> dict:
        """Environment of a child process whose spans the run merges."""
        return {**self.env, harness.SPANS_ENV: str(self.tracer.spool)}


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument(
        "--corrupt", action="store_true", help=argparse.SUPPRESS
    )
    parser.add_argument(
        "--setup-probe", action="store_true", help=argparse.SUPPRESS
    )
    return parser.parse_args(argv)


def _setup_probe(ctx: Context) -> float:
    """One set-up in a fresh interpreter; returns its ``setup_s``."""
    cmd = [
        sys.executable, str(harness.BENCH_DIR / "run.py"),
        "--workload", ctx.workload, "--seed", str(ctx.seed),
        "--seconds", str(ctx.seconds), "--size", "tiny" if ctx.tiny else "full",
        "--setup-probe",
    ]
    proc = subprocess.run(
        cmd, cwd=harness.ROOT, env=ctx.env, capture_output=True, text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"setup probe failed:\n{proc.stdout}{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _startup_probe(ctx: Context) -> dict:
    """Fresh-interpreter import and first-fit costs (``startup_probe.py``)."""
    proc = subprocess.run(
        [sys.executable, str(harness.BENCH_DIR / "startup_probe.py")],
        cwd=harness.ROOT, env=ctx.env, capture_output=True, text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"startup probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        harness.bootstrap()
        spec = harness.load_spec()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    with harness.work_dir(args.workload) as work:
        spool = work / "spans"
        spool.mkdir()
        ctx = Context(
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            traced=bool(args.trace),
            tiny=args.size == "tiny",
            corrupt=args.corrupt,
            work=work,
            env=harness.child_env(work),
            tracer=Tracer(enabled=bool(args.trace), spool=spool),
            host=harness.HostSpeed(enabled=not args.trace and not args.setup_probe),
        )
        if args.setup_probe:
            start = time.perf_counter()
            module = importlib.import_module(f"workloads.{WORKLOADS[ctx.workload]}")
            state = module.setup(ctx)
            elapsed = time.perf_counter() - start
            module.teardown(state)
            print(json.dumps({"setup_s": elapsed}))
            return 0
        return _run(ctx, spec)


def _run(ctx: Context, spec: dict) -> int:
    harness.compile_sources()
    start = time.perf_counter()
    module = importlib.import_module(f"workloads.{WORKLOADS[ctx.workload]}")
    state = module.setup(ctx)
    setups = [time.perf_counter() - start]

    outcome = Outcome()
    try:
        trace_start = time.perf_counter_ns()
        module.run(ctx, state, outcome)
        trace_end = time.perf_counter_ns()
    finally:
        module.teardown(state)
    # After the workload, so the probes' RSS is not the program's.
    setups += [_setup_probe(ctx) for _ in range(SETUP_PROBES)]

    outcome.metrics["setup_s"] = statistics.median(setups)
    outcome.notes.insert(
        0, "setup_s samples: " + " ".join(f"{s:.4f}" for s in setups)
    )
    if ctx.traced:
        _finish_trace(ctx, outcome, trace_start, trace_end)
    elif ctx.host.samples:
        outcome.notes.append(ctx.host.note())
    stamp = {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": int(ctx.traced),
        "size": "tiny" if ctx.tiny else "full",
        "host": harness.host_stamp(),
        **harness.code_stamp(),
    }
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    correct = harness.emit_result(outcome, spec, traced=ctx.traced)
    return 0 if correct else 1


def _finish_trace(ctx: Context, outcome: Outcome, start_ns: int, end_ns: int) -> None:
    """Coverage, start-up probe and the per-layer table of a traced run."""
    import layers

    tracer = ctx.tracer
    tracer.merge_spool()
    coverage, unattributed, window_s = tracer.coverage(start_ns, end_ns)
    probe = _startup_probe(ctx)
    metrics = outcome.metrics
    metrics.update(layers.span_metrics(tracer))
    metrics.update(layers.count_metrics(tracer))
    metrics["import.repro_cli_s"] = probe["import_s"]
    metrics["linkpred.first_fit_extra_s"] = probe["first_fit_s"] - probe["second_fit_s"]
    outcome.notes.append(f"traced window {window_s:.3f}s\n" + tracer.table(window_s))
    outcome.notes.append(
        f"span coverage: {coverage:.4f} of the {window_s:.3f}s traced window "
        f"(unattributed {unattributed:.3f}s)"
    )
    outcome.notes.append(
        f"startup probe: import repro.cli {probe['import_s']:.3f}s, "
        f"first fit {probe['first_fit_s']:.3f}s, "
        f"second fit {probe['second_fit_s']:.3f}s"
    )
    if coverage < 0.95:
        outcome.notes.append(f"WARNING: span coverage {coverage:.3f} is below 0.95")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
    except Exception:  # a crashed workload prints no result line
        traceback.print_exc()
        sys.exit(3)
