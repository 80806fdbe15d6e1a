"""Record the benchmark on this host: seeds × workloads, plus traced runs.

Run from the root of a checkout::

    python3 perfbench/record.py

Each workload of ``BENCHMARK.json`` runs once per seed 1..10 untraced
and once traced (seed 1),
at ``run_seconds`` from ``BENCHMARK.json``.  The record keeps, per
end-to-end metric, every value, the median, the quartiles (Python's
``statistics.quantiles(n=4)``) and the spread: the distance between
the quartiles as a share of the median.  It also keeps the traced
run's per-layer metrics and the host/code stamp, and is written to
``perfbench/baseline.json``.  Exits non-zero if a run fails or a
spread exceeds its bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import harness

SEEDS = 10


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=900,
    )
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    stamp = next(
        (json.loads(line[len("stamp: "):]) for line in lines if line.startswith("stamp: ")),
        {},
    )
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit(
            f"{workload} seed {seed} trace {trace} failed:\n"
            f"{proc.stdout[-3000:]}{proc.stderr[-3000:]}"
        )
    return result, stamp, wall


def _summary(values: list[float], bound: float | None) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("nan")
    entry = {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
    }
    if bound is not None:
        entry["bound"] = bound
        entry["within_bound"] = spread <= bound
        entry["within_third_of_bound"] = spread <= bound / 3
    return entry


def main() -> int:
    spec = harness.load_spec()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record: dict = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        walls = []
        for seed in range(1, SEEDS + 1):
            result, stamp, wall = _run(workload, seed, seconds, 0)
            walls.append(wall)
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
            print(f"{workload} seed {seed}: {wall:.1f}s", flush=True)
        traced, _, traced_wall = _run(workload, 1, seconds, 1)
        record.setdefault("stamp", {k: stamp[k] for k in ("host", "commit", "src_sha256", "src_lines")})
        metrics = {}
        for name, series in values.items():
            metrics[name] = _summary(series, bounds.get(name))
            if not metrics[name]["within_bound"]:
                ok = False
            print(
                f"  {name:<14} median {metrics[name]['median']:.5g} "
                f"spread {metrics[name]['spread']:.4f} (bound {bounds.get(name)})",
                flush=True,
            )
        record["workloads"][workload] = {
            "end_to_end": metrics,
            "run_wall_s": {"median": statistics.median(walls), "max": max(walls)},
            "traced_seed_1": {
                "wall_s": traced_wall,
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            },
        }
    with open(harness.BENCH_DIR / "baseline.json", "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
