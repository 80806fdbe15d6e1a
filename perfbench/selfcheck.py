"""Tiny-size self-check of the benchmark itself.

Run from the root of a checkout::

    python3 perfbench/selfcheck.py

For every workload of ``BENCHMARK.json``, shrunk with ``--size tiny``:

* an untraced and a traced run exit 0 with a correct result that
  carries every end-to-end (resp. per-layer) metric with its unit, and
  layer spans cover at least 95 % of the traced run's window;
* a run with one checked output deliberately corrupted (``--corrupt``)
  exits non-zero with ``correct: false``;
* ``kpa`` and ``accuracy`` repeat exactly for a repeated seed.

Finally the command must fail, without a result line, in a directory
that holds only ``BENCHMARK.json`` and the benchmark's own files.
Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import harness

SEED = 3
SECONDS = "2"
_COVERAGE = re.compile(r"^span coverage: ([0-9.]+) ", re.MULTILINE)


def _run(*extra: str, cwd=harness.ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", str(SEED),
         "--seconds", SECONDS, *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def _expect(condition: bool, message: str, output: str = "") -> None:
    if not condition:
        print(output)
        raise SystemExit(f"selfcheck FAILED: {message}")


def main() -> int:
    spec = harness.load_spec()
    for workload in (w["name"] for w in spec["workloads"]):
        quality = []
        for trace, section in ((0, "end_to_end"), (1, "per_layer"), (0, None)):
            code, result, output = _run(
                "--workload", workload, "--trace", str(trace), "--size", "tiny"
            )
            label = f"{workload} trace={trace}"
            _expect(code == 0 and result and result["correct"], f"{label} failed", output)
            if section is None:  # the repeat run: quality must match exactly
                quality.append({k: result["metrics"][k]["value"] for k in ("kpa", "accuracy")})
                _expect(quality[0] == quality[1], f"{workload}: kpa/accuracy did not repeat")
                continue
            expected = {m["name"]: m["unit"] for m in spec[section]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            _expect(printed == expected, f"{label}: metrics {printed} != {expected}")
            if trace:
                match = _COVERAGE.search(output)
                _expect(match is not None, f"{label}: no span coverage printed", output)
                coverage = float(match.group(1))
                _expect(coverage >= 0.95, f"{label}: span coverage {coverage:.3f}", output)
            else:
                quality.append({k: result["metrics"][k]["value"] for k in ("kpa", "accuracy")})
            print(f"ok  {label}")
        code, result, output = _run(
            "--workload", workload, "--size", "tiny", "--corrupt"
        )
        _expect(
            code != 0 and result is not None and not result["correct"]
            and result["failed"] >= 1,
            f"{workload}: a corrupted output did not trip the check",
            output,
        )
        print(f"ok  {workload} corrupted output detected")

    bare = harness.WORK_ROOT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(harness.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(harness.SPEC_PATH, bare / "BENCHMARK.json")
        code, result, output = _run("--workload", "grid-ci", cwd=bare)
        _expect(code != 0 and result is None, "ran without the program", output)
        print("ok  fails without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            harness.WORK_ROOT.rmdir()
        except OSError:
            pass
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
