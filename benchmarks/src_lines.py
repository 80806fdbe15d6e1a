"""Record the size of the program: lines of ``src/**/*.py``.

Appends ``{"src_lines", "src_sha256", "label"}`` for the checkout that
holds this script to the ``src_lines`` section of the perf record (see
``perf_record.py``), so the record tracks one line count per change.
The count and digest come from the repo benchmark's
``perfbench/harness.code_stamp``; the count equals
``find src -name '*.py' | xargs cat | wc -l``.  The label is
``git describe --always --dirty``.

    python benchmarks/src_lines.py
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from perf_record import update_record

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.harness import ROOT, code_stamp  # noqa: E402


def _git_label() -> str | None:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip() or None


def main() -> int:
    stamp = code_stamp()
    label = _git_label()
    path = update_record(
        "src_lines",
        {"src_lines": stamp["src_lines"], "src_sha256": stamp["src_sha256"],
         "label": label},
    )
    print(f"src_lines: {stamp['src_lines']} ({label}) -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
