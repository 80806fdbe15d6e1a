"""Program calls in a fresh interpreter (run as a subprocess).

Usage::

    python3 child.py cli <repro arguments...>
    python3 child.py jobs JOBS.pkl STORE_DIR [STORE_KEY...]

``cli`` runs ``repro.cli.main`` and exits with its code.  ``jobs``
executes every pickled ``(store key, job)`` pair with
:func:`repro.experiments.runner.execute_job`, puts the artifacts of the
listed store keys into the store at STORE_DIR, and prints one JSON line
mapping each store key to the fingerprint of its decoded artifact
(:func:`stages.result_fingerprint`).

When ``$PERFBENCH_SPANS`` names a directory the run is traced: the
package import and the program's stages (:func:`layers.program_spans`)
are spanned, and the spans are written there for the parent to merge.
The first span, ``bench.child_init``, starts at this script's first
statement, so the parent can tell the interpreter's start-up from it.
``jobs`` ends with ``os._exit``: the reference run's interpreter
teardown is not the program's.
"""

from __future__ import annotations

import time

started_ns = time.perf_counter_ns()

import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import SPANS_ENV, Tracer  # noqa: E402

tracer = Tracer(enabled=bool(os.environ.get(SPANS_ENV)))
tracer.add_span("bench.child_init", started_ns, time.perf_counter_ns(), 0)
mode, args = sys.argv[1], sys.argv[2:]
with tracer.span("import.repro_cli" if mode == "cli" else "import.repro"):
    import repro.cli as cli

    import layers

    targets = layers.program_spans(runner=mode == "jobs") if tracer.enabled else []


def run_cli() -> int:
    with tracer.wrapped(targets + [(cli, "load_bench", "netlist.parse")]):
        with tracer.span("op.cli_main"):
            return cli.main(args)


def run_jobs() -> int:
    from repro.experiments.runner import execute_job
    from repro.store import ArtifactStore, decode_attack_artifact
    from stages import result_fingerprint

    with open(args[0], "rb") as handle:
        jobs = pickle.load(handle)
    store, to_store = ArtifactStore(args[1]), set(args[2:])
    fingerprints = {}
    for key, job in jobs:
        with tracer.wrapped(targets):
            payload = execute_job(job)
            if key in to_store:
                store.put("attacks", key, payload)
        with tracer.span("bench.fingerprint"):
            fingerprints[key] = result_fingerprint(decode_attack_artifact(payload))
    print(json.dumps(fingerprints))
    return 0


if mode == "cli":
    try:
        code = run_cli()
    finally:
        tracer.dump()
    sys.exit(code)
try:
    code = run_jobs()
finally:
    tracer.dump()
    sys.stdout.flush()
os._exit(code)
