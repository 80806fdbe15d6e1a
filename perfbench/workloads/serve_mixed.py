"""serve-mixed: a closed-loop client against attack-as-a-service.

Set-up starts an :class:`~repro.serve.AttackServer` on a fresh store in
this process (its loop on a thread), one pipelined ``repro worker
--serve-addr`` subprocess, and one :class:`~repro.client.ServeClient`.
Two connections on two cores: the client's and the worker's.

The client sends a seeded sequence over a pool of small locked
netlists, one request at a time (closed loop), mixing four kinds:

* ``store`` — keys put in the store before the timed region (store hits);
* ``repeat`` — keys already requested (memory hits);
* ``miss`` — fresh keys, which the worker trains;
* ``coalesced`` — fresh keys submitted twice before waiting.

Checks, outside the timed region: every served artifact is identical to
``execute_job`` of the same request, called directly rather than through
the server, and every request gets the status its kind implies (``hit``,
``queued``, ``coalesced``).  Those reference attacks run before the
timed region in one child process (``child.py jobs``), which also puts
the ``store`` kind into the server's store; so ``peak_rss_mb`` — the
largest RSS of this process, which runs the server, and of the worker —
is the service's.

The traced run alternates untraced and traced requests; consecutive
hits give the tracing overhead of one hit.
"""

from __future__ import annotations

import json
import pickle
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.benchgen import load_benchmark
from repro.client import ServeClient
from repro.core import MuxLinkConfig, aggregate_metrics, score_key
from repro.experiments.common import lock_with
from repro.linkpred import TrainConfig
from repro.serve import AttackServer
from repro.store import ArtifactStore

import layers
from harness import BENCH_DIR, Timing, own_rss_mb, reap, run_child
from stages import (
    replica_epoch,
    result_fingerprint,
    staged_attack,
    store_roundtrip,
)

POOL_DESIGN = ("c2670", 0.15)
KEY_SIZE = 16
N_STORE, N_MISS, N_COALESCED = 6, 8, 4
REQUESTS_PER_SECOND = 50  # sequence length per --seconds of run time
WORKER_READY_TIMEOUT = 60.0


@dataclass
class State:
    server: AttackServer
    loop: threading.Thread
    worker: subprocess.Popen
    worker_log: object
    client: ServeClient
    store_dir: object
    worker_ready_s: float
    worker_rss_mb: float | None = None


def setup(ctx) -> State:
    store_dir = ctx.work / "serve-store"
    server = AttackServer("127.0.0.1:0", store_dir, log=lambda *a: None)
    loop = threading.Thread(target=server.serve_forever, daemon=True)
    loop.start()
    worker_log = open(ctx.work / "serve-worker.log", "w")
    spawned = time.perf_counter()
    worker = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "worker",
            "--serve-addr", server.address, "--pipeline", "2",
            "--poll", "0.02", "--idle-timeout", "600",
        ],
        env=ctx.env,
        stdout=subprocess.DEVNULL,
        stderr=worker_log,
    )
    state = State(server, loop, worker, worker_log, None, store_dir, 0.0)
    try:
        deadline = spawned + WORKER_READY_TIMEOUT
        while not server.workers:
            if worker.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("serve worker never connected")
            time.sleep(0.002)
        state.worker_ready_s = time.perf_counter() - spawned
        state.client = ServeClient(server.address)
        state.client.ping()
    except BaseException:
        teardown(state)
        raise
    return state


def _stop_worker(state: State) -> float:
    """Stop the worker (once); its peak RSS in MB."""
    if state.worker_rss_mb is None:
        state.worker.terminate()
        state.worker_rss_mb = reap(state.worker, timeout=30)
    return state.worker_rss_mb


def teardown(state: State) -> None:
    (state.client or ServeClient(state.server.address)).shutdown()
    state.loop.join(timeout=30)
    state.server.close()
    _stop_worker(state)
    state.worker_log.close()


@dataclass
class Entry:
    """One distinct request: its netlist, config and expected key."""

    locked: object
    config: MuxLinkConfig
    kind: str  # store | miss | coalesced
    store_key: str = ""


def _pool(seed: int, tiny: bool, tracer) -> list[Entry]:
    """Distinct (locked netlist, config) requests, by kind."""
    n_store, n_miss, n_coal = (2, 2, 1) if tiny else (N_STORE, N_MISS, N_COALESCED)
    kinds = ["store"] * n_store + ["miss"] * n_miss + ["coalesced"] * n_coal
    base = load_benchmark(*POOL_DESIGN)
    rng = np.random.default_rng(seed)
    entries: list[Entry] = []
    seen: set[str] = set()
    while len(entries) < len(kinds):
        lock_seed, train_seed = (int(x) for x in rng.integers(0, 2**31, size=2))
        with tracer.span("locking.lock"):
            locked = lock_with("D-MUX", base, KEY_SIZE, lock_seed)
        config = MuxLinkConfig(
            h=2,
            train=TrainConfig(epochs=2, learning_rate=1e-3, seed=train_seed),
            seed=train_seed,
        )
        key = ServeClient.predict_store_key(locked.circuit, config)
        if key in seen:
            continue  # a lock seed that reproduced an earlier netlist
        seen.add(key)
        entries.append(Entry(locked, config, kinds[len(entries)], key))
    return entries


def _sequence(entries: list[Entry], n_requests: int, seed: int) -> list[tuple]:
    """``(entry index, kind)`` per request; repeats only of keys already
    introduced, the first request always a first touch."""
    rng = np.random.default_rng([seed, 1])
    firsts = list(rng.permutation(len(entries)))
    n_requests = max(n_requests, len(entries))
    slots = set(
        rng.choice(np.arange(1, n_requests), size=len(entries) - 1, replace=False)
    )
    slots.add(0)
    sequence, introduced = [], []
    for position in range(n_requests):
        if position in slots:
            index = int(firsts.pop())
            introduced.append(index)
            sequence.append((index, entries[index].kind))
        else:
            sequence.append((int(rng.choice(introduced)), "repeat"))
    return sequence


EXPECTED_STATUS = {
    "store": ("hit",),
    "repeat": ("hit",),
    "miss": ("queued",),
    "coalesced": ("queued", "coalesced"),
}


def _references(ctx, entries: list[Entry], store_dir) -> dict[str, str]:
    """``execute_job`` of every entry in a child process (``child.py
    jobs``), putting the ``store`` kind into *store_dir*; returns store
    key -> artifact fingerprint."""
    jobs_file = ctx.work / "jobs.pkl"
    with open(jobs_file, "wb") as handle:
        pickle.dump(
            [(e.store_key, ServeClient.job_for(e.locked.circuit, e.config)) for e in entries],
            handle,
        )
    command = [
        sys.executable, str(BENCH_DIR / "child.py"), "jobs", str(jobs_file),
        str(store_dir), *(e.store_key for e in entries if e.kind == "store"),
    ]
    env = ctx.traced_env if ctx.traced else ctx.env
    run = run_child(command, env, ctx.work, timeout=600)
    if run.returncode != 0:
        raise RuntimeError(f"reference attacks failed:\n{run.stderr[-2000:]}")
    return json.loads(run.stdout.strip().splitlines()[-1])


def run(ctx, state: State, outcome) -> None:
    tracer = ctx.tracer
    client = state.client
    with tracer.span("bench.inputs"):
        entries = _pool(ctx.seed, ctx.tiny, tracer)
        n_requests = 40 if ctx.tiny else round(REQUESTS_PER_SECOND * ctx.seconds)
        sequence = _sequence(entries, n_requests, ctx.seed)
    with tracer.span("bench.references"):
        references = _references(ctx, entries, state.store_dir)

    hits = Timing("serve hit")
    misses = Timing("serve miss")
    traced_hits = Timing("serve hit, traced")
    overhead_pairs: list[float] = []
    served: dict[str, set[str]] = {}
    predicted: dict[str, str] = {}
    all_ops = 0.0
    program = layers.program_spans()
    previous_hit = None  # the untraced hit just before a traced request
    for position, (index, kind) in enumerate(sequence):
        entry = entries[index]
        # A traced run alternates untraced and traced requests; a traced
        # one spans the client's submit and wait and the server thread's
        # store calls.
        traced_op = ctx.traced and position % 2 == 1
        inner = tracer.span if traced_op else (lambda name: nullcontext())
        mode = tracer.wrapped(program) if traced_op else tracer.untraced()
        statuses = []
        with mode, tracer.span("op.request"):
            start = time.perf_counter()
            with inner("serve.submit"):
                key, status = client.submit(entry.locked.circuit, entry.config)
            statuses.append(status)
            if kind == "coalesced":
                with inner("serve.submit"):
                    statuses.append(client.submit(entry.locked.circuit, entry.config)[1])
            with inner("serve.wait"):
                result = client.result(key, timeout=120)
            seconds = time.perf_counter() - start
        all_ops += seconds
        outcome.op()
        if statuses[0] != "hit":
            misses.add(seconds)
            previous_hit = None
        elif traced_op:
            traced_hits.add(seconds)
            if previous_hit is not None:
                overhead_pairs.append(seconds - previous_hit)
        else:
            hits.add(seconds)
            previous_hit = seconds
        with tracer.span("bench.check"):
            fingerprint = result_fingerprint(result)
            if ctx.corrupt and position == 0:
                fingerprint = "corrupted"
            served.setdefault(key, set()).add(fingerprint)
            predicted[key] = result.predicted_key
            outcome.check(
                key == entry.store_key
                and tuple(statuses) == EXPECTED_STATUS[kind],
                f"request {position} ({kind}) got status {statuses}",
            )
    stats = client.stats()
    peak_rss = max(own_rss_mb(), _stop_worker(state))

    with tracer.span("bench.check"):
        for entry in entries:
            outcome.check(
                served.get(entry.store_key) == {references[entry.store_key]},
                f"served artifact {entry.store_key[:12]} ({entry.kind}) differs "
                "from execute_job",
            )

    pooled = aggregate_metrics(
        [score_key(predicted[e.store_key], e.locked.key) for e in entries]
    )
    outcome.metrics.update(
        {
            "cold_op_s": misses.median,
            "warm_op_ms": hits.median * 1e3,
            "ops_per_s": len(sequence) / all_ops,
            "peak_rss_mb": peak_rss,
            "kpa": pooled.kpa,
            "accuracy": pooled.accuracy,
        }
    )
    answered = stats["memory_hits"] + stats["store_hits"]
    outcome.notes.append(
        f"{len(sequence)} requests over {len(entries)} distinct keys; "
        f"server: {stats}"
    )
    outcome.notes.append(
        f"serve: memory_hits {stats['memory_hits']}, store_hits {stats['store_hits']}, "
        f"coalesced {stats['coalesced']}, scheduled {stats['scheduled']}, "
        f"requeues {stats['requeues']}, hit_ratio "
        f"{answered / max(1, stats['requests']):.4f}, "
        f"worker_ready_s {state.worker_ready_s:.4f}"
    )
    outcome.notes.append(hits.describe(1e3, "ms"))
    outcome.notes.append(misses.describe(1.0, "s"))
    if not ctx.traced:
        return

    first_miss = next(e for e in entries if e.kind == "miss")
    staged = staged_attack(first_miss.locked.circuit, first_miss.config, tracer)
    layers.count_attack(tracer, staged)
    staged_store = ArtifactStore(ctx.work / "staged-store")
    decoded = store_roundtrip(
        first_miss.locked.circuit, first_miss.config, staged.result,
        staged_store, tracer,
    )
    with tracer.span("bench.check"):
        expected = references[first_miss.store_key]
        outcome.check(
            result_fingerprint(staged.result) == expected
            and result_fingerprint(decoded) == expected,
            "stage-by-stage attack differs from the served artifact",
        )
    with tracer.span("bench.replica_epoch"):
        replica_epoch(staged.trainer, tracer)
    stores = [state.server.store.stats, staged_store.stats]
    outcome.metrics.update(layers.store_counters(*stores))
    outcome.notes.append(layers.store_note(*stores))
    outcome.notes.append(traced_hits.describe(1e3, "ms"))
    if overhead_pairs:
        outcome.notes.append(
            f"tracing overhead per hit: {statistics.median(overhead_pairs) * 1e3:.4f} ms "
            f"(paired median over {len(overhead_pairs)} pairs; negative when "
            "below the host's noise)"
        )
