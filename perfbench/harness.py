"""Shared machinery of the repo benchmark.

* **Checkout layout** — the benchmark runs from the root of a checkout
  and imports ``repro`` from that checkout's ``src/`` only; scratch
  files live under ``.perfbench_work/`` inside the checkout and are
  removed when the run ends.
* **Timings** — a timing is reported as its median plus the highest
  percentile that has at least ten samples beyond it, with the count.
* **Tracing** — :class:`Tracer` records nested spans (monotonic ns,
  parent id, thread or process) around calls the benchmark makes into
  the program, or around program functions it wraps for the duration of
  a traced phase, in this process, its forked pool children and child
  interpreters.  Span coverage counts only spans named after a program
  layer.  Nothing in ``src/`` is modified.
* **Memory** — ``peak_rss_mb`` counts the program's own processes:
  :func:`own_rss_mb`, :func:`children_rss_mb`, or one child's peak from
  ``os.wait4`` (:func:`reap`, :func:`run_child`).
* **Result line** — :func:`emit_result` prints one JSON object,
  ``{correct, attempted, failed, metrics}``, as the last line of
  standard output.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SPEC_PATH = ROOT / "BENCHMARK.json"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, bad spec)."""


# ---------------------------------------------------------------------------
# Checkout and environment
# ---------------------------------------------------------------------------
def bootstrap() -> None:
    """Make ``repro`` importable from this checkout's ``src/`` — only.

    Every ``REPRO_*`` variable is dropped first: an ambient store,
    job count, fault plan or BLAS override would change what the
    workloads measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {SRC}")
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names and units every run prints."""
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC_PATH}: {exc}") from None


def child_env(work: Path) -> dict:
    """Environment of every subprocess: this checkout's ``src`` first,
    scratch files inside the run's work directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(work)
    return env


@contextmanager
def work_dir(tag: str):
    """A fresh scratch directory inside the checkout, removed on exit."""
    path = WORK_ROOT / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass


def compile_sources() -> None:
    """Byte-compile ``src/`` once, so no timed region pays for it."""
    import compileall

    compileall.compile_dir(str(SRC), quiet=1)


# ---------------------------------------------------------------------------
# Host and code stamp
# ---------------------------------------------------------------------------
def host_stamp() -> dict:
    """Where a result was measured; compare only results of one host."""
    import numpy
    import scipy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        # repro pins OpenBLAS to one thread at import unless told
        # otherwise; the benchmark scrubs the override, so this is it.
        "blas_threads": 1,
    }


def code_stamp() -> dict:
    """Commit (when the checkout is a git repository), a digest of
    ``src/`` and its line count (``src_lines``)."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "commit": _git_head(),
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
    }


def _git_head() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        return (ROOT / ".git" / ref[5:]).read_text().strip()
    except OSError:
        return None


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
#: Candidate tail percentiles, highest first.
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class Timing:
    """Samples of one timed operation, in seconds."""

    name: str
    samples: list[float] = field(default_factory=list)

    def add(self, seconds: float) -> None:
        self.samples.append(seconds)

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    def tail(self) -> tuple[float, float]:
        """``(percentile, value)``: the highest percentile with at least
        ten samples beyond it (the median when there are fewer than 20)."""
        ordered = sorted(self.samples)
        n = len(ordered)
        for q in _TAILS:
            if n * (1 - q / 100.0) >= 10 or q == 50.0:
                rank = max(1, math.ceil(q / 100.0 * n))
                return q, ordered[rank - 1]
        raise AssertionError("unreachable")

    def describe(self, scale: float = 1.0, unit: str = "s") -> str:
        q, value = self.tail()
        return (
            f"{self.name}: p50 {self.median * scale:.4f}{unit} "
            f"p{q:g} {value * scale:.4f}{unit} (n={self.n})"
        )


#: Calibration time of the reference host speed (see :class:`HostSpeed`).
REFERENCE_CALIBRATION_S = 0.010


def _calibration() -> float:
    """Seconds for a fixed mix of interpreter and elementwise numpy work
    (no BLAS, so no thread setting of the program can move it)."""
    import numpy as np

    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(40000):
        table[i % 1009] = table.get(i % 1009, 0) + i
    values = np.arange(100_000, dtype=np.float64)
    for _ in range(8):
        values = np.sqrt(values * 1.0001 + 1.0)
    return time.perf_counter() - start


class HostSpeed:
    """How fast the host runs this process's single-threaded work.

    The host is a shared VM whose vCPUs switch between a fast and a slow
    state (the same CPU time, so not steal) every fraction of a second,
    often one vCPU fast while the other is slow, and the share of slow
    time changes from minute to minute: it moved the median of an
    in-process warm operation by up to 1.6x between runs.  A fixed
    calibration loop sampled between those operations (never during
    one) tracks that share: over 15 s windows its median correlated 0.95
    with an in-process attack's median.  A timing scaled by
    :attr:`factor` reads as at a host where one calibration takes
    ``REFERENCE_CALIBRATION_S``.  Only single-threaded work in this
    process, calibrated among its own operations, is scaled: work that
    keeps both vCPUs busy averages the two states itself, and a child
    process may run on the other vCPU than the calibration (scaling
    cli-cold's processes widened their spread).  A disabled instance
    (traced runs) samples nothing.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.samples: list[float] = []

    def sample(self, count: int = 1) -> None:
        if self.enabled:
            self.samples.extend(_calibration() for _ in range(count))

    @property
    def factor(self) -> float:
        if not self.samples:
            return 1.0
        return REFERENCE_CALIBRATION_S / statistics.median(self.samples)

    def note(self) -> str:
        return (
            f"host speed: calibration p50 {statistics.median(self.samples) * 1e3:.3f} ms "
            f"(n={len(self.samples)}); warm timings scaled by {self.factor:.4f}"
        )


def paired_overhead_ms(untraced: Timing, traced: Timing) -> float:
    """Tracing overhead of one operation: the median difference of
    adjacent untraced/traced pairs, which cancels most of the host's
    drift.  It can come out negative when the overhead is below the
    host's noise."""
    pairs = zip(untraced.samples, traced.samples)
    return statistics.median(t - u for u, t in pairs) * 1e3


def own_rss_mb() -> float:
    """Largest resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mb() -> float:
    """Largest resident set of any child this process has waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def reap(proc: subprocess.Popen, timeout: float) -> float:
    """Wait for *proc* (killing it after *timeout* seconds) and return
    its own peak RSS in MB, read from ``os.wait4``."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0  # KiB on Linux


@dataclass
class ChildRun:
    seconds: float
    returncode: int
    stdout: str
    stderr: str
    rss_mb: float
    pid: int
    start_ns: int  # just before the spawn
    end_ns: int  # just after the reap


def run_child(command: list[str], env: dict, work: Path, timeout: float) -> ChildRun:
    """Run *command* to completion: wall-clock, exit code, output and
    the child's own peak RSS.  Output goes through files in *work*, so
    nothing but the child itself is waited for."""
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter_ns()
        proc = subprocess.Popen(command, env=env, stdout=out, stderr=err)
        rss = reap(proc, timeout)
        end = time.perf_counter_ns()
    return ChildRun(
        (end - start) / 1e9, proc.returncode, out_path.read_text(),
        err_path.read_text(), rss, proc.pid, start, end,
    )


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------
#: First name component of spans that time a call into the program.
#: Coverage counts only these: ``op.*`` spans wrap whole operations and
#: ``bench.*`` spans time the benchmark's own work (inputs, checks).
LAYERS = frozenset(
    {
        "import", "cli", "netlist", "benchgen", "locking", "linkpred", "gnn",
        "nn", "core", "store", "runner", "serve",
    }
)

#: Environment variable naming the directory a child process writes its
#: spans to (see :meth:`Tracer.dump`).
SPANS_ENV = "PERFBENCH_SPANS"


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    thread: int  # thread ident; minus the pid for spans of another process

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    @property
    def layer(self) -> bool:
        return self.name.split(".", 1)[0] in LAYERS


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing.

    Spans nest per thread.  :meth:`wrapped` replaces module or class
    attributes by spanning wrappers for one phase, which is how the
    benchmark sees inside calls it does not make itself (the runner's
    store reads, the server thread's lookups, ``run_muxlink``'s
    stages).  A process forked while a phase is wrapped (a pool child)
    appends its spans to ``spool/spans-<pid>.jsonl``; other child
    processes write the same files with :meth:`dump`; :meth:`merge_spool`
    reads them back.  :meth:`untraced` runs an operation with recording
    off and leaves its interval out of the traced window.
    """

    def __init__(self, enabled: bool, spool: Path | None = None) -> None:
        self.enabled = enabled
        self.spool = spool
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.excluded: list[tuple[int, int]] = []
        self.paused = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._sink = None  # span file of a forked child
        if enabled and spool is not None:
            os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._sink = self.spool / f"spans-{os.getpid()}.jsonl"

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        if not self.enabled or self.paused:
            yield
            return
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self._record(Span(span_id, parent, name, start, end, threading.get_ident()))

    def _record(self, span: Span) -> None:
        if self._sink is not None:  # forked child: the parent reads the file
            with open(self._sink, "a") as handle:
                handle.write(json.dumps(_span_json(span)) + "\n")
            return
        with self._lock:
            self.spans.append(span)

    def add_span(self, name: str, start_ns: int, end_ns: int, thread: int) -> None:
        """Record a span measured by other means (another process's
        start or exit, seen from this one)."""
        if self.enabled and end_ns > start_ns:
            self._record(Span(next(self._ids), None, name, start_ns, end_ns, thread))

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    @contextmanager
    def wrapped(self, targets, active: bool = True):
        """Run every call of ``owner.attr`` inside a span named *name*,
        for each ``(owner, attr, name)`` of *targets*, until the block
        ends (nothing happens when *active* is false or the tracer is
        disabled)."""
        patches = []
        if active and self.enabled:
            for owner, attr, name in targets:
                original = getattr(owner, attr)
                setattr(owner, attr, self._spanning(original, name))
                patches.append((owner, attr, original))
        try:
            yield
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def _spanning(self, original, name: str):
        tracer = self

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        return spanned

    @contextmanager
    def untraced(self):
        """Record nothing for the block and leave its interval out of
        the traced window (the untraced half of an overhead pair)."""
        if not self.enabled:
            yield
            return
        self.paused = True
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.excluded.append((start, time.perf_counter_ns()))
            self.paused = False

    def dump(self) -> None:
        """Write this process's spans to the spool named by
        ``$PERFBENCH_SPANS`` (for a child process the parent merges)."""
        spool = os.environ.get(SPANS_ENV)
        if not spool:
            return
        path = Path(spool) / f"spans-{os.getpid()}.jsonl"
        with open(path, "a") as handle:
            for span in self.spans:
                handle.write(json.dumps(_span_json(span)) + "\n")

    def merge_spool(self) -> None:
        """Merge (and delete) every span file in the spool."""
        if self.spool is None or not self.spool.is_dir():
            return
        for path in sorted(self.spool.glob("spans-*.jsonl")):
            pid = int(path.stem.split("-", 1)[1])
            raws = [json.loads(line) for line in path.read_text().splitlines()]
            remap = {raw["id"]: next(self._ids) for raw in raws}
            self.spans.extend(
                Span(
                    remap[raw["id"]],
                    remap.get(raw["parent"]),
                    raw["name"],
                    raw["start"],  # perf_counter is one system-wide clock
                    raw["end"],
                    -pid,
                )
                for raw in raws
            )
            path.unlink()

    # -- aggregates ---------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def median(self, name: str) -> float:
        values = self.durations(name)
        return statistics.median(values) if values else 0.0

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, total s, self s)``; self excludes children."""
        children: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                children[s.parent] = children.get(s.parent, 0.0) + s.seconds
        table: dict[str, list] = {}
        for s in self.spans:
            row = table.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.seconds
            row[2] += max(0.0, s.seconds - children.get(s.span_id, 0.0))
        return {k: (v[0], v[1], v[2]) for k, v in table.items()}

    def coverage(self, start_ns: int, end_ns: int) -> tuple[float, float, float]:
        """``(share, unattributed s, window s)`` of the traced window.

        The window is ``[start_ns, end_ns)`` minus the :meth:`untraced`
        blocks.  A moment of it is covered when a layer span (see
        :data:`LAYERS`) of any thread or process is open; ``op.*`` and
        ``bench.*`` spans cover nothing.
        """
        window = _subtract([(start_ns, end_ns)], sorted(self.excluded))
        covered = _intersect(
            window, _union((s.start_ns, s.end_ns) for s in self.spans if s.layer)
        )
        window_ns = _length(window)
        covered_ns = _length(covered)
        return (
            covered_ns / max(1, window_ns),
            (window_ns - covered_ns) / 1e9,
            window_ns / 1e9,
        )

    def table(self, window_s: float) -> str:
        rows = sorted(self.self_times().items(), key=lambda kv: -kv[1][2])
        lines = [
            f"{'span':<32}{'calls':>7}{'total s':>10}{'self s':>10}"
            f"{'p50 ms':>10}{'self %':>8}"
        ]
        for name, (calls, total, own) in rows:
            lines.append(
                f"{name:<32}{calls:>7}{total:>10.3f}{own:>10.3f}"
                f"{self.median(name) * 1e3:>10.2f}"
                f"{100.0 * own / max(window_s, 1e-9):>8.1f}"
            )
        return "\n".join(lines)


def _span_json(span: Span) -> dict:
    return {
        "id": span.span_id, "parent": span.parent, "name": span.name,
        "start": span.start_ns, "end": span.end_ns,
    }


def _union(intervals) -> list[tuple[int, int]]:
    merged: list[list[int]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def _intersect(a, b) -> list[tuple[int, int]]:
    """Intersection of two sorted, disjoint interval lists."""
    out, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if lo < hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _subtract(a, b) -> list[tuple[int, int]]:
    """*a* minus *b* (both sorted, disjoint interval lists)."""
    out = []
    for lo, hi in a:
        for blo, bhi in b:
            if bhi <= lo or blo >= hi:
                continue
            if blo > lo:
                out.append((lo, blo))
            lo = max(lo, bhi)
        if lo < hi:
            out.append((lo, hi))
    return out


def _length(intervals) -> int:
    return sum(hi - lo for lo, hi in intervals)


# ---------------------------------------------------------------------------
# Outcome and result line
# ---------------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: int = 0
    check_failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def op(self) -> None:
        """Count one attempted operation."""
        self.attempted += 1

    def check(self, ok: bool, what: str) -> None:
        """Record one output check; a failure also fails an operation."""
        self.checks += 1
        if not ok:
            self.check_failures.append(what)
            self.failed += 1

    @property
    def correct(self) -> bool:
        return not self.check_failures and self.failed == 0


def emit_result(outcome: Outcome, spec: dict, traced: bool) -> bool:
    """Print the human summary, then the JSON result line.

    Returns whether the outcome is correct.  Every metric the spec
    lists for this mode must be present, with the spec's unit.
    """
    section = spec["per_layer"] if traced else spec["end_to_end"]
    missing = [m["name"] for m in section if m["name"] not in outcome.metrics]
    if missing:
        raise BenchError(f"workload did not measure {missing}")
    for note in outcome.notes:
        print(note)
    for failure in outcome.check_failures:
        print(f"CHECK FAILED: {failure}")
    error_rate = outcome.failed / max(1, outcome.attempted)
    print(
        f"error_rate: {error_rate:.4f} "
        f"({outcome.failed} failed of {outcome.attempted} attempted, "
        f"{outcome.checks} output checks)"
    )
    metrics = {
        m["name"]: {"value": float(outcome.metrics[m["name"]]), "unit": m["unit"]}
        for m in section
    }
    for name, entry in metrics.items():
        print(f"  {name:<34} {entry['value']:>16.6f} {entry['unit']}")
    line = {
        "correct": outcome.correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }
    sys.stdout.flush()
    print(json.dumps(line), flush=True)
    return outcome.correct
