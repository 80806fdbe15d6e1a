"""Fault injection and chaos drills: break the machinery, not the science.

Walks the robustness layer bottom-up:

1. a :class:`~repro.faults.RetryPolicy` absorbing a transient fault with
   deterministic exponential backoff;
2. a :class:`~repro.faults.FaultPlan` arming the artifact store's
   ``write_enospc`` site — the injected "disk full" is retried away and
   the store publishes nothing partial;
3. a full ``repro chaos`` drill: the smoke grid under the ``enospc``
   plan, gated on the figure table being bit-identical to a clean run.

The same drills run distributed topologies from the CLI::

    python -m repro.cli chaos --plan worker-crash --plan serve-flaky

::

    python examples/chaos_drill.py
"""

import errno
import tempfile

import numpy as np

from repro import faults
from repro.faults import FaultPlan, FaultSite, RetryPolicy
from repro.faults.chaos import run_chaos
from repro.store import ArtifactStore


def main() -> None:
    print("=== 1. RetryPolicy: deterministic backoff ===")
    policy = RetryPolicy(max_attempts=4, base_delay=0.05, jitter=0.25, seed=0)
    for attempt in range(1, 4):
        print(f"  attempt {attempt} failed -> sleep {policy.delay(attempt):.3f}s"
              " (same seed, same schedule, every run)")

    attempts = []

    def flaky() -> str:
        attempts.append(1)
        if len(attempts) < 3:
            raise OSError(errno.ENOSPC, "disk full (transient)")
        return "ok"

    fast = RetryPolicy(max_attempts=4, base_delay=0.0, jitter=0)
    print(f"  policy.call(flaky) -> {fast.call(flaky)!r} "
          f"after {len(attempts)} attempts")

    print("\n=== 2. FaultPlan: injected ENOSPC on the store write path ===")
    plan = FaultPlan(
        "demo", sites=(FaultSite("store.write_enospc", times=2),), seed=0
    )
    with tempfile.TemporaryDirectory() as root:
        store = ArtifactStore(root, retry=fast)
        faults.activate(plan)
        try:
            store.put("locks", "ab" * 32, {"x": np.arange(8)})
        finally:
            faults.deactivate()
        print(f"  store survived: {store.stats.summary()}")
        print(f"  verify after injected faults: "
              f"{store.verify() or 'clean'}")

    print("\n=== 3. Full drill: smoke grid under the enospc plan ===")
    (outcome,) = run_chaos(["enospc"], seed=0, log=lambda line: None)
    print(outcome.summary())
    print("  (records and rendered table bit-identical to a clean run — "
        "recovery is invisible in the science)")


if __name__ == "__main__":
    main()
