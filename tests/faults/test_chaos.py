"""The `repro chaos` drill engine (cheap paths; CI runs the full drills)."""

import pytest

from repro.experiments import SMOKE_SCALE
from repro.faults import NAMED_PLANS
from repro.faults.chaos import DRILL_TOPOLOGY, DrillOutcome, run_chaos


def test_every_named_plan_has_a_drill_topology():
    assert set(DRILL_TOPOLOGY) == set(NAMED_PLANS)
    assert set(DRILL_TOPOLOGY.values()) <= {"spool", "serve", "local"}
    assert DRILL_TOPOLOGY["serve-flaky"] == "serve"


def test_unknown_plan_is_rejected_before_any_work():
    with pytest.raises(ValueError, match="unknown chaos plan"):
        run_chaos(["chaos-monkey"], scale=SMOKE_SCALE, log=lambda *a: None)


def test_outcome_summary_shape():
    outcome = DrillOutcome(plan="enospc", topology="local")
    outcome.injected = {"store.write_enospc": 2}
    outcome.write_retries = 2
    assert outcome.ok
    assert "PASS" in outcome.summary()
    assert "write-retries=2" in outcome.summary()
    outcome.failures.append("tables diverged")
    assert not outcome.ok
    assert "FAIL" in outcome.summary()
    assert "tables diverged" in outcome.summary()


def test_enospc_drill_end_to_end(tmp_path):
    """The cheapest real drill: injected ENOSPC on the in-process store
    path, absorbed by the retry policy, bit-identical tables."""
    lines = []
    (outcome,) = run_chaos(
        ["enospc"], scale=SMOKE_SCALE, seed=0, log=lines.append
    )
    assert outcome.ok, outcome.summary()
    assert outcome.fingerprints_match and outcome.tables_match
    assert outcome.injected.get("store.write_enospc", 0) >= 1
    assert outcome.write_retries >= 1
    assert any("PASS" in line for line in lines)
