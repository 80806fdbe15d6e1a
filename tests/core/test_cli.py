"""Tests for the command-line interface (driven in-process)."""

import pytest

from repro.cli import main
from repro.netlist import load_bench


def test_generate_and_lock_and_unlock_roundtrip(tmp_path, capsys):
    base = tmp_path / "c1355.bench"
    locked = tmp_path / "locked.bench"
    unlocked = tmp_path / "unlocked.bench"

    assert main(["generate", "c1355", "--scale", "0.1", "-o", str(base)]) == 0
    circuit, key = load_bench(base)
    assert key is None
    assert len(circuit) >= 16

    assert main([
        "lock", str(base), "--scheme", "dmux", "--key-size", "8",
        "--seed", "1", "-o", str(locked),
    ]) == 0
    locked_circuit, stored_key = load_bench(locked)
    assert stored_key is not None and len(stored_key) == 8
    assert len(locked_circuit) > len(circuit)

    assert main(["unlock", str(locked), "-o", str(unlocked)]) == 0
    assert main(["hd", str(base), str(unlocked), "--patterns", "1024"]) == 0
    out = capsys.readouterr().out
    assert "HD = 0.0000%" in out


def test_saam_and_scope_commands(tmp_path, capsys):
    base = tmp_path / "b.bench"
    locked = tmp_path / "l.bench"
    main(["generate", "c1908", "--scale", "0.1", "-o", str(base)])
    main([
        "lock", str(base), "--scheme", "naive-mux", "--key-size", "6",
        "-o", str(locked),
    ])
    assert main(["saam", str(locked)]) == 0
    assert main(["scope", str(locked)]) == 0
    out = capsys.readouterr().out
    assert "SAAM key guess:" in out
    assert "SCOPE key guess:" in out


def test_attack_command_smoke(tmp_path, capsys):
    base = tmp_path / "b.bench"
    locked = tmp_path / "l.bench"
    main(["generate", "c1355", "--scale", "0.12", "-o", str(base)])
    main(["lock", str(base), "--key-size", "6", "-o", str(locked)])
    assert main([
        "attack", str(locked), "--h", "1", "--epochs", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "predicted key:" in out
    assert "AC=" in out  # stored key enables scoring


@pytest.mark.parametrize(
    "argv, knob",
    [
        (["--epochs", "-2"], "epochs"),
        (["--h", "0"], "h"),
        (["--optimizer", "kfac", "--kfac-inv-every", "0"], "kfac_inv_every"),
    ],
)
def test_attack_rejects_out_of_range_knobs(tmp_path, capsys, argv, knob):
    # The netlist does not exist: the config is rejected before it is read.
    assert main(["attack", str(tmp_path / "missing.bench"), *argv]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()]
    assert err.startswith(f"error: {knob} must be >= 1")


def test_unlock_without_key_fails(tmp_path, capsys):
    base = tmp_path / "b.bench"
    main(["generate", "c17", "-o", str(base)])
    assert main(["unlock", str(base), "-o", str(tmp_path / "u.bench")]) == 2


def test_unknown_benchmark_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["generate", "c9999", "-o", str(tmp_path / "x.bench")])


def test_figures_command_smoke(capsys):
    assert main([
        "figures", "--scale", "smoke", "--figures", "7", "9",
        "--jobs", "0", "--seed", "0",
    ]) == 0
    out = capsys.readouterr().out
    assert "Fig. 7" in out
    assert "Fig. 9" in out
    assert "Fig. 8" not in out  # only the requested figures run
    # The shared runner reports its cache counters.
    assert "runner: cells=" in out


def test_figures_command_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        main(["figures", "--figures", "3"])


def test_attack_command_store_roundtrip(tmp_path, capsys):
    base = tmp_path / "b.bench"
    locked = tmp_path / "l.bench"
    store = tmp_path / "store"
    main(["generate", "c1355", "--scale", "0.12", "-o", str(base)])
    main(["lock", str(base), "--key-size", "6", "-o", str(locked)])
    capsys.readouterr()  # drain the generate/lock chatter
    args = ["attack", str(locked), "--h", "1", "--epochs", "2",
            "--store", str(store)]
    assert main(args) == 0
    cold = capsys.readouterr().out
    assert main(args) == 0  # warm: rematerialized, not retrained
    warm = capsys.readouterr().out
    assert cold.splitlines()[0] == warm.splitlines()[0]  # same predicted key
    from repro.store import ArtifactStore

    assert len(list(ArtifactStore(store).entries())) == 1


def test_figures_command_with_store(tmp_path, capsys):
    store = tmp_path / "store"
    args = ["figures", "--scale", "smoke", "--figures", "7",
            "--jobs", "0", "--store", str(store)]
    assert main(args) == 0
    cold = capsys.readouterr().out
    assert f"store={store}" in cold
    assert "store: " in cold  # hit/miss/bytes counters are reported
    assert main(args) == 0
    warm = capsys.readouterr().out
    assert "locks=0" in warm and "attacks=0" in warm
    assert "+2 store" in warm  # both artifacts rematerialized from disk


def test_cache_command_requires_a_store(monkeypatch, capsys):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    assert main(["cache", "stats"]) == 2
    assert "no artifact store" in capsys.readouterr().err


def test_cache_ls_stats_gc_verify(tmp_path, capsys, monkeypatch):
    from repro.store import ArtifactStore

    store_dir = tmp_path / "store"
    store = ArtifactStore(store_dir)
    store.put("locks", "ab" * 32, {"x": 1})
    bad = store.put("attacks", "cd" * 32, {"y": 2})

    assert main(["cache", "--store", str(store_dir), "ls"]) == 0
    out = capsys.readouterr().out
    assert "locks" in out and "attacks" in out and "2 artifact(s)" in out

    # stats honours REPRO_STORE when --store is omitted
    monkeypatch.setenv("REPRO_STORE", str(store_dir))
    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert "total" in out and "2 artifact(s)" in out

    bad.write_bytes(b"junk")
    assert main(["cache", "--store", str(store_dir), "verify"]) == 1
    out = capsys.readouterr().out
    assert "corrupt:" in out and "1 corrupt" in out
    assert main(["cache", "--store", str(store_dir), "verify", "--delete"]) == 1
    capsys.readouterr()
    assert main(["cache", "--store", str(store_dir), "verify"]) == 0
    capsys.readouterr()

    import os
    import time

    survivor = store.path_for("locks", "ab" * 32)
    stamp = time.time() - 5 * 86400
    os.utime(survivor, (stamp, stamp))
    assert main(["cache", "--store", str(store_dir), "gc",
                 "--keep-days", "1"]) == 0
    out = capsys.readouterr().out
    assert "removed 1 file(s)" in out
    assert not survivor.exists()
