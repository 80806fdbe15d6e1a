"""K-FAC preconditioner tests: curvature tap, collector reduction, factor
EMA/inversion, in-place preconditioning (including the conv gradient
layout round trip) and state persistence."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    CurvatureCollector,
    KFAC,
    Tensor,
    collecting,
    linear,
    record,
    tap_active,
)
from repro.nn.curvature import (
    _block_dims,
    _store_weight_grad,
    _weight_grad_2d,
)
from repro.nn.layers import Linear, Module


class TwoLayer(Module):
    """Linear -> relu -> Linear, enough structure for block discovery."""

    def __init__(self, seed=0):
        rng = np.random.default_rng(seed)
        self.fc1 = Linear(5, 7, rng)
        self.fc2 = Linear(7, 2, rng)

    def __call__(self, x):
        return self.fc2(self.fc1(x).relu())


def make_dgcnn(seed=0):
    from repro.gnn import DGCNN

    return DGCNN(in_features=8, k=10, seed=seed)


# ---------------------------------------------------------------------------
# tap mechanics
# ---------------------------------------------------------------------------
def test_tap_is_inactive_by_default_and_record_is_a_noop():
    assert not tap_active()
    w = Tensor(np.zeros((3, 2)), requires_grad=True)
    record(w, np.ones((4, 3)), np.ones((4, 2)))  # must not raise


def test_collecting_installs_and_removes_the_tap():
    collector = CurvatureCollector(TwoLayer())
    with collecting(collector):
        assert tap_active()
    assert not tap_active()


def test_nested_collecting_raises():
    collector = CurvatureCollector(TwoLayer())
    with collecting(collector):
        with pytest.raises(RuntimeError, match="already active"):
            with collecting(collector):
                pass


def test_unknown_weights_are_ignored():
    collector = CurvatureCollector(TwoLayer())
    stranger = Tensor(np.zeros((3, 2)), requires_grad=True)
    with collecting(collector):
        record(stranger, np.ones((4, 3)), np.ones((4, 2)))
    assert all(c is None for c in collector.harvest())


# ---------------------------------------------------------------------------
# collector reduction
# ---------------------------------------------------------------------------
def test_collector_discovers_blocks_in_parameter_order():
    model = TwoLayer()
    collector = CurvatureCollector(model)
    assert collector.n_blocks == 2
    assert collector.pairs[0][0] is model.fc1.weight
    assert collector.pairs[0][1] is model.fc1.bias
    assert collector.pairs[1][0] is model.fc2.weight


def test_collector_discovers_all_dgcnn_blocks():
    model = make_dgcnn()
    collector = CurvatureCollector(model)
    # 4 graph convs (no bias) + conv1 + conv2 + fc1 + fc2 (with bias):
    # every trainable parameter belongs to exactly one block.
    assert collector.n_blocks == 8
    n_params = sum(
        1 + (b is not None) for _, b in collector.pairs
    )
    assert n_params == len(model.parameters())


def test_record_reduces_to_bias_augmented_second_moments():
    model = TwoLayer()
    collector = CurvatureCollector(model)
    rng = np.random.default_rng(0)
    acts = rng.normal(size=(6, 5))
    gout = rng.normal(size=(6, 7))
    with collecting(collector):
        record(model.fc1.weight, acts, gout, model.fc1.bias)
    a, g, rows = collector.harvest()[0]
    assert rows == 6
    augmented = np.hstack([acts, np.ones((6, 1))])
    np.testing.assert_allclose(a, augmented.T @ augmented)
    np.testing.assert_allclose(g, gout.T @ gout)


def test_repeated_records_sum():
    model = TwoLayer()
    collector = CurvatureCollector(model)
    rng = np.random.default_rng(1)
    halves = [
        (rng.normal(size=(3, 5)), rng.normal(size=(3, 7))) for _ in range(2)
    ]
    with collecting(collector):
        for acts, gout in halves:
            record(model.fc1.weight, acts, gout, model.fc1.bias)
    a, g, rows = collector.harvest()[0]
    assert rows == 6
    whole_acts = np.vstack([h[0] for h in halves])
    whole_gout = np.vstack([h[1] for h in halves])
    augmented = np.hstack([whole_acts, np.ones((6, 1))])
    np.testing.assert_allclose(a, augmented.T @ augmented)
    np.testing.assert_allclose(g, whole_gout.T @ whole_gout)
    # harvest resets
    assert all(c is None for c in collector.harvest())


def test_linear_backward_publishes_the_exact_gradient_factors():
    """actsᵀ @ grad_out from the tap == the weight gradient autograd puts
    on the parameter (the defining invariant of every publish site)."""
    model = TwoLayer()
    collector = CurvatureCollector(model)
    x = Tensor(np.random.default_rng(2).normal(size=(9, 5)))
    with collecting(collector):
        model(x).sum().backward()
    harvested = collector.harvest()
    assert all(c is not None for c in harvested)


def test_linear_functional_matches_composed_ops():
    rng = np.random.default_rng(3)
    w_data = rng.normal(size=(5, 4))
    b_data = rng.normal(size=4)
    x_data = rng.normal(size=(7, 5))

    x1 = Tensor(x_data.copy())
    w1 = Tensor(w_data.copy(), requires_grad=True)
    b1 = Tensor(b_data.copy(), requires_grad=True)
    out1 = linear(x1, w1, b1)
    out1.sum().backward()

    x2 = Tensor(x_data.copy())
    w2 = Tensor(w_data.copy(), requires_grad=True)
    b2 = Tensor(b_data.copy(), requires_grad=True)
    out2 = x2 @ w2 + b2
    out2.sum().backward()

    np.testing.assert_array_equal(out1.data, out2.data)
    np.testing.assert_array_equal(w1.grad, w2.grad)
    np.testing.assert_array_equal(b1.grad, b2.grad)


def test_linear_rejects_non_2d_input():
    w = Tensor(np.zeros((3, 2)), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(ValueError):
        linear(Tensor(np.zeros(3)), w, b)


# ---------------------------------------------------------------------------
# conv gradient layout
# ---------------------------------------------------------------------------
def test_conv_effective_grad_layout_round_trips():
    w = Tensor(np.zeros((4, 3, 5)), requires_grad=True)  # (c_out, c_in, k)
    w.grad = np.random.default_rng(4).normal(size=(4, 3, 5))
    original = w.grad.copy()
    eff = _weight_grad_2d(w)
    assert eff.shape == (15, 4)
    _store_weight_grad(w, np.array(eff))
    np.testing.assert_array_equal(w.grad, original)


def test_block_dims():
    w2 = Tensor(np.zeros((5, 7)), requires_grad=True)
    w3 = Tensor(np.zeros((4, 3, 5)), requires_grad=True)
    b = Tensor(np.zeros(7), requires_grad=True)
    assert _block_dims(w2, None) == (5, 7)
    assert _block_dims(w2, b) == (6, 7)
    assert _block_dims(w3, None) == (15, 4)
    with pytest.raises(ValueError):
        _block_dims(Tensor(np.zeros(3), requires_grad=True), None)


# ---------------------------------------------------------------------------
# KFAC stepping
# ---------------------------------------------------------------------------
def kfac_step(model, preconditioner, x, rng):
    model.zero_grad()
    with preconditioner.collecting():
        (model(x) * Tensor(rng.normal(size=(x.data.shape[0], 2)))).sum().backward()
    preconditioner.step()


def test_kfac_preconditions_in_place_and_degrades_gracefully():
    model = TwoLayer()
    preconditioner = KFAC(model, damping=1e-2, inv_every=1)
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(8, 5)))

    model.zero_grad()
    with preconditioner.collecting():
        (model(x) * Tensor(rng.normal(size=(8, 2)))).sum().backward()
    raw = [p.grad.copy() for p in model.parameters()]
    preconditioner.step()
    pre = [p.grad.copy() for p in model.parameters()]
    # Every gradient was rewritten (same shapes, different values).
    for r, p in zip(raw, pre):
        assert r.shape == p.shape
        assert not np.array_equal(r, p)

    # A step with no statistics collected keeps the stale inverses but
    # still runs (nothing to harvest, gradients preconditioned as-is).
    model.zero_grad()
    (model(x) * Tensor(rng.normal(size=(8, 2)))).sum().backward()
    preconditioner.step()


def test_kfac_with_huge_damping_approaches_scaled_identity():
    """λ → ∞: (A + √λπ I)⁻¹ ∝ I, so preconditioning only rescales —
    direction is preserved."""
    model = TwoLayer()
    preconditioner = KFAC(model, damping=1e12, inv_every=1)
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(8, 5)))
    model.zero_grad()
    with preconditioner.collecting():
        (model(x) * Tensor(rng.normal(size=(8, 2)))).sum().backward()
    raw = model.fc2.weight.grad.copy()
    preconditioner.step()
    pre = model.fc2.weight.grad
    cos = float(
        (raw.ravel() @ pre.ravel())
        / (np.linalg.norm(raw) * np.linalg.norm(pre))
    )
    assert cos == pytest.approx(1.0, abs=1e-6)


def test_kfac_validates_hyperparameters():
    model = TwoLayer()
    with pytest.raises(ValueError):
        KFAC(model, damping=0.0)
    with pytest.raises(ValueError):
        KFAC(model, ema_decay=1.0)
    with pytest.raises(ValueError):
        KFAC(model, inv_every=0)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------
def test_kfac_state_dict_round_trips_bit_exactly():
    model = TwoLayer(seed=1)
    source = KFAC(model, damping=1e-2, ema_decay=0.9, inv_every=2)
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(8, 5)))
    for _ in range(3):
        kfac_step(model, source, x, rng)
    state = source.state_dict()

    twin_model = TwoLayer(seed=1)
    twin = KFAC(twin_model, damping=1e-2, ema_decay=0.9, inv_every=2)
    twin.load_state_dict(state)
    assert twin.t == source.t
    assert twin._n_updates == source._n_updates
    for i in range(source.collector.n_blocks):
        np.testing.assert_array_equal(twin._A[i], source._A[i])
        np.testing.assert_array_equal(twin._G[i], source._G[i])
        np.testing.assert_array_equal(twin._A_inv[i], source._A_inv[i])
        np.testing.assert_array_equal(twin._G_inv[i], source._G_inv[i])

    # Continuation from restored state matches continuation in place:
    rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
    twin_model.load_state_dict(model.state_dict())
    kfac_step(model, source, x, rng_a)
    kfac_step(twin_model, twin, x, rng_b)
    for a, b in zip(model.parameters(), twin_model.parameters()):
        np.testing.assert_array_equal(a.grad, b.grad)


def test_kfac_load_rejects_wrong_block_count():
    source = KFAC(TwoLayer())
    state = source.state_dict()
    state["blocks"] = state["blocks"][:1]
    with pytest.raises(ValueError, match="curvature blocks"):
        KFAC(TwoLayer()).load_state_dict(state)


def test_kfac_load_rejects_wrong_block_shape():
    model = TwoLayer()
    source = KFAC(model, inv_every=1)
    rng = np.random.default_rng(9)
    kfac_step(model, source, Tensor(rng.normal(size=(8, 5))), rng)
    state = source.state_dict()
    state["blocks"][0]["A"] = np.eye(3)
    target = KFAC(TwoLayer(), inv_every=1)
    before = target.t
    with pytest.raises(ValueError, match="curvature block 0"):
        target.load_state_dict(state)
    # Validation happened before any assignment.
    assert target.t == before
    assert all(a is None for a in target._A)


# ---------------------------------------------------------------------------
# Adam state validation (satellite: clear errors instead of broadcast
# failures half-way through an arena write)
# ---------------------------------------------------------------------------
def test_adam_load_state_rejects_wrong_moment_count():
    model = TwoLayer()
    adam = Adam(model.parameters(), lr=1e-3)
    state = adam.state_dict()
    state["m"] = state["m"][:-1]
    with pytest.raises(ValueError, match="moment arrays"):
        adam.load_state_dict(state)


def test_adam_load_state_rejects_wrong_moment_shape_before_mutation():
    model = TwoLayer()
    adam = Adam(model.parameters(), lr=1e-3)
    state = adam.state_dict()
    for m in state["m"]:
        m += 1.0  # recognizable values that must NOT land
    state["v"][-1] = np.zeros((9, 9))
    with pytest.raises(ValueError, match="parameter 3"):
        adam.load_state_dict(state)
    for m in adam.state_dict()["m"]:
        np.testing.assert_array_equal(m, np.zeros_like(m))
