"""Layer-wise curvature capture and the K-FAC preconditioner.

K-FAC (Martens & Grosse, 2015) approximates each layer's Fisher block as
a Kronecker product ``A ⊗ G`` of the layer-input second moment ``A`` and
the grad-output second moment ``G``.  Both factors fall out of work the
network already does: every weight-bearing op here (``graph_conv``,
``conv1d`` / ``_conv1d_flat``, ``sortpool_conv``, ``linear``) computes
its weight gradient as ``actsᵀ @ grad_out`` for some effective 2-D
``acts`` / ``grad_out`` pair, so the backward closures publish exactly
that pair through a module-level *tap* (:func:`record`).  When no tap is
installed — every non-K-FAC run — the publish site is a single predicate
check and the backward pass is unchanged.

The tap consumes what it is handed **immediately**: several publishers
hand over views of :class:`~repro.nn.tensor.Workspace` resident buffers
that the next forward/backward overwrites, so :class:`CurvatureCollector`
reduces them to ``(d, d)`` second-moment contributions on the spot and
retains nothing batch-sized.

:class:`KFAC` owns a collector plus the EMA'd factors and their damped
exact inverses, and preconditions gradients *in place* between
``backward()`` and ``optimizer.step()`` — it composes with (rather than
replaces) the fused Adam update, which keeps Adam's per-parameter scale
normalization while the Kronecker inverses fix the gradient's direction.
All factor arithmetic runs in float64 regardless of the runtime dtype:
the matrices are tiny (the widest block of the DGCNN is the first dense
layer) and well-conditioned inverses are the whole point.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.nn.tensor import Tensor

__all__ = [
    "CurvatureCollector",
    "KFAC",
    "collecting",
    "record",
    "tap_active",
]

#: The installed tap, or ``None``.  Module-level (not thread-local) on
#: purpose: training is single-threaded per process, and the publish-site
#: check must stay one global load.
_TAP: "CurvatureCollector | None" = None


def tap_active() -> bool:
    """True when a collector is installed (publish sites guard on this)."""
    return _TAP is not None


def record(
    weight: Tensor,
    acts: np.ndarray,
    grad_out: np.ndarray,
    bias: Tensor | None = None,
) -> None:
    """Publish one layer's effective ``(acts, grad_out)`` pair to the tap.

    ``acts`` is ``(rows, d_in)``, ``grad_out`` is ``(rows, d_out)``, laid
    out so that ``actsᵀ @ grad_out`` equals the (2-D effective) weight
    gradient the publisher computes.  No-op without an installed tap;
    unknown weights (a tapped model inside a larger program) are ignored
    by the collector.
    """
    tap = _TAP
    if tap is not None:
        tap.record(weight, acts, grad_out, bias)


@contextmanager
def collecting(collector: "CurvatureCollector") -> Iterator["CurvatureCollector"]:
    """Install *collector* as the process-wide tap for the ``with`` body."""
    global _TAP
    if _TAP is not None:
        raise RuntimeError("a curvature tap is already active")
    _TAP = collector
    try:
        yield collector
    finally:
        _TAP = None


def _layer_pairs(module) -> list[tuple[Tensor, Tensor | None]]:
    """``(weight, bias-or-None)`` per weight-bearing layer, in
    :meth:`~repro.nn.layers.Module.parameters` discovery order."""
    from repro.nn.layers import Module

    pairs: list[tuple[Tensor, Tensor | None]] = []

    def walk(m) -> None:
        weight = getattr(m, "weight", None)
        if isinstance(weight, Tensor) and weight.requires_grad:
            bias = getattr(m, "bias", None)
            if not (isinstance(bias, Tensor) and bias.requires_grad):
                bias = None
            pairs.append((weight, bias))
        for value in m.__dict__.values():
            if isinstance(value, Module):
                walk(value)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        walk(item)

    walk(module)
    return pairs


def _block_dims(weight: Tensor, bias: Tensor | None) -> tuple[int, int]:
    """Factor dimensions ``(d_in, d_out)`` of one layer block.

    2-D weights are ``(d_in, d_out)`` (GraphConv / Linear); 3-D weights
    are conv kernels ``(c_out, c_in, k)`` whose effective input width is
    ``c_in * k``.  A bias augments the input factor by one homogeneous
    coordinate.
    """
    if weight.data.ndim == 3:
        c_out, c_in, k = weight.data.shape
        d_in, d_out = c_in * k, c_out
    elif weight.data.ndim == 2:
        d_in, d_out = weight.data.shape
    else:
        raise ValueError(f"unsupported weight rank {weight.data.ndim}")
    return d_in + (1 if bias is not None else 0), d_out


def _weight_grad_2d(weight: Tensor) -> np.ndarray:
    """View/copy of ``weight.grad`` as the effective ``(d_in, d_out)``.

    The conv mapping matches the publishers' im2col column order
    (tap-major, then input channel): ``conv1d`` builds its gradient as
    ``gw2.reshape(c_out, k, c_in).transpose(0, 2, 1)``, so the inverse is
    ``grad.transpose(0, 2, 1).reshape(c_out, -1).T``.
    """
    grad = weight.grad
    if grad.ndim == 3:
        c_out = grad.shape[0]
        return grad.transpose(0, 2, 1).reshape(c_out, -1).T
    return grad


def _store_weight_grad(weight: Tensor, eff: np.ndarray) -> None:
    """Write an effective ``(d_in, d_out)`` gradient back into ``weight.grad``."""
    grad = weight.grad
    if grad.ndim == 3:
        c_out, c_in, k = grad.shape
        grad[...] = eff.T.reshape(c_out, k, c_in).transpose(0, 2, 1)
    else:
        grad[...] = eff


class CurvatureCollector:
    """Accumulates raw per-layer second-moment contributions for a model.

    One collector belongs to one model: layers are discovered once, in
    parameter order, and publishers are matched by weight identity.  A
    :meth:`record` call reduces the published ``(acts, grad_out)`` pair
    straight to ``Aᵢ += actsᵀacts`` / ``Gᵢ += grad_outᵀgrad_out`` (in
    float64, bias-augmented when the layer has one) — repeated records
    for one layer (several backward calls between optimizer steps) sum.

    :meth:`harvest` hands the pending sums over (aligned with
    :attr:`pairs`) and resets them.
    """

    def __init__(self, model, max_dim: int | None = None):
        self.pairs = _layer_pairs(model)
        self._index = {id(w): i for i, (w, _) in enumerate(self.pairs)}
        self._pending: list[list | None] = [None] * len(self.pairs)
        # Blocks beyond *max_dim* are never collected: their Gram matrices
        # and inverses dominate the cost profile (the first dense layer of
        # the DGCNN is an order of magnitude wider than every other
        # block), and skipping them degrades the affected layer to the
        # raw gradient rather than erroring.
        self.active = [
            max_dim is None or max(_block_dims(w, b)) <= max_dim
            for w, b in self.pairs
        ]

    @property
    def n_blocks(self) -> int:
        return len(self.pairs)

    def record(
        self,
        weight: Tensor,
        acts: np.ndarray,
        grad_out: np.ndarray,
        bias: Tensor | None = None,
    ) -> None:
        i = self._index.get(id(weight))
        if i is None or not self.active[i]:
            return
        acts64 = acts.astype(np.float64, copy=False)
        gout64 = grad_out.astype(np.float64, copy=False)
        rows = acts64.shape[0]
        if self.pairs[i][1] is not None:
            # Bias augmentation without materializing a ones column: the
            # augmented Gram matrix decomposes into the plain Gram, the
            # column sums, and the row count.
            d = acts64.shape[1]
            a = np.empty((d + 1, d + 1), dtype=np.float64)
            a[:d, :d] = acts64.T @ acts64
            s = acts64.sum(axis=0)
            a[:d, d] = s
            a[d, :d] = s
            a[d, d] = rows
        else:
            a = acts64.T @ acts64
        g = gout64.T @ gout64
        slot = self._pending[i]
        if slot is None:
            self._pending[i] = [a, g, rows]
        else:
            slot[0] += a
            slot[1] += g
            slot[2] += rows

    def harvest(self) -> list[tuple[np.ndarray, np.ndarray, int] | None]:
        """Return and reset the pending contributions (``None`` = no data)."""
        out: list[tuple[np.ndarray, np.ndarray, int] | None] = []
        for slot in self._pending:
            out.append(None if slot is None else (slot[0], slot[1], slot[2]))
        self._pending = [None] * len(self.pairs)
        return out


#: Lazily-resolved (get, set) thread-count functions of scipy's OpenBLAS,
#: ``None`` when unavailable, unset sentinel before first use.
_BLAS_CTL: tuple | None = ()


def _blas_thread_control() -> tuple | None:
    """Locate scipy's bundled OpenBLAS thread get/set entry points.

    K-FAC factor inverses are sub-200-dim LAPACK calls; on many-core
    hosts OpenBLAS fans each one out to the full thread pool and the
    wake/sync cost exceeds the O(d³) work by an order of magnitude
    (measured ~25ms per 130-dim inverse on a loaded 24-core box, ~0.4ms
    single-threaded).  The pip ``scipy.libs`` wheel layout exposes
    ``scipy_openblas_{get,set}_num_threads``; when the layout differs
    (conda MKL, system BLAS) this resolves to ``None`` and the refresh
    simply runs unclamped.
    """
    global _BLAS_CTL
    if _BLAS_CTL == ():
        _BLAS_CTL = None
        try:
            import ctypes
            import glob
            import os

            import scipy

            pattern = os.path.join(
                os.path.dirname(scipy.__file__),
                os.pardir,
                "scipy.libs",
                "libscipy_openblas*",
            )
            for path in glob.glob(pattern):
                lib = ctypes.CDLL(path)
                get = getattr(lib, "scipy_openblas_get_num_threads", None)
                put = getattr(lib, "scipy_openblas_set_num_threads", None)
                if get is not None and put is not None:
                    _BLAS_CTL = (get, put)
                    break
        except Exception:
            _BLAS_CTL = None
    return _BLAS_CTL


@contextmanager
def _single_threaded_blas() -> Iterator[None]:
    """Clamp scipy's OpenBLAS to one thread for tiny-matrix LAPACK work."""
    control = _blas_thread_control()
    if control is None:
        yield
        return
    get, put = control
    previous = get()
    put(1)
    try:
        yield
    finally:
        put(previous)


def _spd_inverse(matrix: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix.

    Raw LAPACK Cholesky (``dpotrf`` + ``dpotri``): the
    ``scipy.linalg.cho_*`` wrappers add several ms of python-level
    overhead per call, independent of size — an order of magnitude more
    than the O(d³) work at K-FAC factor sizes.  Falls back to LU should
    damping ever fail to make the factor PD.  Callers batching several
    inverses should wrap the loop in :func:`_single_threaded_blas`.
    """
    try:
        from scipy.linalg.lapack import dpotrf, dpotri
    except Exception:
        return np.linalg.inv(matrix)
    chol, info = dpotrf(np.asfortranarray(matrix), lower=1)
    if info == 0:
        inv, info = dpotri(chol, lower=1)
    if info != 0:
        return np.linalg.inv(matrix)
    # dpotri fills only the lower triangle; mirror it.
    lower = np.tril(inv)
    return lower + np.tril(inv, -1).T


class KFAC:
    """K-FAC preconditioner composable with any first-order optimizer.

    Per training step (after ``backward()``, before ``optimizer.step()``)::

        with preconditioner.collecting():
            loss.backward()
        preconditioner.step()      # EMA update + in-place precondition
        optimizer.step()           # fused Adam consumes the new grads

    :meth:`step` folds the harvested second moments into EMA factors
    ``Aᵢ`` / ``Gᵢ`` (normalized per row, warmup-corrected like Adam's
    bias correction), refreshes the damped exact inverses every
    ``inv_every`` steps (factored Tikhonov damping with the π trace
    correction of Martens & Grosse, Sec. 6.3), and replaces every
    layer's gradient with ``Aᵢ⁻¹ @ grad @ Gᵢ⁻¹``.  Layers the tap never
    saw (or steps before any statistics exist) keep their raw gradient —
    the composition degrades to plain Adam, never to an error.

    ``state_dict`` / ``load_state_dict`` round-trip everything through
    plain dict/list/ndarray trees, so the trainer checkpoints them via
    the shared :mod:`repro.store.codec` unchanged.
    """

    def __init__(
        self,
        model,
        damping: float = 1e-3,
        ema_decay: float = 0.95,
        inv_every: int = 10,
        cov_every: int = 1,
        max_block_dim: int | None = None,
    ):
        if damping <= 0.0:
            raise ValueError(f"damping must be positive, got {damping}")
        if not 0.0 <= ema_decay < 1.0:
            raise ValueError(f"ema_decay must be in [0, 1), got {ema_decay}")
        if inv_every < 1:
            raise ValueError(f"inv_every must be >= 1, got {inv_every}")
        if cov_every < 1:
            raise ValueError(f"cov_every must be >= 1, got {cov_every}")
        self.damping = float(damping)
        self.ema_decay = float(ema_decay)
        self.inv_every = int(inv_every)
        self.cov_every = int(cov_every)
        self.collector = CurvatureCollector(model, max_dim=max_block_dim)
        self.t = 0
        n = self.collector.n_blocks
        self._n_updates = [0] * n
        self._dirty = False
        self._A: list[np.ndarray | None] = [None] * n
        self._G: list[np.ndarray | None] = [None] * n
        self._A_inv: list[np.ndarray | None] = [None] * n
        self._G_inv: list[np.ndarray | None] = [None] * n

    def collecting(self):
        """Context manager installing this preconditioner's tap."""
        return collecting(self.collector)

    def wants_statistics(self) -> bool:
        """Should the *next* step's backward run under the tap?

        ``cov_every`` amortizes the collection cost the same way
        ``inv_every`` amortizes inversion: statistics are gathered every
        N-th step (always including the first), the EMA factors coast in
        between.  ``cov_every=1`` collects every step.
        """
        return self.t % self.cov_every == 0

    def step(self) -> None:
        """Update factors from pending statistics and precondition grads."""
        self.t += 1
        pending = self.collector.harvest()
        stale = False
        for i, contribution in enumerate(pending):
            if contribution is None:
                continue
            a_sum, g_sum, rows = contribution
            a_hat = a_sum / rows
            g_hat = g_sum / rows
            self._n_updates[i] += 1
            self._dirty = True
            # Warmup-corrected EMA: the first update adopts the estimate
            # outright, later ones blend — the factor is an unbiased-ish
            # average from step one instead of a zero-anchored ramp.
            decay = min(self.ema_decay, 1.0 - 1.0 / self._n_updates[i])
            if self._A[i] is None:
                self._A[i] = a_hat
                self._G[i] = g_hat
            else:
                self._A[i] *= decay
                self._A[i] += (1.0 - decay) * a_hat
                self._G[i] *= decay
                self._G[i] += (1.0 - decay) * g_hat
            if self._A_inv[i] is None:
                stale = True
        # Refresh only when the factors moved since the last inversion:
        # with sparse collection (cov_every > 1) a bare modulo would
        # recompute identical inverses.
        if stale or (self._dirty and self.t % self.inv_every == 0):
            self._refresh_inverses()
            self._dirty = False
        self._precondition()

    def _refresh_inverses(self) -> None:
        root = np.sqrt(self.damping)
        with _single_threaded_blas():
            for i, (a, g) in enumerate(zip(self._A, self._G)):
                if a is None:
                    continue
                d_a, d_g = a.shape[0], g.shape[0]
                trace_a = max(np.trace(a) / d_a, 1e-12)
                trace_g = max(np.trace(g) / d_g, 1e-12)
                # π-corrected factored damping: split sqrt(λ) between the
                # two factors in proportion to their average eigenvalue,
                # so the Kronecker product is damped by ~λI regardless of
                # how scale is distributed between A and G.
                pi = np.sqrt(trace_a / trace_g)
                self._A_inv[i] = _spd_inverse(a + (root * pi) * np.eye(d_a))
                self._G_inv[i] = _spd_inverse(g + (root / pi) * np.eye(d_g))

    def _precondition(self) -> None:
        for i, (weight, bias) in enumerate(self.collector.pairs):
            a_inv, g_inv = self._A_inv[i], self._G_inv[i]
            if a_inv is None or weight.grad is None:
                continue
            eff = _weight_grad_2d(weight)
            if bias is not None and bias.grad is not None:
                stacked = np.vstack([eff, bias.grad[None, :]])
                out = a_inv @ stacked @ g_inv
                bias.grad[...] = out[-1]
                _store_weight_grad(weight, out[:-1])
            else:
                _store_weight_grad(weight, a_inv @ eff @ g_inv)

    # ---------------------------------------------------------- persistence
    def state_dict(self) -> dict:
        """Codec-ready snapshot of the factors, inverses and counters."""
        def copy(block):
            return None if block is None else block.copy()

        return {
            "t": self.t,
            "n_updates": list(self._n_updates),
            "dirty": self._dirty,
            "blocks": [
                {
                    "A": copy(self._A[i]),
                    "G": copy(self._G[i]),
                    "A_inv": copy(self._A_inv[i]),
                    "G_inv": copy(self._G_inv[i]),
                }
                for i in range(self.collector.n_blocks)
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot; validates block count/shapes up front."""
        blocks = state["blocks"]
        if len(blocks) != self.collector.n_blocks:
            raise ValueError(
                f"state has {len(blocks)} curvature blocks, model has "
                f"{self.collector.n_blocks}"
            )
        expected = [_block_dims(w, b) for w, b in self.collector.pairs]
        for i, block in enumerate(blocks):
            d_in, d_out = expected[i]
            for name, dim in (("A", d_in), ("G", d_out)):
                for key in (name, f"{name}_inv"):
                    value = block[key]
                    if value is not None and value.shape != (dim, dim):
                        raise ValueError(
                            f"curvature block {i} {key} has shape "
                            f"{value.shape}, expected {(dim, dim)}"
                        )
        self.t = int(state["t"])
        self._n_updates = [int(n) for n in state["n_updates"]]
        self._dirty = bool(state.get("dirty", False))
        for i, block in enumerate(blocks):
            self._A[i] = _as_f64(block["A"])
            self._G[i] = _as_f64(block["G"])
            self._A_inv[i] = _as_f64(block["A_inv"])
            self._G_inv[i] = _as_f64(block["G_inv"])


def _as_f64(block: np.ndarray | None) -> np.ndarray | None:
    return None if block is None else np.array(block, dtype=np.float64)
