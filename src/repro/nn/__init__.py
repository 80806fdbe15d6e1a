"""From-scratch numpy autograd substrate (PyTorch substitute).

Runtime dtype policy: float32 by default, switchable to float64 via the
``REPRO_DTYPE`` environment variable or :func:`set_default_dtype` /
:func:`dtype_scope` (gradient checks need float64).  Inference paths run
under :func:`no_grad` to skip tape recording entirely.

Sparse kernel policy: the graph convolutions run on the block-sparse
engine in :mod:`repro.nn.sparse`; ``REPRO_SPMM`` (or
:func:`set_spmm_backend` / :func:`spmm_scope`) selects the kernel family —
``scipy`` (default) or ``ell`` (batched-ELL numpy, the parity
reference).  Both backends are bit-identical in float64.
"""

from repro.nn.curvature import CurvatureCollector, collecting, record, tap_active
from repro.nn.functional import (
    conv1d,
    dropout,
    gather_rows,
    graph_conv,
    linear,
    log_softmax,
    max_pool1d,
    segment_max,
    segment_mean,
    segment_sum,
    softmax,
    softmax_cross_entropy,
    gather_stack,
    sortpool_conv,
    stack_columns,
)
from repro.nn.layers import Conv1d, Dropout, GraphConv, Linear, Module
from repro.nn.optim import KFAC, SGD, Adam
from repro.nn.sparse import (
    BlockEll,
    SparseOp,
    as_sparse_op,
    csr_from_parts,
    set_spmm_backend,
    spmm_backend,
    spmm_scope,
)
from repro.nn.tensor import (
    Tensor,
    Workspace,
    concat,
    default_dtype,
    dtype_scope,
    is_grad_enabled,
    no_grad,
    relu,
    set_default_dtype,
    sigmoid,
    spmm,
    tanh,
)

__all__ = [
    "Tensor",
    "Workspace",
    "spmm",
    "concat",
    "relu",
    "tanh",
    "sigmoid",
    "default_dtype",
    "set_default_dtype",
    "dtype_scope",
    "no_grad",
    "is_grad_enabled",
    "conv1d",
    "max_pool1d",
    "dropout",
    "graph_conv",
    "gather_stack",
    "sortpool_conv",
    "stack_columns",
    "gather_rows",
    "BlockEll",
    "SparseOp",
    "as_sparse_op",
    "csr_from_parts",
    "spmm_backend",
    "set_spmm_backend",
    "spmm_scope",
    "segment_sum",
    "segment_mean",
    "segment_max",
    "log_softmax",
    "softmax",
    "softmax_cross_entropy",
    "linear",
    "Module",
    "Linear",
    "Conv1d",
    "Dropout",
    "GraphConv",
    "Adam",
    "KFAC",
    "SGD",
    "CurvatureCollector",
    "collecting",
    "record",
    "tap_active",
]
