"""Tests for graph batching, adjacency normalization, and the cached
batch-construction layer (BatchCache / BatchAssembler)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gnn import (
    BatchAssembler,
    BatchCache,
    GraphExample,
    build_batch,
    normalized_adjacency,
)
from repro.nn import default_dtype, dtype_scope, spmm_scope
from repro.nn.sparse import BlockEll


def triangle(label=1, width=3):
    edges = np.array([[0, 1], [1, 2], [0, 2]])
    return GraphExample(3, edges, np.ones((3, width)), label=label)


def path(n=4, label=0, width=3):
    edges = np.array([[i, i + 1] for i in range(n - 1)])
    return GraphExample(n, edges, np.ones((n, width)), label=label)


def test_normalized_adjacency_rows_sum_to_one():
    adj = normalized_adjacency(3, np.array([[0, 1], [1, 2]]))
    np.testing.assert_allclose(np.asarray(adj.sum(axis=1)).ravel(), 1.0)


def test_normalized_adjacency_includes_self_loops():
    adj = normalized_adjacency(2, np.array([[0, 1]]))
    dense = adj.toarray()
    assert dense[0, 0] > 0 and dense[1, 1] > 0
    np.testing.assert_allclose(dense, [[0.5, 0.5], [0.5, 0.5]])


def test_normalized_adjacency_handles_isolated_nodes():
    adj = normalized_adjacency(3, np.empty((0, 2)))
    np.testing.assert_allclose(adj.toarray(), np.eye(3))


def test_duplicate_edges_collapse():
    adj = normalized_adjacency(2, np.array([[0, 1], [0, 1], [1, 0]]))
    np.testing.assert_allclose(adj.toarray(), [[0.5, 0.5], [0.5, 0.5]])


def test_build_batch_block_structure():
    batch = build_batch([triangle(), path()])
    assert batch.n_graphs == 2
    assert batch.features.shape == (7, 3)
    assert list(batch.node_offsets) == [0, 3, 7]
    dense = batch.norm_adj.toarray()
    # Off-diagonal blocks are zero.
    assert not dense[:3, 3:].any()
    assert not dense[3:, :3].any()
    np.testing.assert_array_equal(batch.labels, [1, 0])
    assert batch.graph_slice(1) == slice(3, 7)


def test_build_batch_validation():
    with pytest.raises(ValueError):
        build_batch([])
    with pytest.raises(ValueError):
        build_batch([triangle(width=3), triangle(width=4)])


def test_graph_example_validation():
    with pytest.raises(ValueError):
        GraphExample(2, np.array([[0, 5]]), np.ones((2, 3)))
    with pytest.raises(ValueError):
        GraphExample(2, np.empty((0, 2)), np.ones((3, 3)))


def test_batch_respects_runtime_dtype():
    batch = build_batch([triangle(), path()])
    assert batch.features.dtype == default_dtype()
    assert batch.norm_adj.dtype == default_dtype()


def test_sortpool_order_bases():
    batch = build_batch([triangle(), path()])
    np.testing.assert_array_equal(batch.graph_ids, [0, 0, 0, 1, 1, 1, 1])
    np.testing.assert_array_equal(
        batch.segment_positions, [0, 1, 2, 0, 1, 2, 3]
    )
    assert batch.n_nodes == 7


def test_batch_cache_partitions_and_reuses():
    examples = [triangle(), path(), triangle(label=0), path(n=5)]
    cache = BatchCache(examples, batch_size=3)
    assert len(cache) == 2
    assert cache.n_examples == 4
    assert cache[0].n_graphs == 3 and cache[1].n_graphs == 1
    # Iterating returns the same prebuilt objects (no reconstruction).
    assert list(cache)[0] is cache[0]
    reference = build_batch(examples[:3])
    np.testing.assert_array_equal(cache[0].features, reference.features)
    np.testing.assert_array_equal(
        cache[0].norm_adj.toarray(), reference.norm_adj.toarray()
    )
    with pytest.raises(ValueError):
        BatchCache(examples, batch_size=0)


def test_batch_assembler_matches_build_batch():
    examples = [triangle(), path(), triangle(label=0), path(n=6, label=1)]
    assembler = BatchAssembler(examples)
    assert len(assembler) == 4
    for order in ([2, 0, 3], [0, 1, 2, 3], [3], [1, 1, 0]):
        assembled = assembler.assemble(np.array(order))
        reference = build_batch([examples[i] for i in order])
        np.testing.assert_array_equal(
            assembled.node_offsets, reference.node_offsets
        )
        np.testing.assert_array_equal(assembled.labels, reference.labels)
        np.testing.assert_array_equal(assembled.features, reference.features)
        a, b = assembled.norm_adj.tocsr(), reference.norm_adj.tocsr()
        a.sort_indices(), b.sort_indices()
        np.testing.assert_array_equal(a.indptr, b.indptr)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.data, b.data)


def test_batch_assembler_validation():
    with pytest.raises(ValueError):
        BatchAssembler([triangle(width=3), triangle(width=4)])
    with pytest.raises(ValueError):
        BatchAssembler([triangle()]).assemble(np.array([], dtype=np.int64))


# ------------------------------------------------- split builder properties
WIDTH = 3


@st.composite
def graph_examples(draw):
    """A subgraph with zero or more edges, including self-loops, duplicate
    and reversed-duplicate rows, stored as int32 or int64; one-hot or
    arbitrary float features."""
    n = draw(st.integers(1, 7))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=12))
    repeats = draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(repeats), max_size=len(repeats)))
    pairs = pairs + [(v, u) if f else (u, v) for (u, v), f in zip(repeats, flips)]
    edge_dtype = draw(st.sampled_from([np.int32, np.int64]))
    edges = np.array(pairs, dtype=edge_dtype).reshape(-1, 2)
    if draw(st.booleans()):  # the paper's one-hot node information
        columns = draw(st.lists(st.integers(0, WIDTH - 1), min_size=n, max_size=n))
        features = np.zeros((n, WIDTH))
        features[np.arange(n), columns] = 1.0
    else:  # arbitrary float64 rows, inexact in float32
        seed = draw(st.integers(0, 2**16))
        features = np.random.default_rng(seed).standard_normal((n, WIDTH))
    label = draw(st.integers(0, 1))
    return GraphExample(n, edges, features, label=label)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@settings(max_examples=60, deadline=None)
@given(examples=st.lists(graph_examples(), max_size=8))
def test_assembler_parts_equal_per_example_operator(dtype, examples):
    """The one-pass split build slices into exactly the per-example
    ``normalized_adjacency`` operators (data compared as bytes)."""
    with dtype_scope(dtype):
        assembler = BatchAssembler(examples)
        assert len(assembler) == len(examples)
        for i, example in enumerate(examples):
            ref = normalized_adjacency(example.n_nodes, example.edges)
            assert assembler._data[i].dtype == ref.dtype == dtype
            assert assembler._data[i].tobytes() == ref.data.tobytes()
            np.testing.assert_array_equal(assembler._indices[i], ref.indices)
            np.testing.assert_array_equal(assembler._indptr_tail[i], ref.indptr[1:])
            assert assembler._nnz[i] == ref.nnz
            starts = assembler._node_starts
            block = assembler._flat_features[starts[i] : starts[i + 1]]
            assert block.dtype == dtype
            assert block.tobytes() == example.features.astype(dtype).tobytes()


@pytest.mark.parametrize("backend", ["scipy", "ell"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@settings(max_examples=40, deadline=None)
@given(examples=st.lists(graph_examples(), min_size=1, max_size=8), data=st.data())
def test_assemble_matches_build_batch_for_random_orders(backend, dtype, examples, data):
    with dtype_scope(dtype), spmm_scope(backend):
        assembler = BatchAssembler(examples)
        order = data.draw(
            st.lists(st.integers(0, len(examples) - 1), min_size=1, max_size=12)
        )
        assembled = assembler.assemble(np.array(order))
        reference = build_batch([examples[i] for i in order])
        np.testing.assert_array_equal(assembled.node_offsets, reference.node_offsets)
        np.testing.assert_array_equal(assembled.labels, reference.labels)
        assert assembled.features.tobytes() == reference.features.tobytes()
        a, b = assembled.norm_adj, reference.norm_adj
        assert a.data.tobytes() == b.data.tobytes()
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.indptr, b.indptr)
        if backend == "ell":
            # Stitched padding taps point at the block's own first row, not
            # row 0; they carry value 0, so only the populated taps compare.
            stitched, built = assembled.operator._ell, BlockEll.from_csr(b)
            assert stitched.values.tobytes() == built.values.tobytes()
            taps = np.arange(built.width) < np.diff(b.indptr)[:, None]
            np.testing.assert_array_equal(
                stitched.indices[taps], built.indices[taps]
            )
            dense = np.arange(3.0 * a.shape[0], dtype=dtype).reshape(-1, 3)
            assert (
                assembled.operator.matmul(dense).tobytes()
                == reference.operator.matmul(dense).tobytes()
            )


def test_assembler_over_empty_split():
    assembler = BatchAssembler([])
    assert len(assembler) == 0
    assert assembler._flat_features.shape == (0, 0)
    assert assembler._feature_cols is None
