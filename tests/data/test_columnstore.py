"""Columnar backing stores and the relation's backend/dtype surface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.columnstore import (
    MemmapColumnStore,
    MemoryColumnStore,
    frozen_column,
    is_shareable,
)
from repro.data.relation import Relation


def _matrix(n=20, m=3, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, m))


# -- sharing primitives -------------------------------------------------------------


def test_frozen_column_copies_writable_input():
    values = np.arange(5.0)
    frozen = frozen_column(values)
    assert not frozen.flags.writeable
    values[0] = 99.0  # the caller's array stays theirs
    assert frozen[0] == 0.0


def test_frozen_column_shares_immutable_input():
    values = np.arange(5.0)
    values.flags.writeable = False
    assert frozen_column(values) is values


def test_readonly_view_of_writable_base_is_not_shareable():
    base = np.arange(6.0)
    view = base[1:4]
    view.flags.writeable = False
    assert not is_shareable(view)
    frozen = frozen_column(view)
    base[2] = -1.0
    assert frozen[1] == 2.0  # copied, so the base write cannot leak through


# -- backends -----------------------------------------------------------------------


def test_memory_and_memmap_stores_agree():
    columns = {"A1": np.arange(4.0), "A2": np.arange(4.0) * 2, "id": ["a", "b", "c", "d"]}
    memory = MemoryColumnStore(columns)
    mapped = MemmapColumnStore(columns)
    assert memory.names() == mapped.names()
    for name in memory.names():
        assert np.array_equal(memory.column(name), np.asarray(mapped.column(name)))
    # Numeric columns are mapped; the identifier column stays in memory.
    assert isinstance(mapped.column("A1"), np.memmap)
    assert not isinstance(mapped.column("id"), np.memmap)
    assert not mapped.column("A1").flags.writeable


def test_store_rejects_ragged_columns():
    with pytest.raises(ValueError, match="length"):
        MemoryColumnStore({"A1": [1.0, 2.0], "A2": [1.0]})


def test_memmap_stream_matches_eager_store():
    matrix = _matrix(17, 3)
    names = ["A1", "A2", "A3"]

    def blocks():
        for start in range(0, 17, 5):
            yield matrix[start : start + 5]

    streamed = MemmapColumnStore.stream(names, 17, blocks())
    eager = MemoryColumnStore({n: matrix[:, j] for j, n in enumerate(names)})
    for name in names:
        assert np.array_equal(np.asarray(streamed.column(name)), eager.column(name))


def test_memmap_stream_validates_row_accounting():
    names = ["A1", "A2"]
    with pytest.raises(ValueError, match="shape"):
        MemmapColumnStore.stream(names, 4, iter([np.zeros((4, 3))]))
    with pytest.raises(ValueError, match="more than"):
        MemmapColumnStore.stream(names, 2, iter([np.zeros((3, 2))]))
    with pytest.raises(ValueError, match="expected 4"):
        MemmapColumnStore.stream(names, 4, iter([np.zeros((2, 2))]))
    empty = MemmapColumnStore.stream(names, 0, iter([]))
    assert len(empty) == 0 and empty.names() == names


def test_memmap_stores_sharing_a_directory_keep_their_own_files(tmp_path):
    names = ["x", "y"]
    first = MemmapColumnStore({"x": np.ones(4), "y": np.ones(4)}, directory=tmp_path)
    second = MemmapColumnStore.stream(
        names, 4, iter([np.full((4, 2), 7.0)]), directory=tmp_path
    )
    third = MemmapColumnStore({"x": np.zeros(4), "y": np.zeros(4)}, directory=tmp_path)
    assert np.array_equal(first.column("x"), np.ones(4))
    assert np.array_equal(second.column("x"), np.full(4, 7.0))
    assert np.array_equal(third.column("x"), np.zeros(4))
    assert len({first.directory, second.directory, third.directory}) == 3
    assert all(store.directory.parent == tmp_path for store in (first, second, third))


# -- relation surface ---------------------------------------------------------------


def test_relation_backend_roundtrip_is_bitwise():
    matrix = _matrix()
    relation = Relation.from_matrix(matrix, ["A1", "A2", "A3"])
    assert relation.backend == "memory"
    mapped = relation.with_backend("memmap")
    assert mapped.backend == "memmap"
    assert np.array_equal(relation.matrix(), mapped.matrix())
    back = mapped.with_backend("memory")
    assert back.backend == "memory"
    assert np.array_equal(relation.matrix(), back.matrix())


def test_relation_astype_is_explicit_and_propagates():
    relation = Relation.from_matrix(_matrix(), ["A1", "A2", "A3"])
    assert {np.dtype(s) for s in relation.dtypes.values()} == {np.dtype("float64")}
    narrow = relation.astype(np.float32)
    assert {np.dtype(s) for s in narrow.dtypes.values()} == {np.dtype("float32")}
    assert narrow.matrix().dtype == np.float32
    # Derived relations keep the narrow dtype (structural sharing).
    taken = narrow.take([0, 2, 4])
    assert taken.matrix().dtype == np.float32


def test_relation_matrix_is_memoized():
    relation = Relation.from_matrix(_matrix(), ["A1", "A2", "A3"])
    first = relation.matrix()
    assert relation.matrix() is first
    assert not first.flags.writeable
    # A projected attribute order is a different request, not the memo.
    sub = relation.matrix(["A2", "A1"])
    assert sub.shape == (relation.num_tuples, 2)


def test_wire_format_defaults_stay_compatible():
    """Old payloads (no backend/dtypes keys) still load; new ones roundtrip."""
    relation = Relation.from_matrix(_matrix(6, 2), ["A1", "A2"])
    payload = relation.to_dict()
    # Default storage keeps the pre-columnar envelope byte-for-byte: no new
    # keys, so old readers (and content fingerprints) see the same payload.
    assert "backend" not in payload and "dtypes" not in payload
    rebuilt = Relation.from_dict(payload)
    assert np.array_equal(rebuilt.matrix(), relation.matrix())

    mapped32 = relation.astype(np.float32).with_backend("memmap")
    wire = mapped32.to_dict()
    assert wire["backend"] == "memmap" and wire["dtypes"]
    revived = Relation.from_dict(wire)
    # The wire format carries values and dtypes, not the mapping itself.
    assert revived.dtypes == mapped32.dtypes
    assert np.array_equal(revived.matrix(), mapped32.matrix())


def test_memmap_relation_solves_like_memory():
    """End-to-end: a memmap float32 relation solves bit-identically to its
    in-memory float32 twin (the backend is storage, never semantics)."""
    from repro.core.problem import RankingProblem
    from repro.core.ranking import Ranking
    from repro.core.rankhow import RankHow, RankHowOptions

    matrix = _matrix(40, 3, seed=5)
    ranking = Ranking.from_ordered_indices(
        list(np.argsort(-matrix.sum(axis=1))[:6]), 40
    )
    options = RankHowOptions(
        node_limit=100, verify=False, warm_start_strategy="uniform"
    )
    results = []
    for backend in ("memory", "memmap"):
        relation = Relation.from_matrix(matrix, ["A1", "A2", "A3"]).astype(
            np.float32
        ).with_backend(backend)
        results.append(RankHow(options).solve(RankingProblem(relation, ranking)))
    assert int(results[0].error) == int(results[1].error)
    assert np.array_equal(results[0].weights, results[1].weights)
    assert results[0].nodes == results[1].nodes
