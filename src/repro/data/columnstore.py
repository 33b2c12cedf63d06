"""Columnar backing stores for :class:`~repro.data.relation.Relation`.

The relation API is immutable and column-oriented; this module decides
*where the column bytes live*.  Two backends:

* :class:`MemoryColumnStore` -- read-only in-memory NumPy arrays (the
  default, and exactly what the pre-columnar `Relation` stored);
* :class:`MemmapColumnStore` -- numeric columns spilled to flat binary
  files and reopened as read-only ``np.memmap`` views, so a million-row
  relation costs file-backed pages instead of resident heap.  Non-numeric
  (identifier) columns stay in memory -- object arrays cannot be mapped.

Both hand out **read-only** 1-D arrays, which is what lets the relation
share them structurally across edit constructors and memoize content
fingerprints against them.  The store object must stay referenced for as
long as any array it produced is alive: the memmap backend owns the
backing directory (a ``TemporaryDirectory`` unless an explicit directory
is given) and deletes it with the store.

Opt-in ``float32`` is a *dtype* choice orthogonal to the backend: pass
``dtype=np.float32`` to the store constructors (or use
``Relation.astype``) to halve the footprint of numeric columns.  Float64
data round-trips bitwise through the default path -- narrowing is never
applied implicitly.
"""

from __future__ import annotations

import tempfile
from collections.abc import Mapping, Sequence
from pathlib import Path

import numpy as np

__all__ = [
    "ColumnStore",
    "MemoryColumnStore",
    "MemmapColumnStore",
    "frozen_column",
    "is_shareable",
]


def is_shareable(array: np.ndarray) -> bool:
    """True if ``array`` can be shared without copying.

    Safe to share means no writable memory is reachable from it: the array
    itself is read-only and its base chain never passes through a writable
    ndarray.  A chain that bottoms out in a non-ndarray buffer (the
    ``mmap`` object behind a mode-``"r"`` ``np.memmap``, or a ``bytes``
    object) is read-only by construction.
    """
    node: object = array
    while isinstance(node, np.ndarray):
        if node.flags.writeable:
            return False
        if node.base is None:
            return True
        node = node.base
    return True


def frozen_column(values: Sequence | np.ndarray) -> np.ndarray:
    """A read-only 1-D array for ``values``, copying only when necessary.

    Arrays that are provably immutable (see :func:`is_shareable`) are
    shared as-is -- this is what makes the relation's edit constructors
    structural-sharing.  Everything else is copied before the write flag
    is dropped: a writable array obviously, but also a read-only *view*
    whose writable base could still mutate the shared memory behind the
    memoized fingerprint's back.
    """
    array = np.asarray(values)
    if not is_shareable(array):
        array = array.copy()
        array.flags.writeable = False
    return array


class ColumnStore:
    """Named, read-only, equal-length 1-D columns behind one backend.

    Subclasses set :attr:`backend` and fill ``self._columns`` with
    read-only arrays.  The store is iterated in insertion order, like the
    mapping it was built from.
    """

    backend = "abstract"

    def __init__(self) -> None:
        self._columns: dict[str, np.ndarray] = {}
        self._length = 0

    # -- mapping surface ------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def names(self) -> list[str]:
        return list(self._columns)

    def column(self, name: str) -> np.ndarray:
        if name not in self._columns:
            raise KeyError(f"unknown attribute {name!r}")
        return self._columns[name]

    def items(self):
        return self._columns.items()

    # -- shared validation ----------------------------------------------------

    def _admit(self, name: str, array: np.ndarray) -> None:
        if array.ndim != 1:
            raise ValueError(f"column {name!r} must be one-dimensional")
        if not self._columns:
            self._length = int(array.shape[0])
        elif array.shape[0] != self._length:
            raise ValueError(
                f"column {name!r} has length {array.shape[0]}, "
                f"expected {self._length}"
            )
        self._columns[name] = array


def _cast(array: np.ndarray, dtype) -> np.ndarray:
    """Apply an opt-in numeric dtype; non-numeric columns pass through."""
    if dtype is None or not np.issubdtype(array.dtype, np.number):
        return array
    dtype = np.dtype(dtype)
    if array.dtype == dtype:
        return array
    cast = array.astype(dtype)
    cast.flags.writeable = False
    return cast


class MemoryColumnStore(ColumnStore):
    """Columns as read-only in-memory arrays (the default backend)."""

    backend = "memory"

    def __init__(
        self,
        columns: Mapping[str, Sequence | np.ndarray],
        dtype=None,
    ) -> None:
        super().__init__()
        for name, values in columns.items():
            self._admit(name, _cast(frozen_column(values), dtype))


class MemmapColumnStore(ColumnStore):
    """Numeric columns as read-only ``np.memmap`` views over flat files.

    The store owns its backing directory: a ``TemporaryDirectory`` that is
    cleaned up when the store is garbage-collected, or a fresh
    subdirectory of the caller's ``directory`` (never deleted by the
    store), so stores sharing one ``directory`` never overwrite each
    other's files.  Every relation that shares a mapped column also
    retains the store, so the files outlive all structural-sharing
    descendants.
    """

    backend = "memmap"

    def __init__(
        self,
        columns: Mapping[str, Sequence | np.ndarray],
        dtype=None,
        directory: str | Path | None = None,
    ) -> None:
        super().__init__()
        self._claim_directory(directory)
        for index, (name, values) in enumerate(columns.items()):
            array = _cast(frozen_column(values), dtype)
            if np.issubdtype(array.dtype, np.number) and array.size:
                array = self._map(f"col{index:04d}", array)
            self._admit(name, array)

    @classmethod
    def stream(
        cls,
        names: Sequence[str],
        num_rows: int,
        blocks,
        dtype=np.float64,
        directory: str | Path | None = None,
    ) -> "MemmapColumnStore":
        """Build a store by streaming row blocks straight into the files.

        ``blocks`` yields 2-D ``(rows, len(names))`` arrays in row order;
        each block is cast to ``dtype`` and appended column-wise, so the
        resident footprint is one block, never the full relation.  The
        yielded blocks must add up to exactly ``num_rows`` rows.
        """
        store = cls.__new__(cls)
        ColumnStore.__init__(store)
        root = store._claim_directory(directory)
        dtype = np.dtype(dtype)
        names = list(names)
        if num_rows <= 0:
            for name in names:
                empty = np.zeros(0, dtype=dtype)
                empty.flags.writeable = False
                store._admit(name, empty)
            return store
        suffix = dtype.str.lstrip("<>|=")
        paths = [
            root / f"col{index:04d}.{suffix}.bin" for index in range(len(names))
        ]
        writers = [
            np.memmap(path, dtype=dtype, mode="w+", shape=(num_rows,))
            for path in paths
        ]
        start = 0
        for block in blocks:
            block = np.asarray(block)
            if block.ndim != 2 or block.shape[1] != len(names):
                raise ValueError(
                    f"stream blocks must have shape (rows, {len(names)}), "
                    f"got {block.shape}"
                )
            stop = start + block.shape[0]
            if stop > num_rows:
                raise ValueError(f"streamed more than the declared {num_rows} rows")
            for j, writer in enumerate(writers):
                writer[start:stop] = block[:, j]
            start = stop
        if start != num_rows:
            raise ValueError(f"streamed {start} rows, expected {num_rows}")
        for writer in writers:
            writer.flush()
        del writers
        for name, path in zip(names, paths):
            store._admit(
                name, np.memmap(path, dtype=dtype, mode="r", shape=(num_rows,))
            )
        return store

    def _claim_directory(self, directory: str | Path | None) -> Path:
        """Create this store's private backing directory and return it."""
        if directory is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-columns-")
            self._root = Path(self._tempdir.name)
        else:
            self._tempdir = None
            Path(directory).mkdir(parents=True, exist_ok=True)
            self._root = Path(tempfile.mkdtemp(prefix="repro-columns-", dir=directory))
        return self._root

    def _map(self, stem: str, array: np.ndarray) -> np.ndarray:
        path = self._root / f"{stem}.{array.dtype.str.lstrip('<>|=')}.bin"
        writer = np.memmap(path, dtype=array.dtype, mode="w+", shape=array.shape)
        writer[:] = array
        writer.flush()
        del writer
        mapped = np.memmap(path, dtype=array.dtype, mode="r", shape=array.shape)
        return mapped

    @property
    def directory(self) -> Path:
        return self._root
