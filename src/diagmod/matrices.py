"""Sparse exact-integer matrices for operator actions.

Column convention: entry (r, c) is the coefficient of basis element r in the
image of basis element c.  Entries stay tiny (products of a handful of unit
coefficients), so int64 storage is exact; a magnitude guard enforces this.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import sparse

from .errors import DomainError

_MAGNITUDE_LIMIT = 1 << 40


class OperatorMatrix:
    """Square sparse integer matrix."""

    __slots__ = ("dim", "_m")

    def __init__(self, dim: int, mat: sparse.csc_matrix):
        mat = mat.tocsc()
        mat.sum_duplicates()
        mat.eliminate_zeros()
        if mat.shape != (dim, dim):
            raise DomainError(f"matrix shape {mat.shape} does not match dim {dim}")
        if mat.nnz and int(np.abs(mat.data).max()) >= _MAGNITUDE_LIMIT:
            raise DomainError("entry magnitude exceeds the exactness guard")
        self.dim = dim
        self._m = mat

    @classmethod
    def from_triples(
        cls, dim: int, rows: Sequence[int], cols: Sequence[int], vals: Sequence[int]
    ) -> "OperatorMatrix":
        mat = sparse.coo_matrix(
            (np.asarray(vals, dtype=np.int64), (np.asarray(rows), np.asarray(cols))),
            shape=(dim, dim),
        )
        return cls(dim, mat.tocsc())

    @classmethod
    def identity(cls, dim: int) -> "OperatorMatrix":
        return cls(dim, sparse.identity(dim, dtype=np.int64, format="csc"))

    @classmethod
    def zero(cls, dim: int) -> "OperatorMatrix":
        return cls(dim, sparse.csc_matrix((dim, dim), dtype=np.int64))

    # -- arithmetic ---------------------------------------------------------

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if self.dim != other.dim:
            raise DomainError("dimension mismatch")
        return OperatorMatrix(self.dim, self._m @ other._m)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if self.dim != other.dim:
            raise DomainError("dimension mismatch")
        return OperatorMatrix(self.dim, (self._m + other._m).tocsc())

    def scaled(self, c: int) -> "OperatorMatrix":
        return OperatorMatrix(self.dim, (self._m * int(c)).tocsc())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        return self.dim == other.dim and (self._m - other._m).count_nonzero() == 0

    def __hash__(self):  # pragma: no cover
        raise TypeError("OperatorMatrix is unhashable")

    # -- queries ------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self._m.nnz)

    def triples(self) -> list[tuple[int, int, int]]:
        """Sorted (row, col, value) triples."""
        coo = self._m.tocoo()
        out = [(int(r), int(c), int(v)) for r, c, v in zip(coo.row, coo.col, coo.data)]
        out.sort()
        return out

    def column(self, c: int) -> list[tuple[int, int]]:
        """Nonzero (row, value) pairs of one column."""
        m = self._m
        lo, hi = m.indptr[c], m.indptr[c + 1]
        return [(int(r), int(v)) for r, v in zip(m.indices[lo:hi], m.data[lo:hi])]

    def column_support(self, c: int) -> list[int]:
        m = self._m
        return [int(r) for r in m.indices[m.indptr[c] : m.indptr[c + 1]]]

    def block(self, lo: int, hi: int) -> "OperatorMatrix":
        """Principal square block on indices lo..hi-1."""
        return OperatorMatrix(hi - lo, self._m[lo:hi, lo:hi].tocsc())

    def coo_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        coo = self._m.tocoo()
        return coo.row, coo.col, coo.data

    def apply(self, coeffs: dict[int, int]) -> dict[int, int]:
        """Image of a sparse vector given as an index -> coefficient map."""
        out: dict[int, int] = {}
        for c, x in coeffs.items():
            for r, v in self.column(c):
                out[r] = out.get(r, 0) + v * x
        return {r: v for r, v in out.items() if v}

    def __repr__(self) -> str:  # pragma: no cover
        return f"OperatorMatrix(dim={self.dim}, nnz={self.nnz})"
