"""Exact rational sparse linear algebra.

Everything downstream (bracket tables, Hall-basis rewriting, the dimension
formulas) reduces to row reduction over the rationals, so this module keeps a
single normal form: matrices are sparse maps (row, col) -> nonzero Fraction,
and a subspace is its unique reduced row-echelon basis.  All comparisons are
exact equalities; there are no tolerances anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

# Sparse vector: coordinate -> nonzero Fraction.  Absent means zero.
Vec = dict

_ZERO = Fraction(0)
_ONE = Fraction(1)


def vec(items: Mapping[int, object] | Iterable[tuple[int, object]] = ()) -> Vec:
    """Build a sparse vector, dropping zeros and coercing to Fraction."""
    pairs = items.items() if isinstance(items, Mapping) else items
    out = {}
    for i, x in pairs:
        f = Fraction(x)
        if f:
            out[i] = f
    return out


def vec_from_list(xs: Sequence[object]) -> Vec:
    return vec(enumerate(xs))


def vec_add(u: Vec, v: Vec) -> Vec:
    out = dict(u)
    for i, x in v.items():
        s = out.get(i, _ZERO) + x
        if s:
            out[i] = s
        else:
            out.pop(i, None)
    return out


def vec_scale(u: Vec, c) -> Vec:
    c = Fraction(c)
    if not c:
        return {}
    return {i: c * x for i, x in u.items()}


def vec_axpy(acc: Vec, c: Fraction, v: Vec) -> None:
    """In-place acc += c*v (acc is a plain dict being assembled)."""
    if not c:
        return
    for i, x in v.items():
        s = acc.get(i, _ZERO) + c * x
        if s:
            acc[i] = s
        else:
            acc.pop(i, None)


class Matrix:
    """Sparse rational matrix.  entries maps (row, col) to a nonzero Fraction."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Mapping | None = None):
        self.rows = rows
        self.cols = cols
        ents = {}
        if entries:
            for (r, c), x in entries.items():
                f = Fraction(x)
                if f:
                    if not (0 <= r < rows and 0 <= c < cols):
                        raise IndexError(f"entry ({r},{c}) outside {rows}x{cols}")
                    ents[(r, c)] = f
        self.entries = ents

    @classmethod
    def from_rows(cls, cols: int, row_vecs: Iterable[Vec]) -> "Matrix":
        ents = {}
        n = 0
        for r, rv in enumerate(row_vecs):
            n = r + 1
            for c, x in rv.items():
                if x:
                    ents[(r, c)] = Fraction(x)
        m = cls.__new__(cls)
        m.rows, m.cols, m.entries = n, cols, ents
        return m

    @classmethod
    def from_dense(cls, dense: Sequence[Sequence[object]], cols: int | None = None) -> "Matrix":
        dense = list(dense)
        if cols is None:
            cols = len(dense[0]) if dense else 0
        return cls.from_rows(cols, [vec_from_list(row) for row in dense])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, {(i, i): _ONE for i in range(n)})

    def row_vecs(self) -> list[Vec]:
        out = [dict() for _ in range(self.rows)]
        for (r, c), x in self.entries.items():
            out[r][c] = x
        return out

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, {(c, r): x for (r, c), x in self.entries.items()})

    def to_dense(self) -> list[list[Fraction]]:
        out = [[_ZERO] * self.cols for _ in range(self.rows)]
        for (r, c), x in self.entries.items():
            out[r][c] = x
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


def _row_sub(r: Vec, pivot_row: Vec, coef: Fraction) -> Vec:
    out = dict(r)
    for c, v in pivot_row.items():
        s = out.get(c, _ZERO) - coef * v
        if s:
            out[c] = s
        else:
            out.pop(c, None)
    return out


def _rref_rows(row_vecs: Iterable[Vec]) -> list[Vec]:
    """Reduced row echelon form of a list of sparse rows.

    Returns nonzero rows ordered by pivot column; input rows are not mutated.
    """
    # (leading column, row) pairs; leading column of processed pivots only grows.
    work = [(min(r), dict(r)) for r in row_vecs if r]
    done: list[Vec] = []
    while work:
        lead = min(l for l, _ in work)
        for idx, (l, r) in enumerate(work):
            if l == lead:
                pivot = r
                work.pop(idx)
                break
        inv = _ONE / pivot[lead]
        if inv != 1:
            pivot = {c: inv * v for c, v in pivot.items()}
        nxt = []
        for l, r in work:
            coef = r.get(lead)
            if coef is not None:
                r = _row_sub(r, pivot, coef)
                if r:
                    nxt.append((min(r), r))
            else:
                nxt.append((l, r))
        work = nxt
        for i, r in enumerate(done):
            coef = r.get(lead)
            if coef is not None:
                done[i] = _row_sub(r, pivot, coef)
        done.append(pivot)
    return done


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Unique reduced row-echelon form of m, padded with zero rows, and its rank."""
    reduced = _rref_rows(m.row_vecs())
    rank = len(reduced)
    reduced.extend({} for _ in range(m.rows - rank))
    return Matrix.from_rows(m.cols, reduced), rank


def rank(m: Matrix) -> int:
    return len(_rref_rows(m.row_vecs()))


class Subspace:
    """A subspace of Q^ambient_dim held as its canonical RREF basis.

    Equality of subspaces is literal equality of basis matrices.  Rows of
    ``basis`` are the basis vectors; pivot columns are strictly increasing
    with unit pivots and zeros elsewhere in pivot columns.
    """

    __slots__ = ("ambient_dim", "basis", "_pivots")

    def __init__(self, ambient_dim: int, basis: Matrix):
        if basis.cols != ambient_dim:
            raise ValueError("basis width does not match ambient dimension")
        self.ambient_dim = ambient_dim
        self.basis = basis
        self._pivots = tuple(min(r) for r in basis.row_vecs())

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Vec]) -> "Subspace":
        rows = _rref_rows(vectors)
        return cls(ambient_dim, Matrix.from_rows(ambient_dim, rows))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.from_rows(ambient_dim, []))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def pivots(self) -> tuple[int, ...]:
        return self._pivots

    def complement_coords(self) -> tuple[int, ...]:
        """Ambient coordinates not used as pivots; they index the quotient."""
        piv = set(self._pivots)
        return tuple(c for c in range(self.ambient_dim) if c not in piv)

    def vectors(self) -> list[Vec]:
        return self.basis.row_vecs()

    def reduce(self, v: Vec) -> Vec:
        """Residual of v after eliminating all pivot coordinates."""
        out = dict(v)
        for p, row in zip(self._pivots, self.basis.row_vecs()):
            coef = out.get(p)
            if coef is not None:
                out = _row_sub(out, row, coef)
        return out

    def contains_vec(self, v: Vec) -> bool:
        return not self.reduce(v)

    def coords(self, v: Vec) -> Vec | None:
        """Coefficients of v in the basis rows, or None if v is outside."""
        if not self.contains_vec(v):
            return None
        # RREF: the pivot coordinates of v are exactly its basis coefficients.
        return {t: v[p] for t, p in enumerate(self._pivots) if p in v}

    def quotient_coords(self, v: Vec) -> Vec:
        """Coordinates of v + self in the complement-coordinate basis."""
        res = self.reduce(v)
        pos = {c: k for k, c in enumerate(self.complement_coords())}
        return {pos[c]: x for c, x in res.items()}

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def kernel_basis(m: Matrix) -> Subspace:
    """Right null space {x : m x = 0} in canonical form."""
    reduced = _rref_rows(m.row_vecs())
    piv = [min(r) for r in reduced]
    piv_set = set(piv)
    free = [c for c in range(m.cols) if c not in piv_set]
    gens = []
    for f in free:
        v = {f: _ONE}
        for p, row in zip(piv, reduced):
            coef = row.get(f)
            if coef is not None:
                v[p] = -coef
        gens.append(v)
    return Subspace.from_vectors(m.cols, gens)


def invert(m: Matrix) -> Matrix:
    """Inverse of a square matrix via RREF of the augmented block [m | I]."""
    if m.rows != m.cols:
        raise ValueError("only square matrices are invertible")
    n = m.rows
    rows = m.row_vecs()
    for r in range(n):
        rows[r][n + r] = _ONE
    reduced = _rref_rows(rows)
    if len(reduced) != n or any(min(r) != i for i, r in enumerate(reduced)):
        raise ValueError("matrix is singular")
    return Matrix.from_rows(n, [{c - n: x for c, x in r.items() if c >= n} for r in reduced])


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace.from_vectors(a.ambient_dim, a.vectors() + b.vectors())


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the Zassenhaus double-block trick."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = a.ambient_dim
    rows = []
    for v in a.vectors():
        r = dict(v)
        r.update({c + n: x for c, x in v.items()})
        rows.append(r)
    rows.extend(dict(v) for v in b.vectors())
    reduced = _rref_rows(rows)
    inter = [
        {c - n: x for c, x in r.items()}
        for r in reduced
        if min(r) >= n
    ]
    return Subspace.from_vectors(n, inter)


def contains(a: Subspace, v: Vec | Sequence[object]) -> bool:
    """Membership v ∈ a; accepts a sparse dict or a dense length-n sequence."""
    if not isinstance(v, dict):
        if len(v) != a.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        v = vec_from_list(v)
    elif any(not 0 <= i < a.ambient_dim for i in v):
        raise ValueError("vector coordinate outside ambient dimension")
    return a.contains_vec(v)
