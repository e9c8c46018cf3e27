"""Exact rational sparse linear algebra.

Everything downstream (bracket tables, Hall-basis rewriting, the dimension
formulas) reduces to row reduction over the rationals, so this module keeps a
single normal form: a sparse row (Vec) maps a column to a nonzero Fraction, a
matrix is a width plus a list of such rows, and a subspace is its unique
reduced row-echelon basis held as such rows.  All comparisons are exact
equalities; there are no tolerances anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

# Sparse vector: coordinate -> nonzero Fraction.  Absent means zero.
Vec = dict

_ZERO = Fraction(0)
_ONE = Fraction(1)


def vec(items: Mapping[int, object]) -> Vec:
    """Build a sparse vector, dropping zeros and coercing to Fraction."""
    out = {}
    for i, x in items.items():
        f = Fraction(x)
        if f:
            out[i] = f
    return out


def vec_from_list(xs: Sequence[object]) -> Vec:
    return vec(dict(enumerate(xs)))


def vec_axpy(acc: Vec, c: Fraction, v: Vec) -> None:
    """In-place acc += c*v; acc must be a dict the caller owns."""
    if not c:
        return
    for i, x in v.items():
        s = acc.get(i, _ZERO) + c * x
        if s:
            acc[i] = s
        else:
            acc.pop(i, None)


class Matrix:
    """Sparse rational matrix: a width and a list of sparse rows."""

    __slots__ = ("cols", "rows")

    def __init__(self, cols: int, rows: Iterable[Mapping]):
        self.cols = cols
        self.rows = [vec(r) for r in rows]
        for r in self.rows:
            if r and (min(r) < 0 or max(r) >= cols):
                raise IndexError(f"row {r} has a column outside width {cols}")

    @classmethod
    def from_dense(cls, dense: Sequence[Sequence[object]], cols: int | None = None) -> "Matrix":
        dense = list(dense)
        if cols is None:
            cols = len(dense[0]) if dense else 0
        return cls(cols, [dict(enumerate(row)) for row in dense])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, [{i: _ONE} for i in range(n)])

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.cols == other.cols and self.rows == other.rows

    def __repr__(self):
        return f"Matrix({len(self.rows)}x{self.cols})"


def _rref_rows(rows: Iterable[Vec]) -> list[Vec]:
    """Reduced row echelon form of a list of sparse rows.

    Returns nonzero rows ordered by pivot column; input rows are not mutated.
    """
    # (leading column, row) pairs; leading column of processed pivots only grows.
    work = [(min(r), dict(r)) for r in rows if r]
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
                vec_axpy(r, -coef, pivot)
                if r:
                    nxt.append((min(r), r))
            else:
                nxt.append((l, r))
        work = nxt
        for r in done:
            coef = r.get(lead)
            if coef is not None:
                vec_axpy(r, -coef, pivot)
        done.append(pivot)
    return done


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Unique reduced row-echelon form of m, padded with zero rows, and its rank."""
    reduced = _rref_rows(m.rows)
    rank = len(reduced)
    return Matrix(m.cols, reduced + [{}] * (len(m.rows) - rank)), rank


def rank(m: Matrix) -> int:
    return len(_rref_rows(m.rows))


class Subspace:
    """A subspace of Q^ambient_dim held as its canonical RREF basis.

    The basis rows have strictly increasing unit pivots and zeros elsewhere in
    pivot columns, so equality of subspaces is literal equality of rows.  The
    rows are shared with every caller of ``vectors()`` and never mutated; a
    caller that edits one copies it first.
    """

    __slots__ = ("ambient_dim", "_rows", "pivots", "_comp_pos")

    def __init__(self, ambient_dim: int, rows: Iterable[Vec]):
        """rows must already be the canonical RREF basis (see from_vectors)."""
        self.ambient_dim = ambient_dim
        self._rows = tuple(rows)
        self.pivots = tuple(min(r) for r in self._rows)
        self._comp_pos = None

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Vec]) -> "Subspace":
        return cls(ambient_dim, _rref_rows(vectors))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, [{i: _ONE} for i in range(ambient_dim)])

    @property
    def dim(self) -> int:
        return len(self._rows)

    def complement_coords(self) -> tuple[int, ...]:
        """Ambient coordinates not used as pivots; they index the quotient."""
        piv = set(self.pivots)
        return tuple(c for c in range(self.ambient_dim) if c not in piv)

    def vectors(self) -> list[Vec]:
        return list(self._rows)

    def reduce(self, v: Vec) -> Vec:
        """Residual of v after eliminating all pivot coordinates."""
        out = dict(v)
        for p, row in zip(self.pivots, self._rows):
            coef = out.get(p)
            if coef is not None:
                vec_axpy(out, -coef, row)
        return out

    def contains_vec(self, v: Vec) -> bool:
        return not self.reduce(v)

    def coords(self, v: Vec) -> Vec | None:
        """Coefficients of v in the basis rows, or None if v is outside."""
        if not self.contains_vec(v):
            return None
        # RREF: the pivot coordinates of v are exactly its basis coefficients.
        return {t: v[p] for t, p in enumerate(self.pivots) if p in v}

    def quotient_coords(self, v: Vec) -> Vec:
        """Coordinates of v + self in the complement-coordinate basis."""
        if self._comp_pos is None:
            self._comp_pos = {c: k for k, c in enumerate(self.complement_coords())}
        pos = self._comp_pos
        return {pos[c]: x for c, x in self.reduce(v).items()}

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self._rows == other._rows
        )

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def kernel_basis(m: Matrix) -> Subspace:
    """Right null space {x : m x = 0} in canonical form."""
    reduced = _rref_rows(m.rows)
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
    n = m.cols
    if len(m.rows) != n:
        raise ValueError("only square matrices are invertible")
    rows = [dict(r) for r in m.rows]
    for i, r in enumerate(rows):
        r[n + i] = _ONE
    reduced = _rref_rows(rows)
    if len(reduced) != n or any(min(r) != i for i, r in enumerate(reduced)):
        raise ValueError("matrix is singular")
    return Matrix(n, [{c - n: x for c, x in r.items() if c >= n} for r in reduced])


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
    rows.extend(b.vectors())
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
