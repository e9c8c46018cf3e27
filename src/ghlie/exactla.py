"""Exact rational sparse linear algebra.

Everything downstream (bracket tables, Hall-basis rewriting, the dimension
formulas) reduces to row reduction over the rationals, so this module keeps a
single normal form: a sparse row (Vec) maps a column to a nonzero exact
rational, a matrix is a width plus a list of such rows, and a subspace is its
unique reduced row-echelon basis.  An exact rational is an ``int`` when
integral, else a ``Fraction``, never a float or a bool: ``vec`` coerces
external input to it, and the kernel and ``Subspace.reduce`` return it (equal
ints and Fractions compare, hash and print alike).  All comparisons are exact
equalities; there are no tolerances anywhere.

The one elimination kernel works on primitive integer rows: denominators are
cleared by their lcm, the content gcd is divided out, and rows are eliminated
by one fraction-free cross-multiplication step (Bareiss 1968),
``_cross_eliminate``, which every schedule shares.  The forward pass,
``_forward``, first takes each one-entry row as the unit pivot of its column
and strips those columns from the other rows (Andersen and Andersen 1995), as
most β images are units.  Then it takes as each pivot the sparsest of the rows
that lead at its column, the first on ties (Markowitz 1957, in its cheapest
form): every other such row takes in the pivot's entries, so a sparse pivot
fills in less.  The RREF is unique, so neither rule changes the answer, only
the work.  Each answer pays only for what it reads:

* ``rank`` (and rank β) counts the forward pass's pivots.
* ``basis`` (K's basis) and ``relations`` (every null space) first run
  ``_singletons``, an arithmetic-free pre-pass that takes out each row holding
  a column no other row holds (Dumas and Villard 2002): such a row is
  independent of the rest, and zero in every relation.  ``basis`` is the taken
  rows, made primitive, then the forward pass's rows of the rest;
  ``relations`` reads the relations of the rest off the RREF of their
  coordinate rows.
* An RREF (``_rref``, for ``Subspace.from_vectors`` and ``relations``) is the
  forward pass and one back-substitution from the last pivot up, dividing only
  on return; given more than twice as many nonzero rows as columns, at least
  half of them dependent, it tests each row against the rows found so far in
  one pass instead.

A ``Subspace`` stores the kernel's rows as they come out, each the primitive
integer multiple of its unit-pivot RREF row, and ``reduce`` (membership,
quotient coordinates) runs the same step against them.  The unit-pivot
rational rows are built once, on the first call of ``vectors()``; a caller
that needs only the span reads ``integer_rows()``.  ``unit_images()``, every
unit vector modulo the subspace as integer rows at one scale, is the one such
read-off.  ``invert`` reads its answer off the span of [m | I].
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

# Sparse vector: coordinate -> nonzero exact rational (int when integral,
# else Fraction).  Absent means zero.
Vec = dict


def _ratio(num: int, den: int) -> int | Fraction:
    """num/den for den > 0: an int when den divides num, else a Fraction."""
    return Fraction(num, den) if num % den else num // den


def vec(items: Mapping[int, object]) -> Vec:
    """Sparse vector from external input: zeros dropped, int when integral, else Fraction."""
    out = {}
    for i, x in items.items():
        if type(x) is not int:
            if type(x) is not Fraction:
                x = Fraction(x)
            if x.denominator == 1:
                x = x.numerator
        if x:
            out[i] = x
    return out


def vec_axpy(acc: Vec, c: int | Fraction, v: Vec) -> None:
    """In-place acc += c*v; acc must be a dict the caller owns."""
    if not c:
        return
    for i, x in v.items():
        s = acc.get(i, 0) + c * x
        if s:
            acc[i] = s
        else:
            acc.pop(i, None)


class Matrix:
    """Sparse rational matrix: a width and a list of sparse rows (zeros dropped)."""

    __slots__ = ("cols", "rows")

    def __init__(self, cols: int, rows: Iterable[Mapping]):
        self.cols = cols
        self.rows = [{c: x for c, x in r.items() if x} for r in rows]
        for r in self.rows:
            if r and (min(r) < 0 or max(r) >= cols):
                raise IndexError(f"row {r} has a column outside width {cols}")

    @classmethod
    def from_dense(cls, dense: Sequence[Sequence[object]], cols: int | None = None) -> "Matrix":
        dense = list(dense)
        if cols is None:
            cols = len(dense[0]) if dense else 0
        return cls(cols, [vec(dict(enumerate(row))) for row in dense])

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.cols == other.cols and self.rows == other.rows

    def __repr__(self):
        return f"Matrix({len(self.rows)}x{self.cols})"


def _primitive(r: dict) -> dict:
    """Divide an integer row by the gcd of its entries, in place."""
    g = gcd(*r.values())
    if g != 1:
        for c, x in r.items():
            r[c] = x // g
    return r


def _cross_eliminate(r: dict, a: int, pivot: dict, p: int) -> int:
    """In place, r := s·r − (a/g)·pivot with g = gcd(a, p) and s = p/g; returns s.

    The one elimination step: with p > 0, r is scaled by s > 0 and, for a = r[c]
    and p = pivot[c], comes out zero at c.
    """
    g = gcd(a, p)
    s = p // g
    if s != 1:
        for c, x in r.items():
            r[c] = s * x
    t = a // g
    for c, x in pivot.items():
        y = r.get(c, 0) - t * x
        if y:
            r[c] = y
        else:
            del r[c]
    return s


def _integer_row(r: Vec) -> tuple[int, dict]:
    """(lcm of the denominators of r, r scaled by it to integers)."""
    if all(type(x) is int for x in r.values()):
        return 1, dict(r)
    den = lcm(*(x.denominator for x in r.values()))
    return den, {c: x.numerator * (den // x.denominator) for c, x in r.items()}


def _primitive_copy(r: Vec) -> dict:
    """r scaled to a primitive integer row, as a new dict."""
    try:
        g = gcd(*r.values())
    except TypeError:  # a Fraction entry: one row scaled by the denominators' lcm
        den = lcm(*(x.denominator for x in r.values()))
        return _primitive({c: x.numerator * (den // x.denominator) for c, x in r.items()})
    return {c: x // g for c, x in r.items()} if g != 1 else dict(r)


def _singletons(rows: Sequence[Vec]) -> tuple[list[int], list[int]]:
    """(taken, rest): the positions a column-singleton pre-pass takes out, and the others.

    No arithmetic (Dumas and Villard 2002): each round counts the holders of
    each column among the remaining nonzero rows and takes out every row that
    holds a column no other remaining row holds, until a round takes none.
    Such a row is independent of the rows still in, so the taken rows and any
    basis of the rest are a basis of the span, and every relation Σ cᵢvᵢ = 0
    has cᵢ = 0 at a taken row.  Rows are told apart by position, not identity;
    zero rows stay in rest, which keeps the input's order.
    """
    taken: list[int] = []
    rest = list(range(len(rows)))
    while True:
        count = Counter(chain.from_iterable(map(rows.__getitem__, rest)))
        single = {c for c, k in count.items() if k == 1}
        if not single:
            return taken, rest
        keep = []
        for i in rest:
            (keep if single.isdisjoint(rows[i]) else taken).append(i)
        rest = keep


def _forward(rows: Iterable[Vec]) -> list[tuple[int, dict]]:
    """Integer row echelon form: (pivot column, primitive row) pairs by pivot column.

    Pivot entries are positive and later pivot columns are not cleared; input rows are not mutated.
    A pre-pass first takes every one-entry row as the pivot {c: 1} of its column
    (Andersen and Andersen 1995), the first of them at each column, and strips
    those columns from every other row: a unit pivot clears its column and
    nothing else.  A row left empty is dependent and dropped.
    """
    rows = list(rows)
    units: dict[int, dict] = {}
    for r in rows:
        if len(r) == 1:
            (c,) = r
            if c not in units:
                units[c] = {c: 1}
    # Working rows (primitive integer rows) bucketed by leading column, with a
    # heap of the occupied columns.  Only the rows that lead at the smallest
    # column hold it, so each step touches one bucket; a reduced row leads
    # further right, so a processed column never comes back.  The pivot is the
    # bucket's sparsest row, the first on ties (Markowitz's rule with the
    # column fixed): each other row of the bucket takes in the pivot's
    # entries, so the fewer it has, the less the bucket fills in.
    buckets: dict[int, list[dict]] = {}
    for r in rows:
        if len(r) > 1:
            if not units.keys().isdisjoint(r):
                r = {c: x for c, x in r.items() if c not in units}
                if not r:
                    continue
            buckets.setdefault(min(r), []).append(_primitive_copy(r))
    heap = list(buckets)
    heapify(heap)
    done: list[tuple[int, dict]] = []
    while heap:
        lead = heappop(heap)
        bucket = buckets.pop(lead)
        if len(bucket) == 1:  # most buckets hold one row; skipping the scan pays
            pivot = bucket.pop()
        else:
            k, n = 0, len(bucket[0])
            for i in range(1, len(bucket)):
                if len(bucket[i]) < n:
                    k, n = i, len(bucket[i])
            pivot = bucket.pop(k)
        p = pivot[lead]
        if p < 0:  # with p > 0, a unit pivot never rescales the rows it meets
            for c, x in pivot.items():
                pivot[c] = -x
            p = -p
        for r in bucket:
            _cross_eliminate(r, r[lead], pivot, p)
            if r:
                _primitive(r)
                l = min(r)
                if l not in buckets:
                    buckets[l] = []
                    heappush(heap, l)
                buckets[l].append(r)
        done.append((lead, pivot))
    if units:
        done = sorted([*done, *units.items()], key=lambda pair: pair[0])
    return done


def _eliminate(rows: Iterable[Vec]) -> list[tuple[int, dict]]:
    """Integer RREF: ``_forward``'s pairs, then zeros in every other pivot column.

    One back-substitution from the last pivot up: a row clears the later pivot
    columns it holds against rows already reduced, so none comes back.
    """
    done = _forward(rows)
    reduced: dict[int, dict] = {}
    for lead, r in reversed(done):
        for c in [c for c in r if c in reduced]:
            _cross_eliminate(r, r[c], reduced[c], reduced[c][c])
            _primitive(r)
        reduced[lead] = r
    return done


def _insert(found: dict[int, dict], r: Vec) -> None:
    """Take row r into found, integer RREF rows by pivot (primitive, positive pivot, zero at
    the other pivots).  r's residual against them is empty exactly when r lies in their span;
    otherwise, primitive with a positive lead, it joins them once its lead is cleared from them."""
    u = _primitive_copy(r)
    for p in [p for p in u if p in found]:
        _cross_eliminate(u, u[p], found[p], found[p][p])
    if not u:
        return
    lead = min(u)
    g = gcd(*u.values()) if u[lead] > 0 else -gcd(*u.values())  # primitive, positive lead
    for c, x in u.items():
        u[c] = x // g
    q = u[lead]
    for row in found.values():
        a = row.get(lead)
        if a is not None:
            _cross_eliminate(row, a, u, q)
            _primitive(row)
    found[lead] = u


def _eliminate_tall(rows: Iterable[Vec]) -> list[tuple[int, dict]]:
    """``_eliminate``'s pairs, for many more rows than columns: each row ``_insert``-ed in
    turn, one pass per row.  The RREF is unique, so the rows are ``_eliminate``'s."""
    found: dict[int, dict] = {}
    for r in rows:
        _insert(found, r)
    return sorted(found.items())


def _rref(rows: list[Vec], width: int) -> list[tuple[int, dict]]:
    """The integer RREF of nonzero rows of the given width: more than 2·width of
    them (at least half dependent) take the one-pass schedule of ``_eliminate_tall``."""
    return _eliminate_tall(rows) if len(rows) > 2 * width else _eliminate(rows)


def rank(m: Matrix) -> int:
    """Number of pivots of the forward pass; nothing is back-substituted."""
    return len(_forward(m.rows))


def basis(rows: Sequence[Vec]) -> list[dict]:
    """Independent primitive integer rows spanning rows: the rows ``_singletons``
    takes, made primitive, then ``_forward``'s rows of the rest."""
    taken, rest = _singletons(rows)
    return [_primitive_copy(rows[i]) for i in taken] + [r for _, r in _forward([rows[i] for i in rest])]


class Subspace:
    """A subspace of Q^ambient_dim held as its canonical integer RREF basis.

    The stored rows are ``_eliminate``'s, keys ascending: each is primitive,
    with a positive pivot and zeros at the other pivots, so it is the unique
    such multiple of its unit-pivot RREF row and equal subspaces have equal
    rows.  Everything but ``vectors()`` reads them as they are; the unit-pivot
    rows are built on its first call and kept, as are ``unit_images()``.  Rows
    of every kind are shared with callers and never mutated; a caller that
    edits one copies it first.
    """

    __slots__ = ("ambient_dim", "_rows", "pivots", "_vectors", "_comp_pos", "_images")

    def __init__(self, ambient_dim: int, rows: Iterable[dict]):
        """rows must already be the stored form, by ascending pivot (see from_vectors)."""
        self.ambient_dim = ambient_dim
        self._rows = {next(iter(r)): r for r in rows}
        self.pivots = tuple(self._rows)
        self._vectors = None
        self._comp_pos = None
        self._images = None

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Vec]) -> "Subspace":
        """The span of vectors, from ``_rref`` of the nonzero ones."""
        reduced = _rref([v for v in vectors if v], ambient_dim)
        return cls(ambient_dim, [dict(sorted(r.items())) for _, r in reduced])

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, [{i: 1} for i in range(ambient_dim)])

    @property
    def dim(self) -> int:
        return len(self._rows)

    def complement_coords(self) -> tuple[int, ...]:
        """Ambient coordinates not used as pivots; they index the quotient."""
        piv = self._rows
        return tuple(c for c in range(self.ambient_dim) if c not in piv)

    def integer_rows(self) -> list[dict]:
        """The stored rows: the basis of ``vectors()`` scaled to integers."""
        return list(self._rows.values())

    def vectors(self) -> list[Vec]:
        """The RREF basis: unit pivots, each stored row divided by its pivot."""
        if self._vectors is None:
            self._vectors = [
                r if r[p] == 1 else {c: _ratio(x, r[p]) for c, x in r.items()}
                for p, r in self._rows.items()
            ]
        return list(self._vectors)

    def unit_images(self) -> tuple[int, list[dict]]:
        """(D, images): images[c] is D times e_c + self in complement coordinates.

        D is the lcm of the stored rows' pivot entries, so every image is an
        integer row.  A non-pivot c is quotient basis vector q, {q: D}.  At a
        pivot m, e_m is m - row/row[m] for the stored row there, zero at the
        other pivots: -row without m, times D/row[m].  Built once and kept.
        """
        if self._images is None:
            pos = {c: q for q, c in enumerate(self.complement_coords())}
            den = lcm(*(r[m] for m, r in self._rows.items()))
            images: list = [{pos[c]: den} if c in pos else None for c in range(self.ambient_dim)]
            for m, r in self._rows.items():
                f = -den // r[m]
                images[m] = {pos[c]: f * x for c, x in r.items() if c != m}
            self._images = den, images
        return self._images

    def reduce(self, v: Vec) -> Vec:
        """Residual of v after eliminating all pivot coordinates.

        v = u/scale with u an integer row, eliminated by cross-multiplication
        against the stored rows.  A stored row is zero at the other pivots,
        so the pivots to eliminate are those v holds.
        """
        rows = self._rows
        hits = sorted(c for c in v if c in rows)
        if not hits:
            return vec(v)
        scale, u = _integer_row(v)
        for p in hits:
            scale *= _cross_eliminate(u, u[p], rows[p], rows[p][p])
        return u if scale == 1 else {c: _ratio(x, scale) for c, x in u.items()}

    def contains_vec(self, v: Vec) -> bool:
        return not self.reduce(v)

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


def relations(vectors: Sequence[Vec]) -> Subspace:
    """The relations {c : Σ cᵢ vᵢ = 0} among vectors, canonical in Q^len(vectors).

    A relation is zero at every row ``_singletons`` takes out, so the relations
    of the rest, zero vectors included, are re-indexed by position: the map is
    increasing, so their canonical basis stays canonical.
    """
    n = len(vectors)
    taken, rest = _singletons(vectors)
    if not taken:
        return _relations(vectors)
    null = _relations([vectors[i] for i in rest])
    return Subspace(n, [{rest[j]: x for j, x in r.items()} for r in null.integer_rows()])


def _relations(vectors: Sequence[Vec]) -> Subspace:
    """``relations`` by the kernel alone, read off the RREF of the coordinate rows.

    Coordinate c's row holds vᵢ[c] at column n-1-i.  A free index f gives the
    relation with den_f at f and -x·den_f/q at the index p of each row holding x
    at f, where q is that row's pivot entry at p and den_f the lcm of those q.
    Its other entries sit at indices beyond f, so, made primitive and sorted by
    f, these relations are the canonical basis already.
    """
    n = len(vectors)
    last = n - 1
    rows: dict[int, dict] = {}
    for i, v in enumerate(vectors):
        for c, x in v.items():
            rows.setdefault(c, {})[last - i] = x
    reduced = _rref(list(rows.values()), n)
    pivots = {last - l for l, _ in reduced}
    den = {f: 1 for f in range(n) if f not in pivots}
    for l, r in reduced:
        q = r[l]
        if q != 1:
            for c in r:
                if c != l:
                    den[last - c] = lcm(den[last - c], q)
    gens = {f: {f: x} for f, x in den.items()}
    # Rows by ascending pivot index, so each relation's keys ascend.
    for l, r in reversed(reduced):
        p, q = last - l, r[l]
        for c, x in r.items():
            if c != l:
                f = last - c
                gens[f][p] = -x * (den[f] // q)
    return Subspace(n, [v if den[f] == 1 else _primitive(v) for f, v in gens.items()])


def invert(m: Matrix) -> Matrix:
    """Inverse of a square matrix: the right-hand block of the RREF of [m | I]."""
    n = m.cols
    if len(m.rows) != n:
        raise ValueError("only square matrices are invertible")
    sub = Subspace.from_vectors(2 * n, [{**r, n + i: 1} for i, r in enumerate(m.rows)])
    if sub.pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return Matrix(n, [{c - n: x for c, x in r.items() if c >= n} for r in sub.vectors()])
