"""Standing hypothesis harness over random class-≤2 algebras and malformed documents.

Each drawn algebra (``random_class2``, ``seeded_gh``, either summed with A(t))
is put in a random rational basis, and the harness checks that

* the formula route equals the Hopf oracle (m_L, the exterior square, and ker β
  against K as literal subspaces);
* the dimensions do not depend on the basis;
* ``verify_cover`` accepts the constructed cover, whose table satisfies Jacobi;
* every stored table and subspace value meets the numeric contract: an int
  when integral, else a Fraction (never a float, a bool, or a Fraction with
  denominator 1).

Every document the CLI reads that breaks the document format exits 2 with an
``error:`` line and no traceback, and so does ``analyze`` on well-typed meta
that contradicts the algebra.
"""

import io
import json
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghlie import docio, hopf
from ghlie.cli import main
from ghlie.exactla import Matrix, Subspace
from ghlie.exactla import rank as mat_rank
from ghlie.fixtures import canonical_gh, seeded_gh, with_abelian_part
from ghlie.liealg import LieAlgebra, change_of_basis, jacobi_check
from ghlie.multiplier import dimensions
from ghlie.report import Analysis

from _reference import random_class2

F = Fraction


def in_contract(x) -> bool:
    return type(x) is int or (type(x) is F and x.denominator != 1)


def assert_contract(*objs):
    for obj in objs:
        if isinstance(obj, LieAlgebra):
            vecs = obj.bracket.values()
        elif isinstance(obj, Subspace):
            vecs = obj.vectors()
        else:
            vecs = obj
        for v in vecs:
            assert all(in_contract(x) for x in v.values()), v


def in_rational_basis(a, rng):
    """a in a random basis with entries p/q, |p| <= 3, 1 <= q <= 3."""
    while True:
        m = Matrix.from_dense([[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(a.dim)]
                               for _ in range(a.dim)])
        if mat_rank(m) == a.dim:
            return change_of_basis(a, m)


# d + t <= 5 generators keeps the cover small (free class-3 algebra of dim <= 55).
_CORES = (
    lambda d, s: random_class2(d, s),
    lambda d, s: seeded_gh(d, 1 + s % 3 if d == 4 else 1 + s % 2, s),
)


def oracle(ctx):
    p = ctx.presentation
    return {"m_L": hopf.hopf_multiplier_dim(p), "wedge": hopf.exterior_square_oracle(p)}


@given(st.sampled_from(_CORES), st.integers(3, 4), st.integers(0, 2), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_routes_agree_in_random_rational_bases(core, d, t, seed):
    a = with_abelian_part(core(d, seed), min(t, 5 - d))
    b = in_rational_basis(a, random.Random(seed))
    ctx, ctx_b = Analysis.of(a), Analysis.of(b)
    dims = dimensions(ctx_b.k)
    # the formula route equals the Hopf oracle
    assert {k: dims[k] for k in ("m_L", "wedge")} == oracle(ctx_b)
    assert hopf.ker_beta(ctx_b.presentation) == ctx_b.k.image
    # the dimensions do not depend on the basis
    assert dims == dimensions(ctx.k)
    assert oracle(ctx_b) == oracle(ctx)
    assert hopf.exterior_center(ctx_b.presentation).dim == hopf.exterior_center(ctx.presentation).dim
    # the cover verifies, from the rational-basis input
    cov = hopf.cover_construct(ctx_b.presentation)
    assert hopf.verify_cover(b, cov.algebra, cov.central_ideal).ok
    assert jacobi_check(cov.algebra) == []
    p = ctx_b.presentation
    assert_contract(
        b, ctx_b.algebra, ctx_b.center, ctx_b.k.image,
        p.rel2, p.rel_bracket_span, p.lifts, hopf.ker_beta(p), hopf.exterior_center(p),
        cov.algebra, cov.central_ideal,
    )


# --- malformed documents -----------------------------------------------------------

_GOOD = docio.algebra_to_document(canonical_gh(3, 1), {"family": "gh", "d": 3, "defect": 1})
_DIM = _GOOD["dim"]
_junk = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=4),
    st.integers(-10, 10), st.lists(st.integers(0, 3), max_size=2), st.just({}),
)
_not_nonneg_int = _junk.filter(lambda x: type(x) is not int or x < 0)


def _with(path, value):
    """A deep copy of the good document with one field (by key path) replaced."""
    doc = json.loads(json.dumps(_GOOD))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@st.composite
def malformed_documents(draw):
    """Document text (or bytes) that breaks the format in exactly one, drawn way."""
    text = docio.dumps(_GOOD).rstrip()
    entry = _GOOD["brackets"][0]
    kind = draw(st.integers(0, 11))
    if kind == 0:  # cut short, so not JSON
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == 1:  # not UTF-8
        return b"\xff" + draw(st.binary(max_size=8))
    if kind == 2:  # JSON, but not an object
        return json.dumps(draw(_junk.filter(lambda x: not isinstance(x, dict))))
    if kind == 3:
        doc = _with(["dim"], draw(_junk.filter(lambda x: not (type(x) is int and x == _DIM))))
    elif kind == 4:
        labels = _GOOD["labels"]
        doc = _with(["labels"], draw(st.one_of(
            _junk.filter(lambda x: not isinstance(x, list)),
            st.lists(st.text(max_size=2), max_size=7).filter(lambda x: len(x) != _DIM),
            _junk.filter(lambda x: not isinstance(x, str)).map(lambda x: labels[:-1] + [x]),
        )))
    elif kind == 5:
        doc = _with(["brackets"], draw(_junk.filter(lambda x: not isinstance(x, list))))
    elif kind == 6:  # an entry that is not an object, or lacks a field
        doc = _with(["brackets", 0], draw(st.one_of(
            _junk.filter(lambda x: not isinstance(x, dict)),
            st.sampled_from("ijv").map(lambda k: {f: x for f, x in entry.items() if f != k}),
        )))
    elif kind == 7:  # a pair that is not 0 <= i < j < dim
        i, j = draw(st.tuples(_junk, _junk).filter(
            lambda ij: not (all(type(x) is int for x in ij) and 0 <= ij[0] < ij[1] < _DIM)))
        doc = _with(["brackets", 0], dict(entry, i=i, j=j))
    elif kind == 8:  # a pair listed twice
        doc = _with(["brackets"], _GOOD["brackets"] + [entry])
    elif kind == 9:  # a coordinate key that is not an index below dim
        key = draw(st.one_of(st.text("abxyz ", min_size=1, max_size=3),
                             st.integers(_DIM, 99).map(str), st.integers(-9, -1).map(str)))
        doc = _with(["brackets", 0, "v"], {key: "1"})
    elif kind == 10:  # a value that is not a "p" or "p/q" string
        value = draw(st.one_of(
            _junk.filter(lambda x: not isinstance(x, str)),
            st.text(max_size=5).filter(lambda s: not docio._RATIONAL.match(s)),
            st.sampled_from(["1/0", "1.5", "0x1", "1e3", " 1", "+1", "1/-2"]),
        ))
        doc = _with(["brackets", 0, "v"], {"0": value})
    else:  # meta not an object, or a context key that is not a nonnegative integer
        doc = draw(st.one_of(
            _junk.filter(lambda x: not isinstance(x, dict)).map(lambda x: _with(["meta"], x)),
            st.tuples(st.sampled_from(["d", "defect", "t"]), _not_nonneg_int).map(
                lambda kv: _with(["meta", kv[0]], kv[1])),
        ))
    return json.dumps(doc)


def test_the_good_document_is_accepted():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "doc.json")
        path.write_text(docio.dumps(_GOOD), encoding="utf-8")
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(["analyze", str(path), "--oracle"]) == 0


def _assert_exits_2(text, commands):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "doc.json")
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")
        for cmd in commands:
            err = io.StringIO()
            # an exception escaping main is the traceback the console would print
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main([cmd, str(path)])
            assert code == 2, (cmd, err.getvalue())
            assert err.getvalue().startswith("error: "), (cmd, err.getvalue())


@given(malformed_documents())
@example("[" * 100_000)  # nested too deep for the JSON decoder
@example(json.dumps(dict(_GOOD, meta={"d": "x"})))  # analyze reads meta d as a number
@settings(max_examples=80, deadline=None)
def test_malformed_document_exits_2_without_traceback(text):
    _assert_exits_2(text, ("analyze", "cover", "capable", "oracle-compare"))


# The good document's algebra allows d = 3 only (dim L/Z = dim L/L² = 3),
# and then t = 0, defect = 1 and the generic branch.
_CONTEXT = {"d": 3, "t": 0, "defect": 1, "variant": "generic"}


@given(st.sampled_from(sorted(_CONTEXT)).flatmap(lambda key: st.tuples(
    st.just(key),
    (st.integers(0, 50) if key != "variant" else st.one_of(_junk, st.text(max_size=9)))
    .filter(lambda x: x != _CONTEXT[key]),
)))
@settings(max_examples=40, deadline=None)
def test_contradicting_meta_exits_2_on_analyze(kv):
    # well-typed meta that the algebra contradicts; only analyze reads meta
    _assert_exits_2(json.dumps(_with(["meta", kv[0]], kv[1])), ("analyze",))
