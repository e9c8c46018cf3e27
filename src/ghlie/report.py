"""One-algebra analysis: multiplier-route dimensions, printed-form comparison,
oracle concordance, capability and defect classification."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import hopf
from .closed_forms import closed_form_eval
from .exactla import Subspace, Vec, vec_axpy
from .liealg import _RETRY_BUDGET, ClassTwoRequired, LieAlgebra, quotient, rebase_class2
from .multiplier import Psi2Data, dimensions, psi2_image


@dataclass(frozen=True)
class Analysis:
    """What both routes need of one class-2 algebra, computed once per entry call.

    K and the presentation both take the input rebased to the basis contract,
    the normal form class2_from_relations builds from the relation subspace
    rebase_class2 returns; it is kept once, as presentation.target.  center is
    Z(L) in the input's own coordinates, the one rebase_class2 computed for its
    class-2 certificate, so capability evidence reads in those coordinates.  r
    and n are read off K, which holds a basis of K; its canonical basis is built
    only if read.  Built afresh per call and passed down; never cached on the
    algebra.
    """

    center: Subspace
    k: Psi2Data
    presentation: hopf.FreePresentation

    @classmethod
    def of(cls, a: LieAlgebra) -> "Analysis":
        """Raises ClassTwoRequired beyond class 2."""
        b, rel2, z = rebase_class2(a)
        return cls(z, psi2_image(b, rel2), hopf.presentation_from_class2(b, rel2))

    @property
    def r(self) -> int:
        return self.k.r

    @property
    def n(self) -> int:
        return self.k.n


@dataclass
class DimReport:
    """Computed vs. predicted dimensions for one algebra.

    dims and predicted share the keys m_L, wedge, tensor, j2, psi2_rank; flags
    holds per-key "match" / "mismatch" / "expected_mismatch" / "no_prediction".
    """

    d: int
    rank: int
    defect: int
    t: int = 0
    variant: str = "generic"
    provenance: str = ""
    dims: dict = field(default_factory=dict)
    predicted: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    capable: bool | None = None
    oracle: dict = field(default_factory=dict)
    expected_mismatches: list = field(default_factory=list)
    unexpected_mismatches: list = field(default_factory=list)

    @property
    def match(self) -> bool:
        """True when nothing unexpected disagrees (suspect forms excluded)."""
        return not self.unexpected_mismatches

    def to_dict(self) -> dict:
        return {
            "provenance": self.provenance,
            "d": self.d,
            "rank": self.rank,
            "defect": self.defect,
            "t": self.t,
            "variant": self.variant,
            "dims": dict(self.dims),
            "predicted": {
                k: {"value": p.value, "theorem": p.theorem, "suspect": p.suspect}
                for k, p in self.predicted.items()
            },
            "flags": dict(self.flags),
            "capable": self.capable,
            "oracle": dict(self.oracle),
            "match": self.match,
            "expected_mismatches": list(self.expected_mismatches),
            "unexpected_mismatches": list(self.unexpected_mismatches),
        }


class ContextError(ValueError):
    """A pinned d that no split L = H ⊕ A(t) of the algebra realizes."""


def analyze(
    a: LieAlgebra,
    d: int | None = None,
    with_oracle: bool = False,
    check_ker_beta: bool = True,
    provenance: str = "",
) -> DimReport:
    """Compute all reported dimensions of a class <= 2 algebra.

    The context is read off the algebra.  d, the generator count of the
    Heisenberg part, is the one choice (default dim L/Z(L)); then t = n - d
    with n = dim L/L², defect = d(d-1)/2 - dim L², and the defect-3 branch
    is the one the Heisenberg part's Jacobi-cycle rank selects.  Raises
    ContextError unless 0 <= t <= dim Z(L) - dim L², and ClassTwoRequired
    beyond class 2.  With the oracle, ker β = K (Thm 1.3) is checked by
    ``hopf.ker_beta_agrees`` unless check_ker_beta is False.

    Every refuted verdict is appended to unexpected_mismatches by one helper,
    as a record {key, theorem, printed, computed}: the dimension or check
    (m_L, wedge, tensor, j2, psi2_rank, capable, ker_beta), the statement
    refuted ("Hopf oracle" for the oracle's m_L and wedge), the value the
    statement or the oracle gives, and the multiplier route's value.  Prop
    2.2(ii)'s record alone puts computed before printed.  A (key, theorem)
    pair is recorded once: the defect-3 psi2_rank display restates Prop
    2.2(ii), so its refutation adds no second record.
    """
    ctx = Analysis.of(a)
    dims = dimensions(ctx.k)
    r = ctx.r
    if d is None:
        d = a.dim - ctx.center.dim
    t = ctx.n - d
    if not 0 <= t <= ctx.center.dim - r:
        raise ContextError(f"d={d} gives t={t}, outside 0..{ctx.center.dim - r}")
    defect = d * (d - 1) // 2 - r
    report = DimReport(d=d, rank=r, defect=defect, t=t, provenance=provenance, dims=dims)

    def refute(key, theorem, **values):
        if all((rec["key"], rec["theorem"]) != (key, theorem) for rec in report.unexpected_mismatches):
            report.unexpected_mismatches.append({"key": key, "theorem": theorem, **values})

    # The printed displays cover GH(d, d(d-1)/2 - defect) ⊕ A(t), defect 1..3.
    # Prop 2.2 pins the Heisenberg part's Jacobi-cycle rank (an abelian
    # summand adds exactly r·t): C(d,3), or C(d,3) - 1 on the deficient
    # defect-3 branch.
    if r and defect in (1, 2, 3):
        full = d * (d - 1) * (d - 2) // 6
        psi2_core = ctx.k.rank - r * t
        if defect == 3 and psi2_core == full - 1:
            report.variant = "deficient"
        elif defect == 3 and psi2_core != full:
            refute("psi2_rank", "Prop 2.2(ii)", computed=psi2_core, printed=f"{full} or {full - 1}")
        elif t > 0 and psi2_core != full:
            refute("psi2_rank", "Prop 2.2(i)", printed=full, computed=psi2_core)
        report.predicted = closed_form_eval(d, t, defect, report.variant)

    for key, value in dims.items():
        p = report.predicted.get(key)
        if p is None:
            report.flags[key] = "no_prediction"
        elif value == p.value:
            report.flags[key] = "match"
        elif p.suspect:
            report.flags[key] = "expected_mismatch"
            report.expected_mismatches.append({
                "key": key, "theorem": p.theorem,
                "printed": p.value, "computed": value, "reason": p.reason,
            })
        else:
            report.flags[key] = "mismatch"
            refute(key, p.theorem, printed=p.value, computed=value)

    pres = ctx.presentation
    ec = hopf.exterior_center(pres)
    report.capable = ec.dim == 0
    if r and defect in (1, 2) and not report.capable:
        refute("capable", "Thm 2.4" if t == 0 else "Cor 2.5", printed=True, computed=False)

    if with_oracle:
        report.oracle = {
            "m_L": hopf.hopf_multiplier_dim(pres),
            "wedge": hopf.exterior_square_oracle(pres),
            "exterior_center_dim": ec.dim,
        }
        for key in ("m_L", "wedge"):
            if dims[key] != report.oracle[key]:
                refute(key, "Hopf oracle", printed=report.oracle[key], computed=dims[key])
        if check_ker_beta:
            kb_dim, agree = hopf.ker_beta_agrees(pres, ctx.k.rows)
            report.oracle["ker_beta_matches"] = agree
            if not agree:
                refute("ker_beta", "Thm 1.3", printed=kb_dim, computed=ctx.k.rank)
    return report


@dataclass
class QuotientEvidence:
    line: Vec
    quotient_multiplier: int
    strict_drop: bool


@dataclass
class CapabilityReport:
    capable: bool
    exterior_center_dim: int
    multiplier: int
    evidence: list[QuotientEvidence] = field(default_factory=list)

    @property
    def all_quotients_drop(self) -> bool:
        return all(e.strict_drop for e in self.evidence)


def capability_by_quotients(a: LieAlgebra, random_lines: int = 4, seed: int = 0) -> CapabilityReport:
    """Capability verdict with quotient-drop corroboration.

    The exterior-center computation (Hopf presentation) is authoritative; the
    one-dimensional central quotients M(L/⟨z⟩) < M(L) only corroborate, since the
    drop criterion is one-directional.  Lines are in the input's coordinates;
    a random line that comes out zero is drawn again, up to _RETRY_BUDGET
    draws per line (ValueError beyond, as for random_lines < 0).
    """
    if random_lines < 0:
        raise ValueError(f"the number of random lines must be nonnegative, got {random_lines}")
    ctx = Analysis.of(a)
    if ctx.r == 0:
        raise ClassTwoRequired("capability pipeline expects a non-abelian class-2 algebra")
    ec = hopf.exterior_center(ctx.presentation)
    m = dimensions(ctx.k)["m_L"]
    z = ctx.center
    lines: list[Vec] = [{c: 1} for c in range(a.dim) if z.contains_vec({c: 1})]
    rng = random.Random(seed)
    zvecs = z.vectors()
    for _ in range(random_lines):
        for _ in range(_RETRY_BUDGET):
            v: Vec = {}
            for row in zvecs:
                vec_axpy(v, rng.randint(-2, 2), row)
            if v:
                break
        else:
            raise ValueError(f"no nonzero central line drawn within {_RETRY_BUDGET} draws")
        lines.append(v)
    evidence = []
    for line in lines:
        sub = Subspace.from_vectors(a.dim, [line])
        quo = quotient(a, sub)
        mq = dimensions(psi2_image(quo))["m_L"]
        evidence.append(QuotientEvidence(line, mq, mq < m))
    return CapabilityReport(
        capable=ec.dim == 0,
        exterior_center_dim=ec.dim,
        multiplier=m,
        evidence=evidence,
    )
