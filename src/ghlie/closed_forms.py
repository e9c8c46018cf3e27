"""Verbatim evaluators of the printed dimension formulas, with provenance.

Every closed form is evaluated exactly as displayed, including the displays
that the computational route refutes; those carry suspect=True together with a
reason, and the suspect set doubles as the expected-mismatch ledger the sweep
gate checks against.  Here d is the generator count of the Heisenberg part,
t the dimension of the abelian direct summand (t = 0 selects the theorem-2.3/
2.7 displays, t > 0 the theorem-2.9 ones), defect k means
dim L² = d(d-1)/2 - k, and variant picks the defect-3 branch (generic: full
Jacobi-cycle rank C(d,3); deficient: rank C(d,3) - 1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

F = Fraction


@dataclass(frozen=True)
class Predicted:
    value: int
    theorem: str
    suspect: bool = False
    reason: str = ""


def _int(x) -> int:
    x = F(x)
    if x.denominator != 1:
        raise ArithmeticError(f"closed form did not evaluate to an integer: {x}")
    return int(x)


def _validate(d: int, defect: int, variant: str) -> None:
    if d < 3:
        raise ValueError("formulas assume at least 3 generators")
    if defect not in (1, 2, 3):
        raise ValueError("defect must be 1, 2 or 3")
    if defect >= d * (d - 1) // 2:
        raise ValueError("defect leaves no derived subalgebra")
    if variant not in ("generic", "deficient"):
        raise ValueError("variant must be 'generic' or 'deficient'")
    if variant == "deficient" and defect != 3:
        raise ValueError("the deficient branch exists only at defect 3")


def _displays_t0(d, defect: int, variant: str) -> dict[str, tuple[Fraction, str]]:
    """Thm 2.3 / Thm 2.7 displays (no abelian summand)."""
    cube = d * (d - 1) * (d + 1) / 3
    if defect == 1:
        return {
            "m_L": (cube - d + 1, "Thm 2.3(i)"),
            "wedge": ((d - 1) * (2 * d**2 + 5 * d - 6) / 6 - 1, "Thm 2.7(i)"),
            "tensor": (d * (d**2 + 3 * d - 4) / 3, "Thm 2.7(i)"),
            "j2": ((d + 1) * (2 * d - 3) * (d + 2) / 3 + 2, "Thm 2.7(i)"),
        }
    if defect == 2:
        return {
            "m_L": (cube - 2 * d + 2, "Thm 2.3(ii)"),
            "wedge": ((d - 1) * (2 * d**2 + 5 * d - 12) / 6 - 2, "Thm 2.7(ii)"),
            "tensor": (d * (d**2 + 3 * d - 7) / 3, "Thm 2.7(ii)"),
            "j2": ((d + 1) * (2 * d**2 + d - 12) / 6 + 4, "Thm 2.7(ii)"),
        }
    if variant == "generic":
        return {
            "m_L": (cube - 3 * d + 3, "Thm 2.3(iii)"),
            "wedge": ((d - 1) * (2 * d**2 + 5 * d - 18) / 6 - 3, "Thm 2.7(iii)"),
            "tensor": (d * (d**2 + 3 * d - 10) / 3, "Thm 2.7(iii)"),
            "j2": ((d + 1) * (2 * d**2 + d - 18) / 6 + 6, "Thm 2.7(iii)"),
        }
    return {
        "m_L": (cube - 3 * d + 2, "Thm 2.3(iii)"),
        "wedge": ((d - 1) * (2 * d**2 + 5 * d - 18) / 6 - 4, "Thm 2.7(iii)"),
        "tensor": (d * (d**2 + 3 * d - 10) / 3 - 1, "Thm 2.7(iii)"),
        "j2": ((d + 1) * (2 * d**2 + d - 18) / 6 + 5, "Thm 2.7(iii)"),
    }


def _displays_t9(d, t, defect: int, variant: str) -> dict[str, tuple[Fraction, str]]:
    """Thm 2.9 displays (class-2 algebra with dim L/Z = d, abelian part t)."""
    cube = d * (d - 1) * (d + 1) / 3
    mixed = (t - 1) * (t + 2 * d) / 2          # (1/2)(t-1)(t+2d)
    tt = t * (t - 1) / 2 + d * t               # (1/2)t(t-1)+dt
    sq = (2 * t**2 + 4 * d * t + d**2 + d) / 2  # (1/2)(2t²+4dt+d²+d)
    if defect == 1:
        return {
            "m_L": (cube + mixed + 1, "Thm 2.9(i)"),
            "wedge": ((d - 1) * (2 * d**2 + 5 * d - 6) / 6 + tt - 1, "Thm 2.9(i)"),
            "tensor": (d * (d**2 + 3 * d - 4) / 3 + sq, "Thm 2.9(i)"),
            "j2": (cube + (2 * t**2 + 4 * d * t + d**2 - d) / 2, "Thm 2.9(i)"),
        }
    if defect == 2:
        return {
            "m_L": (cube + mixed - d + 2, "Thm 2.9(ii)"),
            "wedge": ((d - 1) * (2 * d**2 + 5 * d - 12) / 6 + tt - 2, "Thm 2.9(ii)"),
            "tensor": (d * (d**2 + 3 * d - 7) / 3 + sq, "Thm 2.9(ii)"),
            "j2": (cube + (2 * t**2 + 4 * d * t + d**2 - 3 * d) / 2 + 2, "Thm 2.9(ii)"),
        }
    if variant == "generic":
        return {
            "m_L": (cube + mixed - 2 * d + 3, "Thm 2.9(iii)"),
            "wedge": ((d - 1) * (2 * d**2 + 5 * d - 18) / 6 + tt - 3, "Thm 2.9(iii)"),
            "tensor": (d * (d**2 + 3 * d - 10) / 3 + sq, "Thm 2.9(iii)"),
            "j2": (cube + (2 * t**2 + 4 * d * t + d**2 - 5 * d) / 2 + 3, "Thm 2.9(iii)"),
        }
    return {
        "m_L": (cube + mixed - 2 * d + 2, "Thm 2.9(iii)"),
        "wedge": ((d - 1) * (2 * d**2 + 5 * d - 18) / 6 + tt - 4, "Thm 2.9(iii)"),
        "tensor": (d * (d**2 + 3 * d - 10) / 3 + sq - 1, "Thm 2.9(iii)"),
        "j2": (cube + (2 * t**2 + 4 * d * t + d**2 - 5 * d) / 2 + 2, "Thm 2.9(iii)"),
    }


_DOUBLE_COUNT = (
    "display adds the full (1/2)(d²+d) square term on top of the tensor value, "
    "failing the t→0 reduction"
)
_DEFICIENT_BRANCH = (
    "deficient branch printed one lower than the generic value, but a smaller "
    "Jacobi-cycle image makes the dimension one higher"
)
_J2_PRINTED = "printed polynomial disagrees with J₂ = dim(L⊗L) - dim L² (e.g. 22 vs 12 at d=3)"
_J2_OFF_BY_ONE = "display is one below the value forced by J₂ = dim(L⊗L) - dim L²"

# Every printed display that provably disagrees with the computed/oracle route.
# The sweep gate requires observed printed-form mismatches to be exactly
# instances of these patterns; t regime "zero"/"positive" selects the family.
EXPECTED_MISMATCHES = (
    {"key": "j2", "defect": 1, "variant": "generic", "t": "zero", "theorem": "Thm 2.7(i)", "reason": _J2_PRINTED},
    {"key": "m_L", "defect": 3, "variant": "deficient", "t": "zero", "theorem": "Thm 2.3(iii)", "reason": _DEFICIENT_BRANCH},
    {"key": "wedge", "defect": 3, "variant": "deficient", "t": "zero", "theorem": "Thm 2.7(iii)", "reason": _DEFICIENT_BRANCH},
    {"key": "tensor", "defect": 3, "variant": "deficient", "t": "zero", "theorem": "Thm 2.7(iii)", "reason": _DEFICIENT_BRANCH},
    {"key": "j2", "defect": 3, "variant": "deficient", "t": "zero", "theorem": "Thm 2.7(iii)", "reason": _DEFICIENT_BRANCH},
    {"key": "tensor", "defect": 1, "variant": "generic", "t": "positive", "theorem": "Thm 2.9(i)", "reason": _DOUBLE_COUNT},
    {"key": "j2", "defect": 1, "variant": "generic", "t": "positive", "theorem": "Thm 2.9(i)", "reason": _J2_OFF_BY_ONE},
    {"key": "tensor", "defect": 2, "variant": "generic", "t": "positive", "theorem": "Thm 2.9(ii)", "reason": _DOUBLE_COUNT},
    {"key": "tensor", "defect": 3, "variant": "generic", "t": "positive", "theorem": "Thm 2.9(iii)", "reason": _DOUBLE_COUNT},
    {"key": "m_L", "defect": 3, "variant": "deficient", "t": "positive", "theorem": "Thm 2.9(iii)", "reason": _DEFICIENT_BRANCH},
    {"key": "wedge", "defect": 3, "variant": "deficient", "t": "positive", "theorem": "Thm 2.9(iii)", "reason": _DEFICIENT_BRANCH},
    {"key": "tensor", "defect": 3, "variant": "deficient", "t": "positive", "theorem": "Thm 2.9(iii)", "reason": _DOUBLE_COUNT + "; " + _DEFICIENT_BRANCH},
    {"key": "j2", "defect": 3, "variant": "deficient", "t": "positive", "theorem": "Thm 2.9(iii)", "reason": _DEFICIENT_BRANCH},
)


def _suspect_reason(key: str, defect: int, variant: str, t: int) -> str | None:
    regime = "zero" if t == 0 else "positive"
    for e in EXPECTED_MISMATCHES:
        if (
            e["key"] == key
            and e["defect"] == defect
            and e["variant"] == variant
            and e["t"] == regime
        ):
            return e["reason"]
    return None


def closed_form_eval(d: int, t: int, defect: int, variant: str = "generic") -> dict[str, Predicted]:
    """Printed predictions for GH(d, d(d-1)/2 - defect) ⊕ A(t), by theorem, marked by the ledger."""
    out = {}
    for key, (value, theorem) in _predictions(d, t, defect, variant).items():
        reason = _suspect_reason(key, defect, variant, t)
        out[key] = Predicted(value, theorem, reason is not None, reason or "")
    return out


@functools.cache
def _predictions(d: int, t: int, defect: int, variant: str) -> dict[str, tuple[int, str]]:
    """The printed values and their theorems, evaluated once per arguments; callers only read it."""
    _validate(d, defect, variant)
    d_, t_ = F(d), F(t)
    displays = _displays_t0(d_, defect, variant) if t == 0 else _displays_t9(d_, t_, defect, variant)
    out = {key: (_int(value), theorem) for key, (value, theorem) in displays.items()}
    if t == 0:
        base = d * (d - 1) * (d - 2) // 6
        if defect in (1, 2):
            out["psi2_rank"] = (base, "Prop 2.2(i)")
        else:
            out["psi2_rank"] = (base if variant == "generic" else base - 1, "Prop 2.2(ii)")
    return out
