import pytest

from ghlie import closed_forms
from ghlie.closed_forms import EXPECTED_MISMATCHES, closed_form_eval

from _reference import is_expected_mismatch, reduction_check, thm29_display_at


def values(d, t, defect, variant="generic"):
    return {k: p.value for k, p in closed_form_eval(d, t, defect, variant).items()}


def test_defect1_at_d3():
    v = values(3, 0, 1)
    assert v == {"m_L": 6, "wedge": 8, "tensor": 14, "j2": 22, "psi2_rank": 1}


def test_defect2_at_d4():
    v = values(4, 0, 2)
    assert v["m_L"] == 14
    assert v["wedge"] == 18  # (1/6)(3)(40) - 2


def test_multiplier_tables():
    assert [values(d, 0, 1)["m_L"] for d in (3, 4, 5, 6)] == [6, 17, 36, 65]
    assert [values(d, 0, 2)["m_L"] for d in (3, 4, 5, 6)] == [4, 14, 32, 60]


def test_defect3_branches():
    gen = values(4, 0, 3, "generic")
    dfc = values(4, 0, 3, "deficient")
    assert gen["m_L"] == 11 and dfc["m_L"] == 10  # printed -3d+3 / -3d+2
    assert gen["psi2_rank"] == 4 and dfc["psi2_rank"] == 3


def test_sum_display_at_t0_conflicts_with_tensor():
    # Thm 2.9(i) printed tensor evaluated at t=0 gives 20, not 14
    assert thm29_display_at(3, 0, 1)["tensor"] == 20


def test_sum_multiplier_display():
    # (1/3)d(d-1)(d+1) + (1/2)t(t-1) + dt - d + 1 at d=3, t=1
    assert values(3, 1, 1)["m_L"] == 9


def test_suspect_marking():
    e = closed_form_eval(3, 0, 1)
    assert e["j2"].suspect and not e["m_L"].suspect
    e = closed_form_eval(4, 0, 3, "deficient")
    assert all(e[k].suspect for k in ("m_L", "wedge", "tensor", "j2"))
    e = closed_form_eval(4, 1, 2)
    assert e["tensor"].suspect and not e["j2"].suspect


def test_reduction_checks():
    assert reduction_check(3, 1) == {"m_L": True, "wedge": True, "tensor": False, "j2": False}
    for d in (3, 4, 5, 6):
        assert reduction_check(d, 2) == {"m_L": True, "wedge": True, "tensor": False, "j2": True}
    assert reduction_check(5, 3, "generic")["tensor"] is False
    assert reduction_check(5, 3, "generic")["j2"] is True


def test_expected_mismatch_lookup():
    assert is_expected_mismatch("j2", 1, "generic", 0)
    assert not is_expected_mismatch("j2", 2, "generic", 0)
    assert is_expected_mismatch("m_L", 3, "deficient", 0)
    assert is_expected_mismatch("tensor", 2, "generic", 1)
    assert not is_expected_mismatch("m_L", 1, "generic", 1)
    assert len(EXPECTED_MISMATCHES) == 13


def test_psi2_prediction_only_without_summand():
    assert "psi2_rank" in closed_form_eval(4, 0, 1)
    assert "psi2_rank" not in closed_form_eval(4, 1, 1)


def test_validation():
    with pytest.raises(ValueError):
        closed_form_eval(2, 0, 1)
    with pytest.raises(ValueError):
        closed_form_eval(3, 0, 3)  # rank would be zero
    with pytest.raises(ValueError):
        closed_form_eval(4, 0, 2, "deficient")


def test_caller_edits_do_not_reach_the_next_call():
    first = closed_form_eval(4, 1, 3, "deficient")
    want = dict(first)
    first.pop("m_L")
    first["tensor"] = first["wedge"]
    first["extra"] = first["j2"]
    again = closed_form_eval(4, 1, 3, "deficient")
    assert again == want and again is not first
    assert closed_form_eval(4, 1, 3, "deficient") is not again
    # the default variant and an explicit "generic" give the same values
    assert closed_form_eval(5, 0, 2) == closed_form_eval(5, 0, 2, "generic")


def test_ledger_is_read_on_every_call(monkeypatch):
    # the evaluation is cached; the suspect marks follow the ledger as it is now
    assert closed_form_eval(3, 0, 1)["j2"].suspect
    ledger = tuple(e for e in EXPECTED_MISMATCHES if (e["key"], e["defect"], e["t"]) != ("j2", 1, "zero"))
    monkeypatch.setattr(closed_forms, "EXPECTED_MISMATCHES", ledger)
    j2 = closed_form_eval(3, 0, 1)["j2"]
    assert (j2.value, j2.suspect, j2.reason) == (22, False, "")
