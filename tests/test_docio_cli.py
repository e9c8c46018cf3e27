import ast
import hashlib
import itertools
import json
import os
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghlie import cli, closed_forms, docio, hopf, report
from ghlie.cli import main
from ghlie.exactla import Matrix, Subspace
from ghlie.exactla import rank as mat_rank
from ghlie.fixtures import canonical_gh, grid_cases, seeded_gh
from ghlie.liealg import LieAlgebra, abelian, change_of_basis, direct_sum, heisenberg, jacobi_check
from ghlie.multiplier import Psi2Data
from ghlie.report import analyze
from ghlie.sweep import SweepConfig, run_case

from _reference import random_class2


# --- document round trips -------------------------------------------------------

def test_round_trip_on_fixtures():
    for a in (abelian(3), heisenberg(2), canonical_gh(4, 2),
              direct_sum(canonical_gh(3, 1), abelian(2))):
        doc = docio.algebra_to_document(a, {"note": "fixture"})
        b, meta = docio.document_to_algebra(doc)
        assert b == a and meta == {"note": "fixture"}


def test_serialize_parse_serialize_is_identity():
    a = canonical_gh(4, 3, "deficient")
    text = docio.dumps(docio.algebra_to_document(a, {"family": "gh"}))
    again = docio.dumps(docio.algebra_to_document(*docio.document_to_algebra(docio.loads(text))))
    assert text == again


def test_rational_formats():
    assert docio.parse_rational("3/4") == docio.parse_rational("6/8")
    assert docio.parse_rational("-5") == -5
    assert docio.rational_str(docio.parse_rational("4/2")) == "2"
    with pytest.raises(docio.DocumentError):
        docio.parse_rational("1.5e3")
    with pytest.raises(docio.DocumentError):
        docio.parse_rational(2.5)


@pytest.mark.parametrize("s, want", [("3", 3), ("4/2", 2), ("-0", 0), ("007", 7), ("-12/4", -3), ("0/5", 0)])
def test_integral_rationals_parse_to_int(s, want):
    x = docio.parse_rational(s)
    assert type(x) is int and x == want


def test_fractional_rationals_parse_to_lowest_terms():
    for s, want in (("6/8", Fraction(3, 4)), ("-2/6", Fraction(-1, 3)), ("2/" + "9" * 30, Fraction(2, 10**30 - 1))):
        x = docio.parse_rational(s)
        assert type(x) is Fraction and (x.numerator, x.denominator) == (want.numerator, want.denominator)


@pytest.mark.parametrize("s", ["", "+3", "3/0", "3/-4", "3/04", " 3", "3 ", "1/", "/2", "1_000", "0x10",
                               "1.5", "1e3", "--1", "1/2/3", None, 3, Fraction(1, 2), 2.5, ["1"],
                               "\u0663", "\uff13", "-\u0663", "1/1\u0663", "\u0661\u0660/3", "3/1\U0001d7d0"])
def test_rational_rejects_keep_their_message(s):
    with pytest.raises(docio.DocumentError) as e:
        docio.parse_rational(s)
    assert str(e.value) == f"rational must look like 'p' or 'p/q', got {s!r}"


@given(st.text(alphabet="0123456789-/+ ._e", max_size=8))
@settings(max_examples=200, deadline=None)
def test_parse_rational_agrees_with_fraction(s):
    if not docio._RATIONAL.match(s):
        with pytest.raises(docio.DocumentError, match="rational must look like"):
            docio.parse_rational(s)
        return
    x, want = docio.parse_rational(s), Fraction(s)
    assert x == want and type(x) is (int if want.denominator == 1 else Fraction)


def test_vector_to_json_sorts_keys_numerically():
    v = {10: Fraction(1, 2), 2: -3, 0: Fraction(4, 2)}
    assert list(docio.vector_to_json(v).items()) == [("0", "2"), ("2", "-3"), ("10", "1/2")]
    assert docio.vector_to_json({}) == {}


def test_document_validation():
    good = docio.algebra_to_document(heisenberg(1))
    bad = dict(good, dim=-1)
    with pytest.raises(docio.DocumentError):
        docio.document_to_algebra(bad)
    bad = dict(good, brackets=[{"i": 1, "j": 0, "v": {}}])
    with pytest.raises(docio.DocumentError):
        docio.document_to_algebra(bad)
    bad = dict(good, brackets=[{"i": 0, "j": 1, "v": {"9": "1"}}])
    with pytest.raises(docio.DocumentError):
        docio.document_to_algebra(bad)
    # JSON true/false are ints to Python but not indices
    for bad in (
        dict(good, dim=True, labels=["x"], brackets=[]),
        dict(good, brackets=[{"i": False, "j": 1, "v": {"2": "1"}}]),
        dict(good, brackets=[{"i": 0, "j": True, "v": {"2": "1"}}]),
    ):
        with pytest.raises(docio.DocumentError):
            docio.document_to_algebra(bad)


# --- CLI exit-code contract --------------------------------------------------------

@pytest.fixture
def ws(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_gen_and_analyze_roundtrip(ws, capsys):
    assert main(["gen", "--family", "gh", "--d", "3", "--rank", "2",
                 "--canonical", "--out", "a.json"]) == 0
    out = capsys.readouterr().out
    assert "dim=5" in out and "class=2" in out and "Z=L2: True" in out
    assert main(["analyze", "a.json", "--oracle"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["dims"] == {"m_L": 6, "wedge": 8, "tensor": 14, "j2": 12, "psi2_rank": 1}
    assert rep["capable"] is True
    assert rep["flags"]["j2"] == "expected_mismatch"


def test_python_m_ghlie_runs_from_a_checkout(ws, capsys):
    assert main(["gen", "--family", "gh", "--d", "3", "--rank", "2",
                 "--canonical", "--out", "a.json"]) == 0
    capsys.readouterr()
    assert main(["analyze", "a.json"]) == 0
    want = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "ghlie", "analyze", "a.json"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == want


def test_package_imports_only_the_standard_library():
    # ghlie runs wherever Python does: every absolute import names a standard module
    # (relative imports stay inside the package)
    files = sorted((Path(__file__).resolve().parents[1] / "src" / "ghlie").glob("*.py"))
    assert files
    outside = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [(path.name, n) for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_gen_abelian(ws, capsys):
    assert main(["gen", "--family", "abelian", "--n", "4", "--out", "a.json"]) == 0
    doc = json.loads(open("a.json").read())
    assert doc["dim"] == 4 and doc["brackets"] == []


def test_gen_deficient_fixture(ws, capsys):
    assert main(["gen", "--family", "gh", "--d", "4", "--rank", "3", "--canonical",
                 "--variant", "deficient", "--out", "t.json"]) == 0
    capsys.readouterr()
    assert main(["analyze", "t.json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["dims"]["psi2_rank"] == 3 and rep["dims"]["m_L"] == 12


def test_gen_sum_family_and_sum_analysis(ws, capsys):
    assert main(["gen", "--family", "sum", "--d", "3", "--defect", "1", "--t", "1",
                 "--canonical", "--out", "s.json"]) == 0
    capsys.readouterr()
    assert main(["analyze", "s.json", "--oracle"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["dims"]["m_L"] == 9  # 6 + 3·1 + 0
    assert rep["flags"]["m_L"] == "match"
    assert rep["predicted"]["m_L"]["theorem"] == "Thm 2.9(i)"
    assert rep["flags"]["tensor"] == "expected_mismatch"


def test_gen_deficient_variant_needs_defect_3(ws, capsys):
    for defect in ("1", "2"):
        assert main(["gen", "--family", "gh", "--d", "4", "--defect", defect, "--canonical",
                     "--variant", "deficient", "--out", "x.json"]) == 2
        assert "deficient branch exists only at defect 3" in capsys.readouterr().err
        assert not Path("x.json").exists()


@pytest.mark.parametrize("family, extra", [
    (family, ["--variant", variant, *more])
    for variant in ("deficient", "generic")
    for family, more in (("gh", []), ("gh", ["--seed", "3"]), ("gh", ["--kill", "1,2;3,4;1,3"]), ("sum", ["--t", "1"]))
])
def test_gen_deficient_variant_needs_canonical(ws, capsys, family, extra):
    # without --canonical the variant used to be dropped: a seeded generic algebra was written
    assert main(["gen", "--family", family, "--d", "4", "--defect", "3", *extra, "--out", "x.json"]) == 2
    assert capsys.readouterr().err == f"error: --variant {extra[1]} needs --canonical\n"
    assert not Path("x.json").exists()


@pytest.mark.parametrize("defect", ["-1", "6"])
def test_gen_defect_out_of_range_names_defect(ws, capsys, defect):
    # these used to say "rank must be in 1..6", naming an option that was not given
    assert main(["gen", "--family", "gh", "--d", "4", "--defect", defect, "--out", "x.json"]) == 2
    assert capsys.readouterr().err == f"error: --defect must be in 0..5 at --d 4, got {defect}\n"
    assert not Path("x.json").exists()


_MALFORMED_KILL = ("1", "1,2,3", "a,b", "1,\u0662", "1, 2", "+1,2", "1,2_0")


@pytest.mark.parametrize("kill", ["1,1", "1,9", "0,2", "1,2;3,3", "5,1", *_MALFORMED_KILL])
def test_gen_kill_pair_outside_the_generators_exits_2(ws, capsys, kill):
    assert main(["gen", "--family", "gh", "--d", "4", "--rank", "5",
                 "--kill", kill, "--out", "k.json"]) == 2
    err = capsys.readouterr().err
    if kill in _MALFORMED_KILL:
        # these used to print Python's unpacking or int() message
        assert err == f"error: --kill pair '{kill}' must look like i,j\n"
    else:
        assert err.startswith("error: --kill pair ") and err.endswith("needs two distinct generators in 1..4\n")
    assert not Path("k.json").exists()


def test_gen_kill_with_canonical_exits_2(ws, capsys):
    # --canonical used to be dropped: the killed-pair algebra was written without it
    assert main(["gen", "--family", "gh", "--d", "4", "--rank", "5", "--kill", "1,2",
                 "--canonical", "--out", "k.json"]) == 2
    assert capsys.readouterr().err == "error: --kill cannot be combined with --canonical\n"
    assert not Path("k.json").exists()


@pytest.mark.parametrize("family, construction", [
    ("gh", ["--canonical"]), ("gh", ["--kill", "1,2"]), ("sum", ["--canonical", "--t", "1"]),
])
def test_gen_seed_with_a_construction_that_does_not_draw_exits_2(ws, capsys, family, construction):
    # the seed used to be dropped: exit 0, and no seed in the meta
    assert main(["gen", "--family", family, "--d", "4", "--defect", "1", *construction,
                 "--seed", "5", "--out", "k.json"]) == 2
    assert capsys.readouterr().err == f"error: {construction[0]} cannot be combined with --seed\n"
    assert not Path("k.json").exists()


@pytest.mark.parametrize("family, argv, stray", [
    # --t is read by sum only
    ("gh", ["--d", "4", "--defect", "1", "--t", "2"], "--t"),
    ("gh", ["--d", "4", "--defect", "1", "--t", "0"], "--t"),
    ("abelian", ["--n", "3", "--t", "1"], "--t"),
    ("heisenberg", ["--m", "2", "--t", "3"], "--t"),
    # --n by abelian only
    ("heisenberg", ["--m", "2", "--n", "5"], "--n"),
    ("gh", ["--d", "3", "--defect", "1", "--n", "2"], "--n"),
    ("sum", ["--d", "3", "--defect", "1", "--t", "1", "--n", "2"], "--n"),
    # --m by heisenberg only
    ("abelian", ["--n", "3", "--m", "1"], "--m"),
    ("gh", ["--d", "3", "--defect", "1", "--m", "1"], "--m"),
    ("sum", ["--d", "3", "--defect", "1", "--t", "1", "--m", "1"], "--m"),
    # the gh options by gh and sum only
    *((family, [first, "1", *opt], opt[0])
      for family, first in (("abelian", "--n"), ("heisenberg", "--m"))
      for opt in (["--d", "4"], ["--rank", "2"], ["--defect", "1"], ["--kill", "1,2"], ["--canonical"],
                  ["--seed", "0"], ["--variant", "generic"])),
    ("heisenberg", ["--m", "2", "--n", "5", "--t", "3"], "--t, --n"),
])
def test_gen_option_its_family_does_not_read_exits_2(ws, capsys, family, argv, stray):
    # these used to be dropped silently: exit 0, and nothing in the meta
    assert main(["gen", "--family", family, *argv, "--out", "x.json"]) == 2
    assert capsys.readouterr().err == f"error: {stray} cannot be used with --family {family}\n"
    assert not Path("x.json").exists()


@pytest.mark.parametrize("family, argv, required", [
    ("abelian", [], "--n"),
    ("heisenberg", [], "--m"),
    ("gh", ["--defect", "1"], "--d"),
    # this used to name the gh family
    ("sum", ["--defect", "1", "--t", "1"], "--d"),
])
def test_gen_required_option_names_the_family(ws, capsys, family, argv, required):
    assert main(["gen", "--family", family, *argv, "--out", "x.json"]) == 2
    assert capsys.readouterr().err == f"error: {required} is required for the {family} family\n"
    assert not Path("x.json").exists()


def test_gen_option_table_names_every_gen_option():
    # an option missing from the table would be dropped silently, as an empty --kill once was
    args = cli.build_parser().parse_args(["gen", "--family", "gh"])
    assert set(vars(args)) - {"command", "family", "out", "json", "func"} == set(cli._GEN_OPTIONS)
    assert all(set(reads) <= set(cli._GEN_OPTIONS) for reads in cli._FAMILIES.values())


@pytest.mark.parametrize("extra, err", [
    # an empty --kill used to be read as no --kill: a seed-0 algebra was written
    ([], "error: relation subspace dimension does not match rank\n"),
    (["--canonical"], "error: --kill cannot be combined with --canonical\n"),
], ids=["rank-5", "canonical"])
def test_gen_empty_kill_is_a_construction(ws, capsys, extra, err):
    assert main(["gen", "--family", "gh", "--d", "4", "--rank", "5", "--kill", "", *extra,
                 "--out", "k.json"]) == 2
    assert capsys.readouterr().err == err
    assert not Path("k.json").exists()


def test_gen_empty_kill_at_defect_0_kills_no_pair(ws, capsys):
    assert main(["gen", "--family", "gh", "--d", "4", "--defect", "0", "--kill", "", "--out", "k.json"]) == 0
    assert capsys.readouterr().out == "dim=10 class=2 dimL2=6 Z=L2: True\n"
    meta = json.loads(Path("k.json").read_text(encoding="utf-8"))["meta"]
    assert meta == {"family": "gh", "d": 4, "rank": 6, "defect": 0, "relations": "", "gh": True}


def test_gen_center_violation_exits_3(ws):
    assert main(["gen", "--family", "gh", "--d", "3", "--rank", "1", "--seed", "2"]) == 3


def test_gen_usage_error_exits_2(ws):
    assert main(["gen", "--family", "gh", "--d", "3"]) == 2  # no rank/defect


def test_analyze_parse_error_exits_2(ws):
    with open("broken.json", "w") as f:
        f.write("{ not json")
    assert main(["analyze", "broken.json"]) == 2
    assert main(["analyze", "missing.json"]) == 2


def _write_h1(brackets):
    with open("h.json", "w") as f:
        json.dump({"dim": 3, "labels": ["x", "y", "z"], "brackets": brackets}, f)


@pytest.mark.parametrize("brackets", [
    [{"i": 0, "j": 1, "v": {}}, {"i": 0, "j": 1, "v": {"2": "1"}}],
    [{"i": 0, "j": 1, "v": {"2": "0"}}, {"i": 0, "j": 1, "v": {"2": "1"}}],
    [{"i": 0, "j": 1, "v": {"2": "1"}}, {"i": 0, "j": 1, "v": {}}],
    [{"i": 0, "j": 1, "v": {"2": "1"}}, {"i": 0, "j": 1, "v": {"2": "1"}}],
])
def test_analyze_duplicate_bracket_pair_exits_2(ws, capsys, brackets):
    # a duplicate whose first value was zero used to be read as the second value
    _write_h1(brackets)
    assert main(["analyze", "h.json"]) == 2
    assert capsys.readouterr().err == "error: duplicate bracket pair (0,1)\n"


@pytest.mark.parametrize("v", [{"2": "1", "02": "1"}, {"2": "0", "02": "1"}, {"2": "1", " 2": "0"},
                               {"+2": "1", "2": "-1"}])
def test_analyze_coordinate_given_twice_exits_2(ws, capsys, v):
    # a repeated coordinate used to be read as its last value
    _write_h1([{"i": 0, "j": 1, "v": v}])
    assert main(["analyze", "h.json"]) == 2
    assert capsys.readouterr().err == "error: coordinate 2 given twice in bracket (0,1)\n"


@pytest.mark.parametrize("command", [["analyze"], ["cover", "--out", "c.json"], ["capable"], ["oracle-compare"]],
                         ids=lambda c: c[0])
@pytest.mark.parametrize("v, err", [
    pytest.param({"2": "1"}, None, id="canonical"),
    pytest.param({"0_2": "1"}, "bad coordinate key '0_2'", id="key-underscore"),  # int() reads it as 2
    pytest.param({"+2": "1"}, "bad coordinate key '+2'", id="key-sign"),
    pytest.param({" 2": "1"}, "bad coordinate key ' 2'", id="key-space"),
    pytest.param({"02": "1"}, "bad coordinate key '02'", id="key-leading-zero"),
    pytest.param({"\u0662": "1"}, "bad coordinate key '\u0662'", id="key-arabic-indic"),
    pytest.param({"\uff12": "1"}, "bad coordinate key '\uff12'", id="key-fullwidth"),
    pytest.param({"2": "\u0663"}, "rational must look like 'p' or 'p/q', got '\u0663'", id="value-arabic-indic"),
    pytest.param({"2": "1/1\u0663"}, "rational must look like 'p' or 'p/q', got '1/1\u0663'",
                 id="denominator-arabic-indic"),
    pytest.param({"0_2": "\u0663"}, "rational must look like 'p' or 'p/q', got '\u0663'", id="both"),
])
def test_documents_need_ascii_decimal_keys_and_rationals(ws, capsys, command, v, err):
    # int() and \d accept more than the format's decimals: "0_2": "\u0663" was read as {2: 3}
    _write_h1([{"i": 0, "j": 1, "v": v}])
    code = main([command[0], "h.json", *command[1:]])
    if err is None:
        assert code == 0
    else:
        assert code == 2
        assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize("command", [["analyze"], ["cover", "--out", "c.json"], ["capable"], ["oracle-compare"]],
                         ids=lambda c: c[0])
@pytest.mark.parametrize("doc, err", [
    # "brackets" misspelt: the document used to be read as the abelian A(3)
    pytest.param({"dim": 3, "labels": ["x", "y", "z"], "bracket": [{"i": 0, "j": 1, "v": {"2": "1"}}]},
                 "unknown document key 'bracket'", id="document"),
    pytest.param({"dim": 3, "labels": ["x", "y", "z"], "brackets": [{"i": 0, "j": 1, "v": {"2": "1"}, "w": 5}]},
                 "unknown bracket key 'w'", id="bracket-entry"),
    pytest.param({"dim": 3, "labels": ["x", "y", "z"], "brackets": [{"i": 0, "j": 1, "v": {"2": "1"}}],
                  "meta": {"note": "free-form", "origin": {"by": "hand"}}}, None, id="meta-free-form"),
])
def test_documents_reject_unknown_keys(ws, capsys, command, doc, err):
    with open("h.json", "w") as f:
        json.dump(doc, f)
    code = main([command[0], "h.json", *command[1:]])
    if err is None:
        assert code == 0
    else:
        assert code == 2
        assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize("text, key", [
    ('{"dim":3,"brackets":[{"i":0,"j":1,"v":{"2":"1","2":"0"}}]}', "2"),
    ('{"dim":3,"brackets":[{"i":0,"j":1,"v":{"2":"1"}}],"dim":4}', "dim"),
    ('{"dim":3,"brackets":[{"i":0,"i":1,"j":2,"v":{}}]}', "i"),
    ('{"dim":3,"brackets":[],"meta":{"d":2,"d":3}}', "d"),
])
def test_analyze_repeated_json_key_exits_2(ws, capsys, text, key):
    # json keeps the last of two equal keys: the first document read as the abelian algebra
    with open("h.json", "w") as f:
        f.write(text)
    assert main(["analyze", "h.json"]) == 2
    assert capsys.readouterr().err == f"error: key {key!r} given twice in one JSON object\n"


def test_zero_values_are_read_as_absent(ws, capsys):
    _write_h1([{"i": 0, "j": 1, "v": {"2": "1", "1": "0"}}, {"i": 0, "j": 2, "v": {"1": "0/3"}},
               {"i": 1, "j": 2, "v": {}}])
    a, _ = docio.read_document("h.json")
    assert a == heisenberg(1) and a.bracket == {(0, 1): {2: 1}}


def test_analyze_jacobi_violation_exits_4(ws):
    doc = {
        "dim": 3,
        "labels": ["a", "b", "c"],
        "brackets": [
            {"i": 0, "j": 1, "v": {"2": "1"}},
            {"i": 0, "j": 2, "v": {"0": "1"}},
        ],
    }
    with open("bad.json", "w") as f:
        json.dump(doc, f)
    assert main(["analyze", "bad.json"]) == 4


def test_analyze_class3_input_exits_2(ws, capsys):
    assert main(["gen", "--family", "gh", "--d", "3", "--rank", "2", "--canonical",
                 "--out", "a.json"]) == 0
    assert main(["cover", "a.json", "--out", "c.json"]) == 0
    assert main(["analyze", "c.json"]) == 2


def test_cover_cli(ws, capsys):
    assert main(["gen", "--family", "gh", "--d", "3", "--rank", "2", "--canonical",
                 "--out", "a.json"]) == 0
    capsys.readouterr()
    assert main(["cover", "a.json", "--out", "c.json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cover_dim"] == 11 and report["class"] == 3 and report["s"] == 1
    doc = json.loads(open("c.json").read())
    assert doc["dim"] == 11 and "B" in doc["meta"]
    assert len(doc["meta"]["B"]) == 6


def test_cover_of_heisenberg1(ws, capsys):
    assert main(["gen", "--family", "heisenberg", "--m", "1", "--out", "h.json"]) == 0
    assert main(["cover", "h.json", "--out", "hc.json"]) == 0
    assert json.loads(open("hc.json").read())["dim"] == 5


@pytest.mark.parametrize("a, m_l, cls", [
    (abelian(0), 0, 0), (abelian(1), 0, 1), (abelian(2), 1, 2), (abelian(3), 3, 2),
    (direct_sum(heisenberg(1), abelian(1)), 4, 3),
])
def test_cover_of_abelian_and_sums_exits_0(ws, capsys, a, m_l, cls):
    # the cover of A(n) is free of class min(n, 2), not of class 3
    docio.write_document("l.json", a)
    assert main(["cover", "l.json", "--out", "c.json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["class"] == cls and report["multiplier"] == m_l
    assert report["cover_dim"] == a.dim + m_l
    assert json.loads(open("c.json").read())["dim"] == a.dim + m_l


def test_zero_algebra(ws, capsys):
    docio.write_document("z.json", abelian(0))
    assert main(["analyze", "z.json", "--oracle"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert set(rep["dims"].values()) == {0} and rep["oracle"]["m_L"] == 0
    assert main(["oracle-compare", "z.json"]) == 0
    assert json.loads(capsys.readouterr().out)["agree"] is True
    assert main(["cover", "z.json", "--out", "zc.json"]) == 0
    assert json.loads(capsys.readouterr().out)["cover_dim"] == 0
    assert main(["capable", "z.json"]) == 2  # abelian input, as documented


def test_capable_cli(ws, capsys):
    assert main(["gen", "--family", "heisenberg", "--m", "2", "--out", "h2.json"]) == 0
    capsys.readouterr()
    assert main(["capable", "h2.json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["capable"] is False and rep["exterior_center_dim"] == 1


def test_oracle_compare_cli(ws, capsys):
    assert main(["gen", "--family", "gh", "--d", "4", "--rank", "4", "--seed", "1",
                 "--out", "g.json"]) == 0
    capsys.readouterr()
    assert main(["oracle-compare", "g.json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["agree"] and rep["formula"] == rep["oracle"]


def test_oracle_compare_checks_ker_beta_beyond_six_generators(ws, capsys):
    # d + t = 7, past analyze's default cut for ker β: oracle-compare still runs it
    docio.write_document("g7.json", seeded_gh(7, 1, 0))
    assert main(["oracle-compare", "g7.json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ker_beta_matches"] is True and rep["agree"] is True
    assert rep["formula"] == rep["oracle"] == {"m_L": 106, "wedge": 126}


def test_sweep_cli_and_determinism(ws, capsys):
    args = ["sweep", "--d", "3..4", "--defect", "1", "--t", "0", "--seeds", "2", "--out"]
    assert main(args + ["r1.json", "--jobs", "1"]) == 0
    assert main(args + ["r2.json", "--jobs", "2"]) == 0
    assert open("r1.json", "rb").read() == open("r2.json", "rb").read()
    rep = json.loads(open("r1.json").read())
    assert rep["summary"]["unexpected_mismatches"] == 0
    ms = {r["dims"]["m_L"] for r in rep["rows"] if r["t"] == 0}
    assert ms == {6, 17}


def test_sweep_compares_printed_j2_by_default(ws, capsys):
    assert main(["sweep", "--d", "3", "--defect", "1", "--t", "0", "--seeds", "0",
                 "--jobs", "1", "--out", "r.json"]) == 0
    rep = json.loads(open("r.json").read())
    rows = rep["rows"]
    assert len(rows) == 1
    assert [m["key"] for m in rows[0]["expected_mismatches"]] == ["j2"]
    assert rows[0]["expected_mismatches"][0]["printed"] == 22
    assert rows[0]["expected_mismatches"][0]["computed"] == 12
    assert rows[0]["match"] is True


def test_sweep_skip_suspect_forms(ws, capsys):
    assert main(["sweep", "--d", "3", "--defect", "1", "--t", "0", "--seeds", "0",
                 "--jobs", "1", "--skip-suspect-forms", "--out", "r.json"]) == 0
    rep = json.loads(open("r.json").read())
    assert rep["rows"][0]["expected_mismatches"] == []
    assert "j2" not in rep["rows"][0]["predicted"]


def test_analyze_unexpected_mismatch_exits_5(ws, capsys, monkeypatch):
    # with the defect-1 J2 display dropped from the ledger, its refutation
    # (printed 22, computed 12 at d=3) is unexpected and the gate must trip
    ledger = tuple(e for e in closed_forms.EXPECTED_MISMATCHES
                   if (e["key"], e["defect"], e["t"]) != ("j2", 1, "zero"))
    monkeypatch.setattr(closed_forms, "EXPECTED_MISMATCHES", ledger)
    assert main(["gen", "--family", "gh", "--d", "3", "--rank", "2", "--canonical",
                 "--out", "a.json"]) == 0
    capsys.readouterr()
    assert main(["analyze", "a.json"]) == 5
    rep = json.loads(capsys.readouterr().out)
    assert [m["key"] for m in rep["unexpected_mismatches"]] == ["j2"]
    assert rep["match"] is False


def _drop_k_rows(count):
    # K's basis rows less the last count: a wrong Jacobi-cycle rank
    def wrap(psi2_image):
        def dropped(*args):
            k = psi2_image(*args)
            return Psi2Data(k.n, k.r, k.rows[:-count])
        return dropped
    return wrap


_NONZERO_EXTERIOR_CENTER = (hopf, "exterior_center", lambda f: lambda p: Subspace(1, [{0: 1}]))
_GH41_T1 = direct_sum(canonical_gh(4, 1), abelian(1))


def _rec(key, theorem, printed, computed):
    return {"key": key, "theorem": theorem, "printed": printed, "computed": computed}


@pytest.mark.parametrize("a, patches, records, mismatched, agree", [
    pytest.param(  # Prop 2.2(i): t = 1, one row of K dropped
        _GH41_T1, [(report, "psi2_image", _drop_k_rows(1))],
        [_rec("psi2_rank", "Prop 2.2(i)", 4, 3),
         _rec("m_L", "Thm 2.9(i)", 21, 22), _rec("wedge", "Thm 2.9(i)", 26, 27),
         _rec("m_L", "Hopf oracle", 21, 22), _rec("wedge", "Hopf oracle", 26, 27),
         _rec("ker_beta", "Thm 1.3", 9, 8)],
        ("m_L", "wedge"), False, id="prop-2.2-i"),
    pytest.param(  # Prop 2.2(ii): defect 3, t = 0, two rows of K dropped; its record
        # puts computed before printed, and the psi2_rank display, which
        # restates Prop 2.2(ii), is flagged but adds no second record
        canonical_gh(4, 3), [(report, "psi2_image", _drop_k_rows(2))],
        [{"key": "psi2_rank", "theorem": "Prop 2.2(ii)", "computed": 2, "printed": "4 or 3"},
         _rec("m_L", "Thm 2.3(iii)", 11, 13), _rec("wedge", "Thm 2.7(iii)", 14, 16),
         _rec("tensor", "Thm 2.7(iii)", 24, 26), _rec("j2", "Thm 2.7(iii)", 21, 23),
         _rec("m_L", "Hopf oracle", 11, 13), _rec("wedge", "Hopf oracle", 14, 16),
         _rec("ker_beta", "Thm 1.3", 4, 2)],
        ("m_L", "wedge", "tensor", "j2", "psi2_rank"), False, id="prop-2.2-ii"),
    pytest.param(
        canonical_gh(4, 1), [_NONZERO_EXTERIOR_CENTER],
        [_rec("capable", "Thm 2.4", True, False)], (), True, id="thm-2.4"),
    pytest.param(
        _GH41_T1, [_NONZERO_EXTERIOR_CENTER],
        [_rec("capable", "Cor 2.5", True, False)], (), True, id="cor-2.5"),
    pytest.param(
        canonical_gh(4, 1),
        [(hopf, "hopf_multiplier_dim", lambda f: lambda p: f(p) + 1),
         (hopf, "exterior_square_oracle", lambda f: lambda p: f(p) - 1)],
        [_rec("m_L", "Hopf oracle", 18, 17), _rec("wedge", "Hopf oracle", 21, 22)],
        (), False, id="hopf-oracle"),
    pytest.param(
        canonical_gh(4, 1),
        [(hopf, "ker_beta_agrees", lambda f: lambda *args: (f(*args)[0], False))],
        [_rec("ker_beta", "Thm 1.3", 4, 4)], (), False, id="ker-beta"),
])
def test_every_unexpected_mismatch_verdict(ws, capsys, monkeypatch, a, patches, records, mismatched, agree):
    # each verdict branch of analyze, forced on a small input: the exact
    # records (key order included), the flags of the honest run with only the
    # refuted displays flipped, and the CLI's exit codes on a document
    honest = analyze(a, with_oracle=True)
    assert honest.match
    for module, name, wrap in patches:
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    rep = analyze(a, with_oracle=True)
    assert [list(r.items()) for r in rep.unexpected_mismatches] == [list(r.items()) for r in records]
    assert rep.match is False
    assert rep.flags == {**honest.flags, **{key: "mismatch" for key in mismatched}}
    docio.write_document("lie.json", a)
    assert main(["analyze", "lie.json", "--oracle"]) == 5
    out = json.loads(capsys.readouterr().out)
    assert [list(r.items()) for r in out["unexpected_mismatches"]] == [list(r.items()) for r in records]
    assert main(["oracle-compare", "lie.json"]) == (0 if agree else 5)
    assert json.loads(capsys.readouterr().out)["agree"] is agree


@pytest.mark.parametrize("a, meta, key", [
    (canonical_gh(4, 2), {"d": 4, "defect": 1, "t": 0}, "defect"),
    (canonical_gh(3, 1), {"d": 3, "defect": 1, "t": 1}, "t"),
    (canonical_gh(3, 1), {"d": 5, "defect": 1}, "d"),
    (canonical_gh(4, 3, "deficient"), {"d": 4, "defect": 3, "variant": "generic"}, "variant"),
    (direct_sum(canonical_gh(3, 1), abelian(1)), {"d": 3, "t": 2}, "t"),
])
def test_analyze_meta_contradicting_the_algebra_exits_2(ws, capsys, a, meta, key):
    # meta pins only d; a defect, t or variant that disagrees with the values
    # derived from the algebra is an input error, raised before any output
    docio.write_document("lie.json", a, meta)
    assert main(["analyze", "lie.json", "--oracle"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: meta {key}"), err


def test_canonical_grid_documents_analyze_as_their_sweep_rows(ws, capsys):
    # every canonical cell of the default grid, written by gen (gh at t = 0,
    # sum at t > 0), analyzes to its sweep row's context and verdicts
    keys = ("d", "t", "defect", "variant", "dims", "predicted", "flags",
            "expected_mismatches", "unexpected_mismatches")
    cfg = SweepConfig()
    cases = grid_cases(cfg.d_values, cfg.defects, cfg.t_values, 0)
    assert len(cases) == 42
    for case in cases:
        family = ["sum", "--t", str(case.t)] if case.t else ["gh"]  # gh does not take --t
        argv = ["gen", "--family", *family, "--d", str(case.d), "--defect", str(case.defect),
                "--canonical", "--variant", case.variant, "--out", "g.json"]
        assert main(argv) == 0, case.name
        capsys.readouterr()
        assert main(["analyze", "g.json", "--oracle"]) == 0, case.name
        rep = json.loads(capsys.readouterr().out)
        row = run_case(case)
        assert {k: rep[k] for k in keys} == {k: row[k] for k in keys}, case.name


def test_readme_cli_block_runs(ws, capsys):
    # every `ghlie ...` line of the README's CLI block exits 0, in order
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("ghlie ")]
    assert "ghlie analyze h11.json" in lines
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()


def test_paper_tables_script_rows_are_the_canonical_sweep_rows():
    # the README's scripts/paper_tables.py: one row per canonical cell, its five
    # numbers those run_case computes, and no unexpected mismatch
    script = Path(__file__).resolve().parents[1] / "scripts" / "paper_tables.py"
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "UNEXPECTED" not in done.stdout
    rows = done.stdout.splitlines()[2:]
    assert len(rows) == 28
    cases = {c.name: c for c in grid_cases((3, 4, 5, 6), (1, 2, 3), (0, 1), 0)}
    for line in rows:
        name, *numbers = line.split()[:6]
        dims = run_case(cases.pop(name))["dims"]
        assert [int(x) for x in numbers] == [dims[k] for k in ("m_L", "wedge", "tensor", "j2", "psi2_rank")], name
    assert not cases


def test_gen_with_explicit_kill_relations(ws, capsys):
    assert main(["gen", "--family", "gh", "--d", "4", "--rank", "3",
                 "--kill", "1,2;3,4;1,3", "--out", "k.json"]) == 0
    capsys.readouterr()
    assert main(["analyze", "k.json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["dims"]["psi2_rank"] == 4  # generic defect-3 relations
    assert rep["dims"]["m_L"] == 11


def test_analyze_without_meta_uses_intrinsic_context(ws, capsys):
    from ghlie import docio
    from ghlie.fixtures import canonical_gh

    docio.write_document("plain.json", canonical_gh(4, 2))
    assert main(["analyze", "plain.json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["d"] == 4 and rep["defect"] == 2 and rep["t"] == 0
    assert rep["dims"]["m_L"] == 14 and rep["flags"]["m_L"] == "match"


def test_analyze_abelian(ws, capsys):
    assert main(["gen", "--family", "abelian", "--n", "3", "--out", "a3.json"]) == 0
    capsys.readouterr()
    assert main(["analyze", "a3.json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["dims"]["m_L"] == 3 and rep["dims"]["tensor"] == 9
    assert rep["capable"] is True  # A(n) is capable for n >= 2
    assert rep["predicted"] == {}


def test_sweep_case_cap(ws):
    assert main(["sweep", "--d", "3..6", "--defect", "1..3", "--t", "0..2",
                 "--seeds", "5", "--max-cases", "10"]) == 2


@pytest.mark.parametrize("option, text", [
    ("--d", "a"), ("--d", "3.."), ("--d", "..4"), ("--d", "3..a"), ("--defect", "1,x"),
    ("--defect", "1.5"), ("--t", "0..2..3"), ("--t", " "),
    # int() reads these; the grid takes ASCII decimals only
    ("--d", "1_0"), ("--d", "\u0664"), ("--d", "3..\u0666"), ("--defect", " 1"), ("--t", "+1"), ("--t", "0,1 "),
])
def test_sweep_malformed_range_names_the_option(ws, capsys, option, text):
    # these used to print int()'s message, naming neither the option nor its forms
    assert main(["sweep", "--jobs", "1", option, text]) == 2
    assert capsys.readouterr().err == f"error: {option} {text!r} must look like lo..hi or a comma list of integers\n"


@pytest.mark.parametrize("option, field", [("--d", "d_values"), ("--defect", "defects"), ("--t", "t_values")])
def test_sweep_repeated_grid_value_exits_2(ws, capsys, option, field):
    # a repeated value used to run its cases twice and double the ledger counts
    argv = {"--d": "3", "--defect": "1", "--t": "0"}
    argv[option] += "," + argv[option]
    assert main(["sweep", "--seeds", "0", "--jobs", "1", *itertools.chain(*argv.items())]) == 2
    value = int(argv[option][0])
    assert capsys.readouterr().err == f"error: {field} repeats a value: [{value}, {value}]\n"


@pytest.mark.parametrize("option, field, text", [("--d", "d_values", "-3"), ("--defect", "defects", "-1"),
                                                 ("--d", "d_values", "3,-1")])
def test_sweep_negative_grid_value_exits_2(ws, capsys, option, field, text):
    # a negative d used to raise KeyError inside relations_from_pairs (exit 1, a traceback)
    from ghlie.sweep import run_sweep

    values = tuple(int(x) for x in text.split(","))
    argv = {"--d": "3", "--defect": "1", "--t": "0", option: text}
    assert main(["sweep", "--seeds", "0", "--jobs", "1", *itertools.chain(*argv.items())]) == 2
    message = f"{field} must be nonnegative, got {list(values)}"
    assert capsys.readouterr().err == f"error: {message}\n"
    grid = {"d_values": (3,), "defects": (1,), "t_values": (0,), field: values}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_sweep(SweepConfig(**grid, seeds=0, jobs=1))


@pytest.mark.parametrize("option", ["--d", "--defect", "--t"])
def test_sweep_descending_range_names_the_option(ws, capsys, option):
    # a descending range used to run as an empty grid, reported as "no cases"
    assert main(["sweep", "--seeds", "0", "--jobs", "1", option, "5..3"]) == 2
    assert capsys.readouterr().err == f"error: {option} '5..3' is a descending range; write 3..5\n"


@pytest.mark.parametrize("argv, option", [
    (["gen", "--family", "abelian", "--n", "{}"], "--n"),
    (["gen", "--family", "heisenberg", "--m", "{}"], "--m"),
    (["gen", "--family", "gh", "--d", "{}", "--defect", "1"], "--d"),
    (["gen", "--family", "gh", "--d", "4", "--rank", "{}"], "--rank"),
    (["gen", "--family", "gh", "--d", "4", "--defect", "{}"], "--defect"),
    (["gen", "--family", "sum", "--d", "4", "--defect", "1", "--t", "{}"], "--t"),
    (["gen", "--family", "gh", "--d", "4", "--defect", "1", "--seed", "{}"], "--seed"),
    (["capable", "h.json", "--random-lines", "{}"], "--random-lines"),
    (["capable", "h.json", "--seed", "{}"], "--seed"),
    (["sweep", "--d", "3", "--defect", "1", "--t", "0", "--seeds", "{}"], "--seeds"),
    (["sweep", "--d", "3", "--defect", "1", "--t", "0", "--jobs", "{}"], "--jobs"),
    (["sweep", "--d", "3", "--defect", "1", "--t", "0", "--max-cases", "{}"], "--max-cases"),
])
@pytest.mark.parametrize("text", ["1_0", " 3", "3 ", "+3", "\u0664", "\uff13", "0x3", "3.0", ""])
def test_integer_options_take_ascii_decimals_only(ws, capsys, argv, option, text):
    # int() reads the first five: "--n 1_0" used to build A(10), "--d ٤" d = 4
    docio.write_document("h.json", heisenberg(1))
    with pytest.raises(SystemExit) as exc:
        main([x.format(text) for x in argv] + (["--out", "g.json"] if argv[0] == "gen" else []))
    assert exc.value.code == 2
    assert f"error: argument {option}: {text!r} is not an ASCII decimal integer\n" in capsys.readouterr().err
    assert not Path("g.json").exists()


def test_integer_options_still_take_signed_decimals(ws, capsys):
    assert main(["gen", "--family", "abelian", "--n", "007", "--out", "a.json"]) == 0
    assert docio.read_document("a.json")[0].dim == 7
    assert main(["gen", "--family", "abelian", "--n", "-1", "--out", "a.json"]) == 2
    assert capsys.readouterr().err.endswith("error: dimension must be nonnegative\n")


def test_sweep_empty_grid_exits_2(ws, capsys):
    assert main(["sweep", "--d", "3", "--defect", "5", "--jobs", "1"]) == 2
    assert "no cases" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["analyze", "a.json", "--json"], ["cover", "a.json", "--json"],
    ["capable", "a.json", "--json"], ["oracle-compare", "a.json", "--json"],
    ["sweep", "--include-printed-j2"],
])
def test_removed_options_are_rejected(ws, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_gen_json_status(ws, capsys):
    assert main(["gen", "--family", "heisenberg", "--m", "1", "--json",
                 "--out", "h.json"]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status == {"dim": 3, "class": 2, "dim_derived": 1,
                      "center_equals_derived": True}


def test_sweep_nonpositive_jobs_exits_2(ws, capsys):
    for jobs in ("0", "-1"):
        assert main(["sweep", "--d", "3", "--defect", "1", "--t", "0", "--seeds", "0",
                     "--jobs", jobs]) == 2
    assert "jobs must be a positive integer" in capsys.readouterr().err


def test_negative_counts_exit_2(ws, capsys):
    # a negative count used to run an empty range: canonical cases only, or no random line
    from ghlie.report import capability_by_quotients
    from ghlie.sweep import run_sweep

    with pytest.raises(ValueError, match="seeds must be nonnegative"):
        run_sweep(SweepConfig(d_values=(3,), defects=(1,), t_values=(0,), seeds=-1, jobs=1))
    with pytest.raises(ValueError, match="random lines must be nonnegative"):
        capability_by_quotients(heisenberg(2), random_lines=-1)
    assert main(["sweep", "--d", "3", "--defect", "1", "--t", "0", "--seeds", "-1", "--jobs", "1"]) == 2
    assert capsys.readouterr().err == "error: the number of seeds must be nonnegative, got -1\n"
    # a negative t used to fail inside abelian(), with a message naming no option
    with pytest.raises(ValueError, match="t_values must be nonnegative"):
        run_sweep(SweepConfig(d_values=(3,), defects=(1,), t_values=(0, -1), seeds=0, jobs=1))
    assert main(["sweep", "--d", "3", "--defect", "1", "--t", "-1", "--seeds", "0"]) == 2
    assert capsys.readouterr().err == "error: t_values must be nonnegative, got [-1]\n"
    docio.write_document("h2.json", heisenberg(2))
    assert main(["capable", "h2.json", "--random-lines", "-1"]) == 2
    assert capsys.readouterr().err == "error: the number of random lines must be nonnegative, got -1\n"
    # zero stays a valid count
    assert main(["capable", "h2.json", "--random-lines", "0"]) == 0
    assert len(json.loads(capsys.readouterr().out)["evidence"]) == 1


@pytest.mark.parametrize("jobs, cores, workers", [
    (100_000, 2, 2),    # capped by the cores
    (100_000, 64, 4),   # capped by the 4 cases
    (3, 64, 3),
    (1, 64, None),      # serial: no pool at all
])
def test_sweep_pool_size_is_capped(monkeypatch, jobs, cores, workers):
    # A stub pool records what would be forked; no real pool starts here.
    import ghlie.sweep as sweep

    requested = []

    class StubPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", StubPool)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: cores)
    cfg = sweep.SweepConfig(d_values=(3, 4), defects=(1,), t_values=(0,), seeds=1,
                            with_oracle=False, jobs=jobs)
    report = sweep.run_sweep(cfg)
    assert report["summary"]["cases"] == 4
    assert requested == ([workers] if workers else [])


# --- Jacobi scan only on input the class-2 certificate rejects ------------------------

def _cli_table(seed):
    """Valid class 2, class 3, a random table (Jacobi almost always fails) or A(0)."""
    rng = random.Random(seed)
    kind = seed % 4
    if kind == 0:
        a = (seeded_gh(3, 1, seed), random_class2(3, seed), direct_sum(heisenberg(1), abelian(1)))[rng.randrange(3)]
    elif kind == 1:
        a = hopf.cover_construct(hopf.presentation_from_class2(heisenberg(1))).algebra
    elif kind == 2:
        n = rng.randint(3, 4)
        pairs = list(itertools.combinations(range(n), 2))
        a = LieAlgebra(n, [f"v{k}" for k in range(n)], {
            p: {k: Fraction(rng.randint(-2, 2)) for k in rng.sample(range(n), rng.randint(1, 2))}
            for p in rng.sample(pairs, rng.randint(1, len(pairs)))
        })
    else:
        return abelian(0)
    return _in_rational_basis(a, rng)


def _in_rational_basis(a, rng):
    """a in a seeded rational basis, off the basis contract."""
    while True:
        m = Matrix.from_dense([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(a.dim)]
                               for _ in range(a.dim)])
        if mat_rank(m) == a.dim:
            return change_of_basis(a, m)


def test_jacobi_scan_only_on_rejected_input_matches_full_scan(ws, capsys):
    # exit code, stdout and stderr equal those of a full Jacobi scan of the document
    # before each command: exit 4 if it finds a triple, else the command's own result
    codes = set()
    for seed in range(24):
        docio.write_document("t.json", _cli_table(seed))
        bad = jacobi_check(docio.read_document("t.json")[0])
        for argv in (["analyze", "--oracle"], ["cover"], ["capable"], ["oracle-compare"]):
            got = main(argv + ["t.json"]), *capsys.readouterr()
            if bad:
                want = 4, "", f"error: Jacobi identity fails on triples {bad[:5]}\n"
            else:
                want = main(argv + ["t.json"]), *capsys.readouterr()
            assert got == want, (seed, argv)
            codes.add(got[0])
    assert {0, 2, 4} <= codes


# --- the cover command's output, pinned -----------------------------------------------

def _cover_documents():
    """name -> (algebra, family) of the documents whose `cover` output is pinned."""
    return {
        "canonical-d3-defect1": (canonical_gh(3, 1), "gh"),
        "canonical-d4-defect2": (canonical_gh(4, 2), "gh"),
        "canonical-d4-defect3-deficient": (canonical_gh(4, 3, "deficient"), "gh"),
        "canonical-d5-defect3": (canonical_gh(5, 3), "gh"),
        "seeded-d6-defect1": (seeded_gh(6, 1, 0), "gh"),
        "A(0)": (abelian(0), "abelian"),
        "A(3)": (abelian(3), "abelian"),
        "H(2)": (heisenberg(2), "heisenberg"),
        "H(1)+A(1)": (direct_sum(heisenberg(1), abelian(1)), "sum"),
        "rational-d4-defect1": (_in_rational_basis(seeded_gh(4, 1, 0), random.Random(4)), "gh"),
        "rational-d5-defect1": (_in_rational_basis(seeded_gh(5, 1, 0), random.Random(5)), "gh"),
    }


# sha256 of json.dumps([exit code, stdout, stderr, --out document]); the last three
# inputs are off the basis contract, and their cover labels follow the rebase
_COVER_SHA256 = {
    "canonical-d3-defect1": "da241951a86b1e71048b93941b3b74e8d0d7165cdb5df90560a2805d148c6bbb",
    "canonical-d4-defect2": "0073b19dd03c5738ae25c2d1ebe9ba4526cef3095dd6142178bcc8d2eb973626",
    "canonical-d4-defect3-deficient": "d6698d612b4839bd87f81a304b3729cafd34248bbf257ce2273f03b033047818",
    "canonical-d5-defect3": "00f7cfbe262a7f58e42230d73361885b8b26b605cf4c96fa45ff244b8e9107e4",
    "seeded-d6-defect1": "8017d4cb78910bd72fd944aa81493be22438957f5c44a4043f551627b841b22a",
    "A(0)": "3e8313994f9c57208d79ed98ccf34d77bb48473ac9c5a410e5113c15d0056095",
    "A(3)": "59cdf866a3f1f4ae6e09f9e46b17ffa97f8efbb8676322fb97400d8cf97a1ed8",
    "H(2)": "a78e98f801052c3b5d61ab3c90be396ab28dbcb0e96994a036331d0fb23749cc",
    "H(1)+A(1)": "31d57f898889c3fb275c657681da25d6a19ff456d6f685b6af46a173cbe9861c",
    "rational-d4-defect1": "9d73dc3e8ff61ba8d346f5eaf76b25b0b6b9b83abb453721a40edbfd0fb2201f",
    "rational-d5-defect1": "8159188a51b8af84ca9249fd31c904720de1a119981e755be9df6ca50ff62eea",
}


def test_cover_output_matches_pinned_digests(ws, capsys):
    got = {}
    for name, (a, family) in _cover_documents().items():
        docio.write_document("l.json", a, {"family": family})
        code = main(["cover", "l.json", "--out", "c.json"])
        out, err = capsys.readouterr()
        text = Path("c.json").read_text(encoding="utf-8")
        got[name] = hashlib.sha256(json.dumps([code, out, err, text]).encode("utf-8")).hexdigest()
    assert got == _COVER_SHA256


# sha256 of json.dumps([exit code, stdout, stderr]) of each report command on each
# _cover_documents() entry; capable on A(0) and A(3) exits 2 (abelian input)
_REPORT_SHA256 = {
    "analyze --oracle canonical-d3-defect1":
        "a749766715ccd23dc6b09f571fce5d681302dda52c4515a43c47fcb4555f3877",
    "capable canonical-d3-defect1": "94c74b8b7079f2fa357654bb10c2f393b83ee141b132d798bc1886380408daf9",
    "oracle-compare canonical-d3-defect1": "11fa8e14481e7dd651ad59bcb046c2559ead124c82cea7cabf586822e0b528a0",
    "analyze --oracle canonical-d4-defect2":
        "de0b5688dda032eb2734578f54536e898a69fb3e640f9c40b93b35486e5ee495",
    "capable canonical-d4-defect2": "1d191375b40952cbb46fc632a183bb5d142b419a2fe39ccd07e14ecd35a62da6",
    "oracle-compare canonical-d4-defect2": "e12f9066e8f46ff7086d6f6eece8153c010720b4b503aa8100e8071a89fe3ffe",
    "analyze --oracle canonical-d4-defect3-deficient":
        "7db7d0d7965f91eb963bfc0c1ddfb9051874c866cbc6c4e9fe4b9ce5fa3942fe",
    "capable canonical-d4-defect3-deficient":
        "f05fe61d2e84cc9ea6988d3c95a02091485d50e560ad79fe74ae1bc6493ab566",
    "oracle-compare canonical-d4-defect3-deficient":
        "6abcea224ba9cfa33ddcc419c40d0a4032b023dd975c9cbe56f94e9b48bc3cee",
    "analyze --oracle canonical-d5-defect3":
        "329d245147ed2fdcc2a7229d02453a24467c051f7468cac2fbf72f2586b8516e",
    "capable canonical-d5-defect3": "fd8cbccf5a3f3df53770671b9ee08c77d52f5eb5b8c1d3d2f451c0140026a793",
    "oracle-compare canonical-d5-defect3": "1e67c61b04aaa8398133965cac9356f8f60a801a985c5e327c756be2673657c8",
    "analyze --oracle seeded-d6-defect1": "5a5fee7f0aad95553cd2adfc14169005f37e64ab23ade176b359c7777a6bd026",
    "capable seeded-d6-defect1": "764206b9cd671f11d688d64dc0b4bc00724cc8556e0a8292474f55dfa1b9429c",
    "oracle-compare seeded-d6-defect1": "de8e013b083428bc4482c73f218dea0a4a067c0fade62eae731ddeb09852f8de",
    "analyze --oracle A(0)": "2c4dd8c1b2b221433f95c56e2da134fde15badfdaf372c8f0b0ac0343d555351",
    "capable A(0)": "58badccabd367aac124df6da7deb0fddebc8d5997ab6b538b8037285f4dd810d",
    "oracle-compare A(0)": "35d0f295544683fcc73a48581fa584bcd151ee571eac92471ddd91b0a6e29aa8",
    "analyze --oracle A(3)": "899a71f39d69d338a4eae0dd34859472e223d6f3ac15eea263b7e4aaadd53bb1",
    "capable A(3)": "58badccabd367aac124df6da7deb0fddebc8d5997ab6b538b8037285f4dd810d",
    "oracle-compare A(3)": "db46c8f87c7a462886ba4aa7d946d5a63d55de9be63eab6f6fe49fc0f5396ac3",
    "analyze --oracle H(2)": "1e6299a2bf60ace406f18a76852acf17f543bc40cad8de45b999fdf5d48169a5",
    "capable H(2)": "681aac45d8d9c0103b68725164155b552302a19d50240df6df1e4f7da6fb2a31",
    "oracle-compare H(2)": "6bf5ce6c1eb9feddebf04f02f23453f4bd41d718e9083b239165c6ae08027a76",
    "analyze --oracle H(1)+A(1)": "4fbed341a3f5940bbb20fb989d0226120cb17d9e2b6e94477aa53703d97a8dca",
    "capable H(1)+A(1)": "b64b4f84c122f1354f83e4f0cc8012abe537f5d35e9d07d27ffbb683b5422aa8",
    "oracle-compare H(1)+A(1)": "b762f5686c10dc7df2f881f73335f8697f3ef1cc7ca7ab18d9dd5757cec2960c",
    "analyze --oracle rational-d4-defect1":
        "e6f5af165d65c1a26cb6eaf102de3b2d2640120664df9b2a034a71a7eccefba6",
    "capable rational-d4-defect1": "1aa042956cd1cd5aa70f63b5a5205095055f6569ca950eca7cd701ea503b355c",
    "oracle-compare rational-d4-defect1": "0429f46fd7bc45eeff7e4b8d313c7b862d74a5ab76d4a9d8e8da386c8b02b26b",
    "analyze --oracle rational-d5-defect1":
        "05e0aceb160fbfa66fafe9f3d743b1077b8251269eda79ced252710bd9147baa",
    "capable rational-d5-defect1": "b2fc918698635cae8beb7a435276ce7d7cda74ad72808ca704b1bb45c4c85968",
    "oracle-compare rational-d5-defect1": "5dc24bfd090faa8e8d8e8853d1a5c877c021c680443dcd5f70208fcdc30266cd",
}


def test_report_output_matches_pinned_digests(ws, capsys):
    got = {}
    for name, (a, family) in _cover_documents().items():
        docio.write_document("l.json", a, {"family": family})
        for command in ("analyze --oracle", "capable", "oracle-compare"):
            code = main([*command.split(), "l.json"])
            out, err = capsys.readouterr()
            got[f"{command} {name}"] = hashlib.sha256(json.dumps([code, out, err]).encode("utf-8")).hexdigest()
    assert got == _REPORT_SHA256


# sha256 of json.dumps([exit code, stdout, stderr, --out document]) of `gen ARGS --out g.json`
_GEN_SHA256 = {
    "--family abelian --n 0": "f4c448a37473e5ee58abd1aebe29a732c4ec4290a9e1cdc80856a2106babcbd8",
    "--family abelian --n 3 --json": "b0004f5b2a30a9f80b8c8ffc086c7faa39c2e237fa4dc782bcb7801becdfbbc6",
    "--family heisenberg --m 2": "8132a7d0bf6123ce68e1ce3b8e77f1ad0f727bf993aaa92d83e8b1be11f54fa6",
    # meta gh: false, Z=L2: False
    "--family gh --d 3 --defect 2 --canonical":
        "7feb98d67f99d4823713f8d4c35411b5f549244b89d47e2188dca5b71e2557bb",
    "--family gh --d 4 --defect 3 --canonical --variant deficient --json":
        "442cdcf69eb097f1737377691df7e0d2e8fa23c27c8e231f56cfae58e6860aa9",
    "--family gh --d 5 --rank 7 --seed 3": "be7e1462fc787d5f53d97a2cbb8cfc36ddecb36e1308465c4055ba65de2527a9",
    "--family gh --d 4 --rank 5 --kill 1,2": "60319f8a621517cf890a4a933691facdd15f7238d4f58f829a8d75d3ad66b739",
    "--family gh --d 5 --defect 1": "3700b5a0767e327066238a29f3e92641eebc94436618282b08707b795907557f",
    # meta gh: true, Z=L2: False
    "--family sum --d 4 --defect 2 --t 1 --canonical":
        "769ef1d579d6a7f699adba4cb1605ad04b4f4a0fccb8884c6a689746e527c1b6",
    # meta gh: false
    "--family sum --d 3 --defect 2 --t 2 --canonical --json":
        "0eb13f13f6eea318e152b93345685ea79f7c19944cd3963634669fd6107f72e7",
    "--family sum --d 3 --defect 1": "5be31aaaf593d9d4f0bb0b77258470ef672c97bde233da11f730703bf70a0cec",
}


def test_gen_output_matches_pinned_digests(ws, capsys):
    got = {}
    for args in _GEN_SHA256:
        code = main(["gen", *args.split(), "--out", "g.json"])
        out, err = capsys.readouterr()
        text = Path("g.json").read_text(encoding="utf-8")
        got[args] = hashlib.sha256(json.dumps([code, out, err, text]).encode("utf-8")).hexdigest()
    assert got == _GEN_SHA256


def test_gen_certifies_once(ws, capsys, monkeypatch):
    from ghlie import liealg

    calls = {"derived_subalgebra": 0, "center": 0}
    for name in calls:
        def counted(*args, _fn=getattr(liealg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for module in (liealg, cli):
            monkeypatch.setattr(module, name, counted, raising=False)
    assert main(["gen", "--family", "gh", "--d", "5", "--defect", "1"]) == 0
    # the gh_construct certificate, then the one rebase that every status field reads
    assert calls == {"derived_subalgebra": 1, "center": 2}


def test_os_errors_exit_2(ws, capsys):
    # a directory where a file is read or written is an error line, not a traceback
    docio.write_document("h.json", heisenberg(1))
    os.mkdir("d")
    for argv in (["analyze", "d"], ["cover", "d"], ["capable", "d"], ["oracle-compare", "d"],
                 ["gen", "--family", "heisenberg", "--m", "1", "--out", "d"],
                 ["cover", "h.json", "--out", "d"],
                 ["sweep", "--d", "3", "--defect", "1", "--t", "0", "--seeds", "0", "--out", "d"]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err and err.count("\n") == 1, argv


def test_cover_labels_follow_the_rebased_generators(ws, capsys):
    # H(1)+A(1) is x1, x2, z, a1 with z = [x1, x2]: its generators are x1, x2, a1
    docio.write_document("l.json", direct_sum(heisenberg(1), abelian(1)))
    assert main(["cover", "l.json", "--out", "c.json"]) == 0
    doc = json.loads(Path("c.json").read_text(encoding="utf-8"))
    assert doc["labels"][:6] == ["x1", "x2", "a1", "[x1,x2]", "[x1,a1]", "[x2,a1]"]
