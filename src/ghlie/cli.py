"""Command-line surface.

Subcommands: gen, analyze, cover, capable, sweep, oracle-compare.  gen reads
one table of the options each family takes; a gh algebra comes from at most
one of --kill, --canonical and --seed (seed 0 if none).
Exit codes: 0 ok; 2 usage, parse or I/O error (including an empty sweep grid
or a negative grid value, a nonpositive --jobs, capable on an abelian input,
class > 2 input, and meta that contradicts the algebra: analyze reads meta d
and checks meta defect, t and variant against the values it derives);
3 construction failure; 4 Jacobi violation; 5 unexpected mismatch.  Exit codes
2-4 come from the exception types the library raises; liealg.rebase_class2
tells a Jacobi violation from class > 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys

from . import docio, hopf
from .fixtures import canonical_gh, relations_from_pairs
from .liealg import (
    CenterViolation,
    GhSpec,
    JacobiViolation,
    LieAlgebra,
    abelian,
    direct_sum,
    gh_construct,
    heisenberg,
    rebase_class2,
)
from .report import ContextError, analyze, capability_by_quotients
from .sweep import SweepConfig, run_sweep, sweep_exit_code


def _decimal(text: str) -> int:
    """An integer written -?[0-9]+ in ASCII; int() alone also reads '1_0', ' 3', '+3' and '٤'."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"{text!r} is not an ASCII decimal integer")
    return int(text)


def _parse_range(text: str, option: str) -> list[int]:
    """'lo..hi' (lo <= hi) or a comma list of integers -> the list of values."""
    try:
        if ".." in text:
            lo, hi = (_decimal(x) for x in text.split("..", 1))
            if lo > hi:
                raise docio.DocumentError(f"{option} {text!r} is a descending range; write {hi}..{lo}")
            return list(range(lo, hi + 1))
        return [_decimal(x) for x in text.split(",") if x]
    except argparse.ArgumentTypeError:
        raise docio.DocumentError(
            f"{option} {text!r} must look like lo..hi or a comma list of integers"
        ) from None


def _emit(doc: dict, path: str | None) -> None:
    payload = docio.dumps(doc)
    if path:
        with open(path, "w", encoding="utf-8") as f:
            f.write(payload)
    else:
        sys.stdout.write(payload)


def _parse_kill(text: str, d: int) -> list[tuple[int, int]]:
    """1-based pairs 'i,j;k,l' -> 0-based (min, max) pairs of distinct generators."""
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            i, j = (_decimal(x) for x in chunk.split(","))
        except (ValueError, argparse.ArgumentTypeError):  # ValueError: not two items
            raise docio.DocumentError(f"--kill pair {chunk!r} must look like i,j") from None
        if i == j or not (1 <= i <= d and 1 <= j <= d):
            raise docio.DocumentError(f"--kill pair {chunk!r} needs two distinct generators in 1..{d}")
        pairs.append((min(i, j) - 1, max(i, j) - 1))
    return pairs


# gen's options, in the order an error names them.  Each defaults to None, so
# one that was given shows, and each family reads only its own, required first.
_GEN_OPTIONS = ("t", "n", "m", "d", "rank", "defect", "kill", "canonical", "seed", "variant")
_GH_OPTIONS = ("d", "rank", "defect", "kill", "canonical", "seed", "variant")
_FAMILIES = {"abelian": ("n",), "heisenberg": ("m",), "gh": _GH_OPTIONS, "sum": (*_GH_OPTIONS, "t")}


def _build_gh(args) -> tuple[LieAlgebra, dict]:
    d = args.d
    max_rank = d * (d - 1) // 2
    if args.rank is not None:
        rank = args.rank
    elif args.defect is not None:
        # Below 3 generators the construction's own message names --d.
        if d >= 3 and not 0 <= args.defect < max_rank:
            raise docio.DocumentError(f"--defect must be in 0..{max_rank - 1} at --d {d}, got {args.defect}")
        rank = max_rank - args.defect
    else:
        raise docio.DocumentError("need --rank or --defect")
    defect = max_rank - rank
    if args.variant is not None and args.canonical is None:
        raise docio.DocumentError(f"--variant {args.variant} needs --canonical")
    # One construction at most; none draws with seed 0.
    given = [option for option in ("kill", "canonical", "seed") if getattr(args, option) is not None]
    if len(given) > 1:
        raise docio.DocumentError(f"--{given[0]} cannot be combined with --{given[1]}")
    meta = {"family": "gh", "d": d, "rank": rank, "defect": defect}
    if args.kill is not None:
        rel = relations_from_pairs(d, _parse_kill(args.kill, d))
        a = gh_construct(GhSpec(d=d, rank=rank, relation_subspace=rel))
        meta["relations"] = args.kill
    elif args.canonical:
        variant = args.variant or "generic"
        a = canonical_gh(d, defect, variant)
        meta.update(variant=variant, canonical=True)
    else:
        seed = args.seed or 0
        a = gh_construct(GhSpec(d=d, rank=rank, seed=seed))
        meta["seed"] = seed
    return a, meta


def cmd_gen(args) -> int:
    reads = _FAMILIES[args.family]
    stray = [f"--{option}" for option in _GEN_OPTIONS if option not in reads and getattr(args, option) is not None]
    if stray:
        raise docio.DocumentError(f"{', '.join(stray)} cannot be used with --family {args.family}")
    if getattr(args, reads[0]) is None:
        raise docio.DocumentError(f"--{reads[0]} is required for the {args.family} family")
    if args.family == "abelian":
        a, meta = abelian(args.n), {"family": "abelian", "n": args.n}
    elif args.family == "heisenberg":
        a, meta = heisenberg(args.m), {"family": "heisenberg", "m": args.m}
    else:  # gh or sum, as argparse restricts the choices; only sum takes --t
        a, meta = _build_gh(args)
        t = args.t or 0
        a = direct_sum(a, abelian(t))
    # Every reported invariant comes from the one class-2 certificate, which proves
    # L² ⊆ Z(L): Z(L) = L² iff their dimensions agree.
    _, rel2, z = rebase_class2(a)
    r = rel2.ambient_dim - rel2.dim
    if args.family in ("gh", "sum"):
        # Z(H ⊕ A(t)) = Z(H) ⊕ A(t), so H is generalized Heisenberg iff dim Z(L) = r + t.
        meta["gh"] = z.dim == r + t
    if args.family == "sum":
        meta = dict(meta, family="sum", t=t)
    _emit(docio.algebra_to_document(a, meta), args.out)
    status = {
        "dim": a.dim,
        "class": 2 if r else min(a.dim, 1),
        "dim_derived": r,
        "center_equals_derived": z.dim == r,
    }
    out = sys.stdout if args.out else sys.stderr
    if args.json:
        print(json.dumps(status), file=out)
    else:
        print(
            f"dim={status['dim']} class={status['class']} "
            f"dimL2={status['dim_derived']} Z=L2: {status['center_equals_derived']}",
            file=out,
        )
    return 0


def cmd_analyze(args) -> int:
    a, meta = docio.read_document(args.path)
    try:
        rep = analyze(
            a,
            d=meta.get("d"),
            with_oracle=args.oracle,
            include_suspect=not args.skip_suspect_forms,
            provenance=meta.get("family", ""),
        )
    except ContextError as e:
        raise docio.DocumentError(f"meta {e}") from None
    for key in ("defect", "t", "variant"):
        if key in meta and meta[key] != getattr(rep, key):
            raise docio.DocumentError(
                f"meta {key} is {meta[key]!r}, but the algebra gives {getattr(rep, key)!r}"
            )
    print(json.dumps(rep.to_dict(), indent=2))
    return 0 if rep.match else 5


def cmd_cover(args) -> int:
    a, meta = docio.read_document(args.path)
    pres = hopf.presentation_from_class2(a)
    cov = hopf.cover_construct(pres)
    rep = hopf.verify_cover(pres.target, cov.algebra, cov.central_ideal)
    b_rows = [docio.vector_to_json(v) for v in cov.central_ideal.vectors()]
    out_meta = dict(meta, B=b_rows, cover_of=meta.get("family", ""))
    _emit(docio.algebra_to_document(cov.algebra, out_meta), args.out)
    report = {
        ("class" if key == "nilpotency_class" else key): value
        for key, value in dataclasses.asdict(rep).items()
        if key != "expected_class"
    }
    report["ok"] = rep.ok
    stream = sys.stdout if args.out else sys.stderr
    print(json.dumps(report, indent=2), file=stream)
    return 0 if rep.ok else 5


def cmd_capable(args) -> int:
    a, _ = docio.read_document(args.path)
    rep = capability_by_quotients(a, random_lines=args.random_lines, seed=args.seed)
    doc = dataclasses.asdict(rep)
    for e in doc["evidence"]:
        e["line"] = docio.vector_to_json(e["line"])
    doc["all_quotients_drop"] = rep.all_quotients_drop
    print(json.dumps(doc, indent=2))
    return 0


def cmd_sweep(args) -> int:
    cfg = SweepConfig(
        d_values=tuple(_parse_range(args.d, "--d")),
        defects=tuple(_parse_range(args.defect, "--defect")),
        t_values=tuple(_parse_range(args.t, "--t")),
        seeds=args.seeds,
        include_suspect=not args.skip_suspect_forms,
        with_oracle=not args.no_oracle,
        max_cases=args.max_cases,
        jobs=args.jobs,
    )
    report = run_sweep(cfg)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
    summary = report["summary"]
    if args.json:
        print(json.dumps(summary))
    else:
        print(
            f"cases={summary['cases']} matching={summary['rows_matching']} "
            f"expected_mismatches={summary['expected_mismatches']} "
            f"unexpected={summary['unexpected_mismatches']}"
        )
    return sweep_exit_code(report)


def cmd_oracle_compare(args) -> int:
    a, _ = docio.read_document(args.path)
    rep = analyze(a, with_oracle=True, check_ker_beta=True)
    formula = {k: rep.dims[k] for k in ("m_L", "wedge")}
    oracle = {k: rep.oracle[k] for k in ("m_L", "wedge")}
    kb = rep.oracle["ker_beta_matches"]
    agree = formula == oracle and kb
    print(json.dumps({
        "formula": formula,
        "oracle": oracle,
        "ker_beta_matches": kb,
        "agree": agree,
    }, indent=2))
    return 0 if agree else 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghlie",
        description="Schur multipliers, exterior/tensor squares, capability and "
        "covers of class-2 nilpotent Lie algebras over Q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="construct an algebra and write its document")
    gen.add_argument("--family", required=True, choices=["gh", "abelian", "heisenberg", "sum"])
    gen.add_argument("--d", type=_decimal)
    gen.add_argument("--rank", type=_decimal)
    gen.add_argument("--defect", type=_decimal)
    gen.add_argument("--n", type=_decimal, help="dimension for --family abelian")
    gen.add_argument("--m", type=_decimal, help="index for --family heisenberg")
    gen.add_argument("--t", type=_decimal, help="abelian summand dimension for --family sum")
    gen.add_argument("--seed", type=_decimal, help="seed of a drawn gh algebra (default 0)")
    gen.add_argument("--canonical", action="store_true", default=None)
    gen.add_argument("--variant", choices=["generic", "deficient"], help="canonical gh variant (default generic)")
    gen.add_argument("--kill", help="explicit relations, e.g. '1,2;3,4' (1-based pairs)")
    gen.add_argument("--out")
    gen.add_argument("--json", action="store_true")
    gen.set_defaults(func=cmd_gen)

    an = sub.add_parser("analyze", help="dimension report for a document")
    an.add_argument("path")
    an.add_argument("--oracle", action="store_true")
    an.add_argument("--skip-suspect-forms", action="store_true")
    an.set_defaults(func=cmd_analyze)

    cov = sub.add_parser("cover", help="construct and verify the cover")
    cov.add_argument("path")
    cov.add_argument("--out")
    cov.set_defaults(func=cmd_cover)

    cap = sub.add_parser("capable", help="capability verdict with quotient evidence")
    cap.add_argument("path")
    cap.add_argument("--random-lines", type=_decimal, default=4)
    cap.add_argument("--seed", type=_decimal, default=0)
    cap.set_defaults(func=cmd_capable)

    sw = sub.add_parser("sweep", help="grid sweep against the printed formulas")
    sw.add_argument("--d", default="3..6")
    sw.add_argument("--defect", default="1..3")
    sw.add_argument("--t", default="0..2")
    sw.add_argument("--seeds", type=_decimal, default=5)
    sw.add_argument("--out")
    sw.add_argument("--jobs", type=_decimal, help="worker processes (at most the case and core counts)")
    sw.add_argument("--max-cases", type=_decimal, default=5000)
    sw.add_argument("--no-oracle", action="store_true")
    sw.add_argument(
        "--skip-suspect-forms", action="store_true",
        help="drop the ledgered suspect printed forms from comparison",
    )
    sw.add_argument("--json", action="store_true")
    sw.set_defaults(func=cmd_sweep)

    oc = sub.add_parser("oracle-compare", help="formula route vs Hopf oracle")
    oc.add_argument("path")
    oc.set_defaults(func=cmd_oracle_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as e:  # ValueError includes DocumentError and ClassTwoRequired
        print(f"error: {e}", file=sys.stderr)
        return 3 if isinstance(e, CenterViolation) else 4 if isinstance(e, JacobiViolation) else 2


if __name__ == "__main__":
    sys.exit(main())
