"""Command-line front end: run axiom checks, emit coproduct tables, verify
Hall numbers and coassociativity.

Exit codes: 0 all checks pass, 1 a check failed, 2 invalid input.
All numeric output is exact rational text ("p/q", integers as "p"); repeated
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .coalgebra import check_coassociativity, comultiplication, hall_number
from .errors import DecspaceError, UnknownKey
from .gallery import (
    PosetSpec,
    binomial_B,
    forests_H,
    graphs_G,
    injections_I,
    nerve_of_poset,
    vect_S,
)
from .gallery.forests import render_forest_key
from .gallery.graphs import render_graph_key
from .report import CheckReport
from .simplicial import (
    check_decalage,
    check_decomposition,
    check_extra_pullbacks,
    check_segal,
    corrupted_variant,
)

DEFAULT_LEVEL = 3
# One entry per named space: (default grade bound, constructor from
# (grade bound, level, q), rendering of a level-1 iso-class key).  Spaces
# carry no presentation; only `coproduct` prints a key.
FAMILIES = {
    "binomial": (4, lambda b, n, q: binomial_B(b, n), lambda k: str(k[0])),
    "injections": (3, lambda b, n, q: injections_I(b, n)[0], lambda k: f"{k[0]}->{k[1]}"),
    "forests": (4, lambda b, n, q: forests_H(b, n), render_forest_key),
    "graphs": (3, lambda b, n, q: graphs_G(b, n), render_graph_key),
    "vect": (2, lambda b, n, q: vect_S(q, b, n), lambda k: str(k[0][-1])),
}


def fmt_fraction(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def build_space(args) -> tuple:
    """Resolve the space argument to (TruncSimpGrpd, grade bound, level-1 key
    renderer)."""
    name = args.space
    bound = None
    flags = []
    for flag in ("grade", "max", "nodes", "vertices", "dim"):
        val = getattr(args, flag)
        if val is not None:
            if val < 0:
                raise DecspaceError(f"--{flag} must be >= 0, got {val}")
            bound = val
            flags.append(f"--{flag}")
    if len(flags) > 1:
        raise DecspaceError(f"give one grade bound, got {' and '.join(flags)}")
    if name.startswith("poset:"):
        if flags:
            raise DecspaceError(f"{flags[0]} does not apply to a poset space")
        path = name.split(":", 1)[1]
        default, make = 0, lambda b, n, q: nerve_of_poset(PosetSpec.from_file(path), n)
        render = lambda k: f"{k[0]}<={k[1]}"
    elif name in FAMILIES:
        default, make, render = FAMILIES[name]
    else:
        raise DecspaceError(f"unknown space {name!r}")
    if args.q is not None and name != "vect":
        raise DecspaceError("--q applies only to vect")
    if bound is None:
        bound = default
    space = make(bound, args.level, 2 if args.q is None else args.q)
    if args.corrupt_seed is not None:
        space, _ = corrupted_variant(space, args.corrupt_seed)
    return space, bound, render


def _add_space_args(p):
    p.add_argument("space", help="binomial|injections|forests|graphs|vect|poset:FILE")
    p.add_argument("--level", type=int, default=DEFAULT_LEVEL)
    p.add_argument("--grade", type=int, default=None, help="grade bound")
    p.add_argument("--max", type=int, default=None, help="alias for --grade (sets)")
    p.add_argument("--nodes", type=int, default=None, help="alias for --grade (forests)")
    p.add_argument("--vertices", type=int, default=None, help="alias for --grade (graphs)")
    p.add_argument("--dim", type=int, default=None, help="alias for --grade (vect)")
    p.add_argument("--q", type=int, default=None, help="field size (vect only, default 2)")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.add_argument(
        "--corrupt-seed",
        type=int,
        default=None,
        help="perturb one structure map (negative-control fixture)",
    )


def _emit_reports(reports: list[CheckReport], fmt: str) -> None:
    if fmt == "json":
        payload = [r.to_json_dict() for r in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload, sort_keys=True))
        return
    for r in reports:
        print(r.summary())
        for sq in r.squares:
            state = "ok" if sq.passed else "FAIL"
            line = f"  [{state}] {sq.desc}"
            if sq.witness:
                line += f" -- {sq.witness}"
            print(line)


def cmd_check(args) -> int:
    space, _, _ = build_space(args)
    checks = {
        "segal": check_segal,
        "decomposition": check_decomposition,
        "decalage": check_decalage,
        "extra": check_extra_pullbacks,
    }
    if args.which == "all":
        selected = list(checks.values())
    else:
        selected = [checks[args.which]]
    reports = [fn(space) for fn in selected]
    _emit_reports(reports, args.format)
    return 0 if all(r.passed for r in reports) else 1


def cmd_coproduct(args) -> int:
    space, bound, render = build_space(args)
    mat = comultiplication(space, bound)
    rows = sorted(
        ((render(f), render(a), render(b), coeff) for ((a, b), f), coeff in mat.entries.items()),
        key=lambda r: (r[0], r[1], r[2]),
    )
    if args.element is not None:
        rows = [r for r in rows if r[0] == args.element]
        if not rows:
            valid = sorted({render(f) for ((a, b), f) in mat.entries})
            raise UnknownKey(
                f"element {args.element!r} not found; known keys: {', '.join(valid)}"
            )
    if args.format == "json":
        print(
            json.dumps(
                [
                    {"f": f, "a": a, "b": b, "coefficient": fmt_fraction(c)}
                    for (f, a, b, c) in rows
                ],
                sort_keys=True,
            )
        )
    else:
        print("f,a,b,coefficient")
        for (f, a, b, c) in rows:
            print(f"{f},{a},{b},{fmt_fraction(c)}")
    return 0


def cmd_hall(args) -> int:
    res = hall_number(args.q, args.n, args.k)
    verdict = "MATCH" if res.match else "MISMATCH"
    print(
        f"enumerated={fmt_fraction(res.coefficient)} "
        f"gaussian={fmt_fraction(res.gaussian)} {verdict}"
    )
    return 0 if res.match else 1


def cmd_coassoc(args) -> int:
    space, bound, _ = build_space(args)
    report = check_coassociativity(space, bound)
    _emit_reports([report], args.format)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="decspace",
        description="axiom checks and exact incidence coalgebras for simplicial groupoids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run an axiom checker suite")
    _add_space_args(p_check)
    p_check.add_argument(
        "which",
        nargs="?",
        default="all",
        choices=("segal", "decomposition", "decalage", "extra", "all"),
    )
    p_check.set_defaults(fn=cmd_check)

    p_cop = sub.add_parser("coproduct", help="emit the comultiplication table")
    _add_space_args(p_cop)
    p_cop.add_argument("--element", default=None, help="single column at this key")
    p_cop.set_defaults(fn=cmd_coproduct)

    p_hall = sub.add_parser("hall", help="Hall number against the Gaussian binomial")
    p_hall.add_argument("--q", type=int, required=True)
    p_hall.add_argument("--n", type=int, required=True)
    p_hall.add_argument("--k", type=int, required=True)
    p_hall.set_defaults(fn=cmd_hall)

    p_co = sub.add_parser("coassoc", help="verify coassociativity and counit laws")
    _add_space_args(p_co)
    p_co.set_defaults(fn=cmd_coassoc)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DecspaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
