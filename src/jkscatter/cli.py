"""Command-line surface: quiver ingestion, command dispatch, JSON reports.

Exit codes: 0 success / verification pass, 1 verification fail, 2 input
error or closed stdout, 3 non-regular stability.  Reports are byte-stable
for fixed inputs and seeds (no timestamps, sorted keys, exact "p/q"
rationals).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from math import gcd, prod

from .arrangement import build_arrangement, sample_rcharges
from .errors import (JKScatterError, NonRegularStability, ParseError,
                     ValidationError)
from .exact import ZERO
from .quiver import (DimVector, Quiver, Stability, _edges, bipartite_quiver,
                     check_tree_walks, spanning_trees, support_quiver,
                     tree_components, validate_quiver)
from .quiverjk import (jk_ab, jk_ab_infinity, jk_global_ZQ, jk_tree_expansion)
from .scattering import (_cd_diagram, _check_sizes, check_scatter_work, extract_cd,
                         init_bipartite, scatter, verify_main_theorem)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_NONREGULAR = 3


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

def _rat(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from exc


def parse_quiver_file(path: str) -> tuple[Quiver, DimVector, Stability]:
    """Read a JSON quiver description and validate all three layers."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at position {exc.pos}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("schema", "the file must hold one JSON object")
    for key in ("vertices", "arrows", "dimension", "stability"):
        if key not in raw:
            raise ValidationError("schema", f"missing field {key!r}")
    try:
        arrows = [(a["tail"], a["head"]) for a in raw["arrows"]]
    except (KeyError, TypeError) as exc:
        raise ValidationError("schema", f"bad arrow entry: {exc}") from exc
    ends = [v for arrow in arrows for v in arrow]
    if not isinstance(raw["vertices"], list) or not all(
            isinstance(v, str) for v in raw["vertices"] + ends):
        raise ValidationError("schema", "vertices must be a list of strings, "
                                        "and each arrow's tail and head a string")
    if not (isinstance(raw["dimension"], dict) and isinstance(raw["stability"], dict)
            and all(type(x) is int for x in raw["dimension"].values())):
        raise ValidationError("schema", "dimension and stability must be objects keyed "
                                        "by vertex, with integer dimensions")
    negative = sorted(v for v, x in raw["dimension"].items() if x < 0)
    if negative:
        raise ValidationError("schema", f"negative dimension at {negative}")
    q = Quiver.make(raw["vertices"], arrows)
    try:
        validate_quiver(q)
    except JKScatterError as exc:
        raise ValidationError(type(exc).__name__.lower(), str(exc)) from exc
    d = DimVector.make(q, raw["dimension"])
    zeta = Stability.make(q, {v: _rat(str(x)) for v, x in raw["stability"].items()})
    try:
        zeta.check_normalized(d)
    except JKScatterError as exc:
        raise ValidationError("normalization", str(exc)) from exc
    return q, d, zeta


def _parse_blocks(text: str) -> list[list[str]]:
    return [[x for x in block.split(",") if x.strip()]
            for block in text.split(";")]


def _dim_entry(text: str) -> int:
    if not re.fullmatch(r"\s*\d+\s*", text):
        raise ParseError(f"--d entry {text!r}: expected a non-negative integer")
    return int(text)


def _bipartite_inputs(args) -> tuple[Quiver, DimVector, Stability | None]:
    for flag, size in (("--l1", args.l1), ("--l2", args.l2)):
        if size < 1:
            raise ParseError(f"{flag} {size}: K(l1, l2) needs l1, l2 >= 1")
    q = bipartite_quiver(args.l1, args.l2)
    blocks = _parse_blocks(args.d)
    if len(blocks) == 1 and len(blocks[0]) == args.l1 + args.l2:
        flat = blocks[0]
    elif len(blocks) == 2 and len(blocks[0]) == args.l1 and len(blocks[1]) == args.l2:
        flat = blocks[0] + blocks[1]
    else:
        raise ParseError(f"--d {args.d!r} does not match ({args.l1},{args.l2})")
    d = DimVector.make(q, {v: _dim_entry(x) for v, x in zip(q.vertices, flat)})
    zeta = None
    if getattr(args, "zeta", None):
        zflat = [x for b in _parse_blocks(args.zeta) for x in b]
        if len(zflat) != args.l1 + args.l2:
            raise ParseError(f"--zeta {args.zeta!r}: expected {args.l1 + args.l2} entries")
        zeta = Stability.make(q, {v: _rat(x) for v, x in zip(q.vertices, zflat)})
    return q, d, zeta


def _quiver_inputs(args) -> tuple[Quiver, DimVector, Stability]:
    if args.quiver:
        q, d, zeta = parse_quiver_file(args.quiver)
    elif args.l1 is None or args.l2 is None or not args.d or not args.zeta:
        raise ParseError("provide --quiver FILE or all of --l1/--l2/--d/--zeta")
    else:
        q, d, zeta = _bipartite_inputs(args)
        zeta.check_normalized(d)
    if d.total() == 0:
        raise ValidationError("dimension", "d is zero at every vertex")
    return q, d, zeta


def _ray(text: str | None) -> tuple[int, int] | None:
    """Parse --ray "a,b" into a primitive nonzero direction (a, b)."""
    if text is None:
        return None
    try:
        a, b = (int(x) for x in text.split(","))
    except ValueError as exc:
        raise ParseError(f"--ray {text!r}: expected two integers a,b") from exc
    if gcd(a, b) != 1:
        raise ParseError(f"--ray {text!r}: direction must be nonzero and primitive "
                         f"(gcd(a, b) = 1)")
    return a, b


def _seed(spec: str) -> int:
    """The N of --rcharges seed:N."""
    if not re.fullmatch(r"seed:-?\d+", spec):
        raise ParseError(f"--rcharges {spec!r}: expected seed:N with an integer N")
    return int(spec[5:])


def _rcharges(spec: str, count: int) -> list[Fraction]:
    """--rcharges: explicit "p/q,..." values, or the sample seed:N names."""
    if spec.startswith("seed:"):
        return sample_rcharges(count, _seed(spec))
    values = [_rat(x) for x in spec.split(",") if x.strip()]
    if len(values) != count:
        raise ParseError(f"--rcharges: expected {count} values, got {len(values)}")
    return values


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _jsonify(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(x) for x in obj]
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    return str(obj)


def _emit(report: dict, out) -> None:
    json.dump(_jsonify(report), out, sort_keys=True, indent=2)
    out.write("\n")


def _emit_csv(rows: list[dict], header: list[str], out) -> None:
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(str(_csv_cell(row.get(h, ""))) for h in header) + "\n")


def _csv_cell(v):
    v = _jsonify(v)
    if isinstance(v, (list, dict)):
        return json.dumps(v, sort_keys=True).replace(",", ";")
    return v


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_trees(args, out) -> int:
    q, d, theta = _quiver_inputs(args)
    qbar, mult = support_quiver(q, d)
    check_tree_walks([(len(qbar.vertices), _edges(qbar))])
    rows = []
    for k, tree in enumerate(spanning_trees(qbar)):
        comps = tree_components(qbar, tree, theta)
        rows.append({
            "tree": k,
            "arrows": [list(qbar.arrows[i]) for i in tree.arrows],
            "components": [comps[i] for i in tree.arrows],
            "stable": all(c < 0 for c in comps.values()),
            "multiplicity": prod(mult[i] for i in tree.arrows),
        })
    report = {
        "command": "trees",
        "inputs": {"dimension": d.as_dict(), "stability": theta.as_dict()},
        "results": {"trees": rows, "weist_count": sum(
            (row["multiplicity"] for row in rows if row["stable"]), ZERO)},
    }
    if args.csv:
        _emit_csv(rows, ["tree", "arrows", "components", "stable", "multiplicity"], out)
    else:
        _emit(report, out)
    return EXIT_PASS


def _cmd_jk(args, out) -> int:
    q, d, theta = _quiver_inputs(args)
    lam = _rat(args.lam)
    rc = _rcharges(args.rcharges, len(q.arrows))
    a = build_arrangement(q, d, rcharges=[r * lam for r in rc])
    value = jk_global_ZQ(q, theta, a)
    report = {
        "command": "jk",
        "inputs": {"dimension": d.as_dict(), "stability": theta.as_dict(),
                   "lambda": lam, "rcharges": list(a.rcharges)},
        "results": {"value": value},
    }
    tree_rows = []
    if d.is_abelian():
        tvalue, expansion = jk_tree_expansion(q, theta, a)
        for k, t in enumerate(expansion.terms):
            tree_rows.append({"tree": k, "arrows": list(t.tree), "lift": list(t.lift),
                              "point": list(t.point), "stable": t.indicator,
                              "contribution": t.local_value})
        report["results"]["tree_expansion"] = {"value": tvalue, "terms": tree_rows}
    if args.csv and tree_rows:
        _emit_csv(tree_rows, ["tree", "arrows", "lift", "stable", "contribution"], out)
    else:
        _emit(report, out)
    return EXIT_PASS


def _cmd_jk_ab(args, out) -> int:
    q, d, zeta = _quiver_inputs(args)
    seed = _seed(args.rcharges)
    if args.infinity:
        value = jk_ab_infinity(q, d, zeta)
    else:
        value = jk_ab(q, d, zeta, rseed=seed, lam=_rat(args.lam))
    report = {
        "command": "jk-ab",
        "inputs": {"dimension": d.as_dict(), "stability": zeta.as_dict(),
                   "infinity": bool(args.infinity),
                   "lambda": None if args.infinity else _rat(args.lam)},
        "results": {"value": value},
    }
    _emit(report, out)
    return EXIT_PASS


def _cmd_scatter(args, out) -> int:
    ray_filter = _ray(args.ray)  # reject a bad direction before paying for the diagram
    check_scatter_work(args.l1, args.l2, args.order)
    diagram = scatter(init_bipartite(args.l1, args.l2, args.order))
    walls = []
    for w in diagram.walls:
        if ray_filter and w.direction != ray_filter:
            continue
        walls.append({"direction": list(w.direction), "support": w.support,
                      "function": repr(w.function)})
    report = {
        "command": "scatter",
        "inputs": {"l1": args.l1, "l2": args.l2, "order": args.order,
                   "ray": list(ray_filter) if ray_filter else None},
        "results": {"walls": walls},
    }
    if args.csv:
        _emit_csv(walls, ["direction", "support", "function"], out)
    else:
        _emit(report, out)
    return EXIT_PASS


def _cmd_extract_cd(args, out) -> int:
    q, d, _zeta = _bipartite_inputs(args)
    _check_sizes(args.l1, args.l2, args.order)
    value = extract_cd(_cd_diagram(args.l1, args.l2, d, args.order), d)
    report = {
        "command": "extract-cd",
        "inputs": {"l1": args.l1, "l2": args.l2, "order": args.order,
                   "dimension": d.as_dict()},
        "results": {"c_d": value},
    }
    _emit(report, out)
    return EXIT_PASS


def _cmd_verify_main(args, out) -> int:
    q, d, zeta = _bipartite_inputs(args)
    if zeta is None:
        raise ParseError("verify-main requires --zeta")
    result = verify_main_theorem(args.l1, args.l2, d, zeta, args.order)
    report = {
        "command": "verify-main",
        "inputs": {"l1": args.l1, "l2": args.l2, "order": args.order,
                   "dimension": d.as_dict(), "stability": zeta.as_dict()},
        "results": {"passed": result.passed, "lhs": result.lhs, "rhs": result.rhs,
                    "moduli_dimension": result.moduli_dim},
    }
    _emit(report, out)
    return EXIT_PASS if result.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="jkscatter")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--quiver", help="JSON quiver file")
        p.add_argument("--l1", type=int)
        p.add_argument("--l2", type=int)
        p.add_argument("--d", help="dimension vector, e.g. 1,1;1")
        p.add_argument("--zeta", help="stability vector, e.g. 1,1,-2")

    p = sub.add_parser("trees")
    common(p)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_trees)

    p = sub.add_parser("jk")
    common(p)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--lambda", dest="lam", default="1")
    p.add_argument("--rcharges", help='explicit "p/q,..." or seed:<u64>',
                   default="seed:0")
    p.set_defaults(func=_cmd_jk)

    p = sub.add_parser("jk-ab")
    common(p)
    p.add_argument("--lambda", dest="lam", default="1")
    p.add_argument("--rcharges", help="seed:<u64>", default="seed:0")
    p.add_argument("--infinity", action="store_true")
    p.set_defaults(func=_cmd_jk_ab)

    p = sub.add_parser("scatter")
    p.add_argument("--l1", type=int, required=True)
    p.add_argument("--l2", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--ray", help="filter to one direction a,b")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_scatter)

    p = sub.add_parser("extract-cd")
    p.add_argument("--l1", type=int, required=True)
    p.add_argument("--l2", type=int, required=True)
    p.add_argument("--d", required=True)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=_cmd_extract_cd)

    p = sub.add_parser("verify-main")
    p.add_argument("--l1", type=int, required=True)
    p.add_argument("--l2", type=int, required=True)
    p.add_argument("--d", required=True)
    p.add_argument("--zeta", required=True)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=_cmd_verify_main)

    return top


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_PASS
    try:
        try:
            code = args.func(args, out)
        except BrokenPipeError:
            raise
        except NonRegularStability as exc:
            _emit({"command": args.command, "error": "NonRegularStability",
                   "message": str(exc), "witness": exc.witness}, out)
            code = EXIT_NONREGULAR
        except (JKScatterError, ValueError, OSError) as exc:
            _emit({"command": args.command, "error": type(exc).__name__,
                   "message": str(exc)}, out)
            code = EXIT_INPUT
        out.flush()
    except BrokenPipeError:
        # the reader closed stdout: no report can reach it, and the buffered
        # rest must not fail again when the interpreter flushes it at exit
        if out is sys.__stdout__:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, out.fileno())
            os.close(devnull)
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
