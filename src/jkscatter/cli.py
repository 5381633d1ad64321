"""Command-line surface: quiver ingestion, command dispatch, JSON reports.

Exit codes: 0 success / verification pass, 1 verification fail, 2 input
error, 3 non-regular stability.  Reports are byte-stable for fixed inputs
and seeds (no timestamps, sorted keys, exact "p/q" rationals).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import prod

from .arrangement import build_arrangement, scale_rcharges
from .errors import (JKScatterError, NonRegularStability, ParseError,
                     ValidationError)
from .quiver import (DimVector, Quiver, Stability, bipartite_quiver,
                     reduced_quiver, spanning_trees, tree_components,
                     validate_quiver, weist_count)
from .quiverjk import (jk_ab, jk_ab_infinity, jk_global_ZQ, jk_tree_expansion)
from .scattering import (_cd_target, extract_cd, init_bipartite, scatter,
                         verify_main_theorem)

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
    for key in ("vertices", "arrows", "dimension", "stability"):
        if key not in raw:
            raise ValidationError("schema", f"missing field {key!r}")
    try:
        q = Quiver.make(raw["vertices"],
                        [(a["tail"], a["head"]) for a in raw["arrows"]])
    except (KeyError, TypeError) as exc:
        raise ValidationError("schema", f"bad arrow entry: {exc}") from exc
    try:
        validate_quiver(q)
    except JKScatterError as exc:
        raise ValidationError(type(exc).__name__.lower(), str(exc)) from exc
    d = DimVector.make(q, {v: int(x) for v, x in raw["dimension"].items()})
    zeta = Stability.make(q, {v: _rat(str(x)) for v, x in raw["stability"].items()})
    try:
        zeta.check_normalized(d)
    except JKScatterError as exc:
        raise ValidationError("normalization", str(exc)) from exc
    return q, d, zeta


def _parse_blocks(text: str) -> list[list[str]]:
    return [[x for x in block.split(",") if x.strip()]
            for block in text.split(";")]


def _bipartite_inputs(args) -> tuple[Quiver, DimVector, Stability | None]:
    q = bipartite_quiver(args.l1, args.l2)
    blocks = _parse_blocks(args.d)
    if len(blocks) == 1 and len(blocks[0]) == args.l1 + args.l2:
        flat = blocks[0]
    elif len(blocks) == 2 and len(blocks[0]) == args.l1 and len(blocks[1]) == args.l2:
        flat = blocks[0] + blocks[1]
    else:
        raise ParseError(f"--d {args.d!r} does not match ({args.l1},{args.l2})")
    d = DimVector.make(q, {v: int(x) for v, x in zip(q.vertices, flat)})
    zeta = None
    if getattr(args, "zeta", None):
        zflat = [x for b in _parse_blocks(args.zeta) for x in b]
        if len(zflat) != args.l1 + args.l2:
            raise ParseError(f"--zeta {args.zeta!r}: expected {args.l1 + args.l2} entries")
        zeta = Stability.make(q, {v: _rat(x) for v, x in zip(q.vertices, zflat)})
    return q, d, zeta


def _quiver_inputs(args) -> tuple[Quiver, DimVector, Stability]:
    if args.quiver:
        return parse_quiver_file(args.quiver)
    if args.l1 is None or args.l2 is None or not args.d or not args.zeta:
        raise ParseError("provide --quiver FILE or all of --l1/--l2/--d/--zeta")
    q, d, zeta = _bipartite_inputs(args)
    zeta.check_normalized(d)
    return q, d, zeta


def _rcharges(args, count: int):
    """Returns (explicit list | None, seed | None)."""
    spec = getattr(args, "rcharges", None)
    if spec is None:
        return None, 0
    if spec.startswith("seed:"):
        return None, int(spec[5:])
    values = [_rat(x) for x in spec.split(",") if x.strip()]
    if len(values) != count:
        raise ParseError(f"--rcharges: expected {count} values, got {len(values)}")
    return values, None


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
    qbar, mult = reduced_quiver(q)
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
        "results": {"trees": rows, "weist_count": weist_count(q, theta)},
    }
    if args.csv:
        _emit_csv(rows, ["tree", "arrows", "components", "stable", "multiplicity"], out)
    else:
        _emit(report, out)
    return EXIT_PASS


def _cmd_jk(args, out) -> int:
    q, d, theta = _quiver_inputs(args)
    lam = _rat(args.lam)
    explicit, seed = _rcharges(args, len(q.arrows))
    if explicit is not None:
        a = build_arrangement(q, d, rcharges=[r * lam for r in explicit])
    else:
        a = scale_rcharges(build_arrangement(q, d, seed=seed), lam)
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
    _explicit, seed = _rcharges(args, 0)
    if args.infinity:
        value = jk_ab_infinity(q, d, zeta)
    else:
        value = jk_ab(q, d, zeta, rseed=seed or 0, lam=_rat(args.lam))
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
    diagram = scatter(init_bipartite(args.l1, args.l2, args.order))
    ray_filter = None
    if args.ray:
        a, b = (int(x) for x in args.ray.split(","))
        ray_filter = (a, b)
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
    initial = init_bipartite(args.l1, args.l2, args.order)
    _cd_target(d, args.order)  # reject d before paying for the diagram
    value = extract_cd(scatter(initial), d)
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

    def common(p, zeta=True):
        p.add_argument("--quiver", help="JSON quiver file")
        p.add_argument("--l1", type=int)
        p.add_argument("--l2", type=int)
        p.add_argument("--d", help="dimension vector, e.g. 1,1;1")
        if zeta:
            p.add_argument("--zeta", help="stability vector, e.g. 1,1,-2")
        p.add_argument("--csv", action="store_true")

    p = sub.add_parser("trees")
    common(p)
    p.set_defaults(func=_cmd_trees)

    p = sub.add_parser("jk")
    common(p)
    p.add_argument("--lambda", dest="lam", default="1")
    p.add_argument("--rcharges", help='explicit "p/q,..." or seed:<u64>',
                   default="seed:0")
    p.set_defaults(func=_cmd_jk)

    p = sub.add_parser("jk-ab")
    common(p)
    p.add_argument("--lambda", dest="lam", default="1")
    p.add_argument("--rcharges", default="seed:0")
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
        return args.func(args, out)
    except NonRegularStability as exc:
        _emit({"command": args.command, "error": "NonRegularStability",
               "message": str(exc), "witness": exc.witness}, out)
        return EXIT_NONREGULAR
    except (ParseError, ValidationError, ValueError, OSError) as exc:
        _emit({"command": args.command, "error": type(exc).__name__,
               "message": str(exc)}, out)
        return EXIT_INPUT
    except JKScatterError as exc:
        _emit({"command": args.command, "error": type(exc).__name__,
               "message": str(exc)}, out)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
