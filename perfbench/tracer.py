"""Per-layer tracing of jkscatter from outside the package.

The tracer wraps selected public functions of each layer module and
rebinds every alias of them: names are imported across modules
(``solve_linear``, ``jk_basis``, ``zeta_from_theta``, ``jk_ab_infinity``,
...), and ``TruncatedSeries.__rmul__`` is the same function object as
``__mul__``.  A wrapper that replaced only the defining module's attribute
would miss every call made through an alias.

Each wrapped call records one span (name, parent span, start, end) in
memory.  Work counts are computed from the call's arguments and result,
outside the span's own interval, so they never inflate its time.  A span's
self time is its duration minus the outer durations of its child spans;
hook and wrapper costs are therefore charged to no layer, and show up only
as the tracing overhead.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from math import comb
from time import perf_counter

# layer module -> traced public functions; ``TruncatedSeries`` methods are
# traced under the series layer as mul/power/inverse/log
LAYERS: dict[str, tuple[str, ...]] = {
    "exact": ("residue_step", "solve_linear", "in_span", "mat_rank",
              "subst_linear_basis"),
    "series": ("mul", "power", "inverse", "log"),
    "scattering": ("scatter", "loop_product", "cross_wall", "extract_cd"),
    "arrangement": ("build_arrangement", "singular_points", "zeta_from_theta",
                    "jk_basis", "jk_zeta", "enumerate_flags", "jk_global",
                    "sample_rcharges"),
    "quiver": ("spanning_trees", "tree_components", "weist_count", "abelianize"),
    "quiverjk": ("jk_tree_expansion", "jk_ab", "jk_ab_infinity", "jk_global_ZQ"),
    "cli": ("main",),
}

SERIES_METHODS = {"mul": "__mul__", "power": "power", "inverse": "inverse",
                  "log": "log"}

# counters computed from arguments and results; ratios are derived from them
COUNTERS = ("series.mul.term_pairs", "series.mul.kept_pairs",
            "scattering.walls_out", "scattering.wall_terms_out",
            "arrangement.singular_points.points",
            "arrangement.singular_points.combos",
            "arrangement.flags", "arrangement.flags_in_cone",
            "quiver.spanning_trees.trees", "quiver.spanning_trees.subsets",
            "quiver.tree_components.stable", "quiver.abelianize.terms",
            "cli.report_bytes", "cli.exit.0", "cli.exit.2", "cli.exit.3")


def _param_degrees(series) -> Counter:
    return Counter(sum(p) for _x, _y, p in series.terms)


def _pre_mul(count, args, kw):
    a, b = args[0], (args[1] if len(args) > 1 else kw["other"])
    if type(b) is not type(a):
        return None  # scalar multiple: no term pairs
    ha, hb = _param_degrees(a), _param_degrees(b)
    count["series.mul.term_pairs"] += len(a.terms) * len(b.terms)
    count["series.mul.kept_pairs"] += sum(
        na * nb for da, na in ha.items() for db, nb in hb.items()
        if da + db <= a.cutoff)
    return None


def _post_scatter(count, res, _args, _kw, _pre):
    count["scattering.walls_out"] += len(res.walls)
    count["scattering.wall_terms_out"] += sum(len(w.function.terms) for w in res.walls)


def _pre_singular_points(count, args, kw):
    a = args[0] if args else kw["a"]
    count["arrangement.singular_points.combos"] += comb(
        len(a.weights) + len(a.roots), a.n)


def _post_singular_points(count, res, _args, _kw, _pre):
    count["arrangement.singular_points.points"] += len(res)


def _post_flags(count, res, _args, _kw, _pre):
    count["arrangement.flags"] += len(res)
    count["arrangement.flags_in_cone"] += sum(1 for f in res if f.in_cone)


def _pre_spanning_trees(count, args, kw):
    q = args[0] if args else kw["qbar"]
    count["quiver.spanning_trees.subsets"] += comb(len(q.arrows), len(q.vertices) - 1)


def _post_spanning_trees(count, res, _args, _kw, _pre):
    count["quiver.spanning_trees.trees"] += len(res)


def _post_tree_components(count, res, _args, _kw, _pre):
    if all(c < 0 for c in res.values()):
        count["quiver.tree_components.stable"] += 1


def _post_abelianize(count, res, _args, _kw, _pre):
    count["quiver.abelianize.terms"] += len(res)


def _pre_cli_main(_count, args, kw):
    out = args[1] if len(args) > 1 else kw.get("out")
    return out, out.tell()


def _post_cli_main(count, res, _args, _kw, pre):
    out, start = pre
    count["cli.report_bytes"] += out.tell() - start
    count[f"cli.exit.{res}"] += 1


HOOKS = {
    "series.mul": (_pre_mul, None),
    "scattering.scatter": (None, _post_scatter),
    "arrangement.singular_points": (_pre_singular_points, _post_singular_points),
    "arrangement.enumerate_flags": (None, _post_flags),
    "quiver.spanning_trees": (_pre_spanning_trees, _post_spanning_trees),
    "quiver.tree_components": (None, _post_tree_components),
    "quiver.abelianize": (None, _post_abelianize),
    "cli.main": (_pre_cli_main, _post_cli_main),
}


class Tracer:
    """Spans and counts for every traced call made while installed.

    Span i has a name, the index of its parent span (-1 at the top), the
    interval of the wrapped call, and its outer duration, which also covers
    the hooks and the wrapper and is what its parent's self time excludes.
    """

    def __init__(self):
        self.names: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.outer: list[float] = []
        self.count: Counter = Counter()
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []
        self.aliases = 0  # attributes rebound by the last install()

    def _wrap(self, name: str, fn):
        pre_hook, post_hook = HOOKS.get(name, (None, None))
        names, parent, start, end, outer = (self.names, self.parent, self.start,
                                            self.end, self.outer)
        stack, count = self._stack, self.count

        def traced(*args, **kw):
            t_in = perf_counter()
            pre = pre_hook(count, args, kw) if pre_hook else None
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            outer.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                res = fn(*args, **kw)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx], end[idx] = t0, t1
                outer[idx] = t1 - t_in
            if post_hook:
                post_hook(count, res, args, kw, pre)
            outer[idx] = perf_counter() - t_in
            return res

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function and rebind all of its aliases."""
        from jkscatter.series import TruncatedSeries
        originals = {}
        for module, funcs in LAYERS.items():
            for f in funcs:
                if module == "series":
                    originals[f"series.{f}"] = vars(TruncatedSeries)[SERIES_METHODS[f]]
                else:
                    originals[f"{module}.{f}"] = vars(sys.modules[f"jkscatter.{module}"])[f]
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        for name, module in list(sys.modules.items()):
            if name == "jkscatter" or name.startswith("jkscatter."):
                ns = vars(module)
                for attr, val in list(ns.items()):
                    if id(val) in wrappers:
                        self._rebound.append((module, attr, val))
                        ns[attr] = wrappers[id(val)]
        for attr, val in list(vars(TruncatedSeries).items()):
            if id(val) in wrappers:
                self._rebound.append((TruncatedSeries, attr, val))
                setattr(TruncatedSeries, attr, wrappers[id(val)])
        self.aliases = len(self._rebound)

    def uninstall(self) -> None:
        """Put every original back where install() found it."""
        for owner, attr, val in reversed(self._rebound):
            setattr(owner, attr, val)
        self._rebound.clear()

    def _self_seconds(self, lo: int, hi: int) -> list[float]:
        """Self time of spans lo..hi-1, which must hold whole passes."""
        covered = [0.0] * (hi - lo)
        for i in range(lo, hi):
            if self.parent[i] >= 0:
                covered[self.parent[i] - lo] += self.outer[i]
        return [self.end[i] - self.start[i] - covered[i - lo] for i in range(lo, hi)]

    def self_times(self, lo: int, hi: int) -> dict[str, list]:
        """name -> [calls, self seconds] over spans lo..hi-1 (one whole pass)."""
        agg: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for i, own in zip(range(lo, hi), self._self_seconds(lo, hi)):
            a = agg[self.names[i]]
            a[0] += 1
            a[1] += own
        return agg

    def write_spans(self, path, passes: list[tuple[int, int]]) -> None:
        """All recorded spans as TSV; times are seconds from the pass's first span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tpass\tname\tstart_s\tend_s\tself_s\n")
            for k, (lo, hi) in enumerate(passes):
                t_base = self.start[lo] if hi > lo else 0.0
                for i, own in zip(range(lo, hi), self._self_seconds(lo, hi)):
                    fh.write(f"{i}\t{self.parent[i]}\t{k}\t{self.names[i]}\t"
                             f"{self.start[i] - t_base:.9f}\t{self.end[i] - t_base:.9f}\t"
                             f"{own:.9f}\n")
