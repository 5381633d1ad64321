"""Run one jkscatter benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tropical --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; jkscatter is imported from ``src/``.
Each workload runs single-threaded in this process as a closed loop with
one caller: passes over the workload's fixed job list, back to back, until
``--seconds`` are used up.  Every job's result is checked after its pass,
outside the timed region.

Timings are scaled to a reference host speed by a Speedometer that probes
the host's speed during the measured work (see calibrate.py).  Raw wall
times go to stderr.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced passes and reports per-layer
calls, self time and work counts; its spans are written to
``.bench_out/spans-<workload>.tsv``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 2, with no
result, when the checkout holds no jkscatter sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from calibrate import Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_PROBES = 11       # timed fresh interpreters per run; one more warms the bytecode cache
MIN_PASSES = 2          # per --trace 0 run, whatever --seconds says
MIN_TRACED_PASSES = 2   # per --trace 1 run: the determinism oracle compares two
CHILD_TIMEOUT_S = 150


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    latencies: list[float]   # per job, scaled to the reference host speed
    raw: list[float]         # per job, wall seconds
    results: list[tuple]     # per job: (result, error message or None)

    @property
    def seconds(self) -> float:
        return sum(self.latencies)


def run_pass(jobs, speed: Speedometer) -> Pass:
    """One pass over the job list, timing each job."""
    ctx, raw, scaled, results = {}, [], [], []
    for job in jobs:
        t0 = perf_counter()
        since = speed.mark()
        try:
            res, err = job.run(ctx), None
        except Exception as exc:  # counted as a failed job; the run goes on
            res, err = None, f"raised {type(exc).__name__}: {exc}"
        wall = perf_counter() - t0
        raw.append(wall)
        scaled.append(speed.scaled(since, wall))
        ctx[job.name] = res
        results.append((res, err))
    return Pass(scaled, raw, results)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_pass(jobs, results, first: bool, fingerprints: dict) -> list[str]:
    """Failure messages of one pass.  ``fingerprints`` maps job index to the
    digest every later pass (and the other process) must reproduce."""
    failures = []
    for i, (job, (res, err)) in enumerate(zip(jobs, results)):
        msg = err
        if msg is None:
            try:
                msg = job.check(res)
                if msg is None and first and job.audit is not None:
                    msg = job.audit(res)
            except Exception as exc:  # a result the oracle cannot read is wrong
                msg = f"oracle raised {type(exc).__name__}: {exc}"
        if msg is None and job.fingerprint is not None:
            fp = digest(job.fingerprint(res))
            if fingerprints.setdefault(i, fp) != fp:
                msg = "output bytes differ from an earlier pass or the other process"
        if msg is not None:
            failures.append(f"{job.name}: {msg}")
    return failures


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def _enough(done: int, minimum: int, t_start: float, seconds: float) -> bool:
    """Stop once the minimum is met and one more pass would overrun."""
    elapsed = perf_counter() - t_start
    return done >= minimum and elapsed * (done + 1) / done > seconds


# ---------------------------------------------------------------------------
# set-up time, in fresh interpreters
# ---------------------------------------------------------------------------

def _probe(args, fingerprints: bool) -> dict:
    cmd = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed)]
    if fingerprints:
        cmd.append("--fingerprints")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_times(args, with_fingerprints: bool) -> tuple[list[dict], dict]:
    """SETUP_PROBES set-up times, and the job digests of a second process.

    The first child warms the bytecode cache and is not timed; when the
    workload has fingerprinted jobs it also runs one pass for them."""
    warm = _probe(args, with_fingerprints)
    probes = [_probe(args, False) for _ in range(SETUP_PROBES)]
    return probes, {int(i): fp for i, fp in warm.get("fingerprints", {}).items()}


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(args, jobs) -> dict:
    """--trace 0: set-up probes, then untraced passes; the end-to-end metrics."""
    with_fp = any(job.fingerprint is not None for job in jobs)
    probes, fingerprints = setup_times(args, with_fp)
    passes, failures = [], []
    t_start = perf_counter()
    with Speedometer() as speed:
        while not _enough(len(passes), MIN_PASSES, t_start, args.seconds):
            p = run_pass(jobs, speed)
            failures += check_pass(jobs, p.results, not passes, fingerprints)
            passes.append(p)
    attempted = len(passes) * len(jobs)
    # each job's typical latency is its median over the passes; the latency
    # percentiles are taken over those, so a percentile that falls between
    # two kinds of job is not decided by one noisy sample
    typical = sorted(statistics.median(p.latencies[j] for p in passes)
                     for j in range(len(jobs)))
    p90 = nearest_rank(typical, 0.9)
    metrics = {
        "wall_s": (statistics.median(p.seconds for p in passes), "s"),
        "job_p50_ms": (nearest_rank(typical, 0.5) * 1e3, "ms"),
        "job_p90_ms": (p90 * 1e3, "ms"),
        "job_max_ms": (typical[-1] * 1e3, "ms"),
        "setup_s": (statistics.median(x["setup_s"] for x in probes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((attempted - len(failures)) / attempted, "1"),
    }
    _log(f"{len(passes)} passes of {len(jobs)} jobs; job percentiles over {len(jobs)} "
         f"per-job medians, {sum(1 for x in typical if x > p90)} beyond p90; raw wall per "
         f"pass {[round(sum(p.raw), 3) for p in passes]}; setup_s from {len(probes)} fresh "
         f"interpreters, raw {[round(x['raw_s'], 4) for x in probes]}"
         + ("; outputs compared with a second process" if with_fp else ""))
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics, "failures": failures}


def per_layer(args, jobs) -> dict:
    """--trace 1: untraced and traced passes in turn; the per-layer metrics."""
    from tracer import COUNTERS, LAYERS, Tracer
    tr = Tracer()
    untraced, traced, self_s, spans = [], [], [], []
    calls0 = counts0 = None
    failures, run_errors = [], []
    fingerprints: dict = {}
    t_start = perf_counter()
    with Speedometer() as speed:
        while not _enough(len(traced), MIN_TRACED_PASSES, t_start, args.seconds):
            p = run_pass(jobs, speed)
            failures += check_pass(jobs, p.results, not untraced, fingerprints)
            untraced.append(p)
            tr.count.clear()
            tr.install()
            try:
                lo = len(tr.names)
                p = run_pass(jobs, speed)
                hi = len(tr.names)
            finally:
                tr.uninstall()
            failures += check_pass(jobs, p.results, False, fingerprints)
            traced.append(p)
            spans.append((lo, hi))
            agg = tr.self_times(lo, hi)
            calls = {name: a[0] for name, a in agg.items()}
            counts = {c: tr.count[c] for c in COUNTERS}
            if calls0 is None:
                calls0, counts0 = calls, counts
            elif (calls, counts) != (calls0, counts0):
                # determinism oracle: the same inputs must give the same counts
                diff = [k for k in sorted(set(calls) | set(calls0))
                        if calls.get(k) != calls0.get(k)]
                diff += [k for k in COUNTERS if counts[k] != counts0[k]]
                run_errors.append(f"traced pass {len(traced)}: counts differ from pass 1: {diff}")
            scale = p.seconds / sum(p.raw)
            self_s.append({name: a[1] * scale for name, a in agg.items()})
    OUT_DIR.mkdir(exist_ok=True)
    tr.write_spans(OUT_DIR / f"spans-{args.workload}.tsv", spans)

    def med_self(names):
        return statistics.median(sum(s.get(n, 0.0) for n in names) for s in self_s)

    def ratio(num, den):
        return counts0[num] / counts0[den] if counts0[den] else 0.0

    metrics = {}
    for module, funcs in LAYERS.items():
        for f in funcs:
            name = f"{module}.{f}"
            metrics[f"{name}.calls"] = (calls0.get(name, 0), "count")
            metrics[f"{name}.self_s"] = (med_self([name]), "s")
        metrics[f"{module}.self_s"] = (med_self([f"{module}.{f}" for f in funcs]), "s")
    components = calls0.get("quiver.tree_components", 0)
    for c in COUNTERS:
        if c not in ("series.mul.kept_pairs", "quiver.tree_components.stable"):
            metrics[c] = (counts0[c], "bytes" if c == "cli.report_bytes" else "count")
    metrics.update({
        "series.mul.kept_ratio": (ratio("series.mul.kept_pairs", "series.mul.term_pairs"), "1"),
        "quiver.spanning_trees.tree_ratio": (
            ratio("quiver.spanning_trees.trees", "quiver.spanning_trees.subsets"), "1"),
        "quiver.stable_ratio": (
            counts0["quiver.tree_components.stable"] / components if components else 0.0, "1"),
        "trace.overhead_s": (statistics.median(p.seconds for p in traced)
                             - statistics.median(p.seconds for p in untraced), "s"),
        "trace.spans": (spans[0][1] - spans[0][0], "count"),
    })
    _log(f"{len(traced)} traced and {len(untraced)} untraced passes of {len(jobs)} jobs; "
         f"scaled wall_s untraced {statistics.median(p.seconds for p in untraced):.4f}, "
         f"traced {statistics.median(p.seconds for p in traced):.4f}; "
         f"{tr.aliases} aliases rebound per install")
    attempted = (len(traced) + len(untraced)) * len(jobs)
    return {"correct": not failures and not run_errors, "attempted": attempted,
            "failed": len(failures), "metrics": metrics, "failures": failures + run_errors}


def _log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "jkscatter" / "__init__.py").is_file():
        _log(f"no jkscatter sources under {SRC}; run from the root of a checkout")
        return 2
    sys.path.insert(0, str(SRC))
    import jkscatter
    import workloads
    if not Path(jkscatter.__file__).resolve().is_relative_to(SRC):
        _log(f"jkscatter was imported from {jkscatter.__file__}, not from {SRC}")
        return 2
    if args.workload not in workloads.WORKLOADS:
        _log(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
        return 2
    jobs = workloads.WORKLOADS[args.workload](args.seed)
    _log(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; "
         f"host nproc={os.cpu_count()}, Python {platform.python_version()}")
    result = (per_layer if args.trace else end_to_end)(args, jobs)
    for msg in result.pop("failures"):
        _log(f"FAILED {msg}")
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
