"""Set-up time of one workload, measured in this fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> [--fingerprints]

Times importing jkscatter and building the workload's inputs, scaled to
the reference host speed (see calibrate.py).
Prints one JSON line: the scaled and the raw seconds and, with
--fingerprints, the digest of each fingerprinted job's output after one
pass, for comparison with another process.  run.py starts this script; it
is not a benchmark entry point of its own.
"""

import os
import sys
from time import perf_counter

from calibrate import Speedometer

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    with Speedometer() as speed:
        t0 = perf_counter()
        since = speed.mark()
        import workloads
        jobs = workloads.WORKLOADS[workload](seed)
        raw = perf_counter() - t0
        out = {"setup_s": speed.scaled(since, raw), "raw_s": raw}
        if "--fingerprints" in sys.argv[3:]:
            import run
            passed = run.run_pass(jobs, speed)
            out["fingerprints"] = {
                i: run.digest(job.fingerprint(res))
                for i, (job, (res, err)) in enumerate(zip(jobs, passed.results))
                if job.fingerprint is not None and err is None}
    import json
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
