"""Run one benchmark workload and print its result as the last line.

    python3 bench/run.py --workload hq_ply --seed 0 --seconds 20 --trace 0

Workloads: hq_ply, fast_random, large_scene (see bench/README.md).  With
``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a traced run, whose spans go to
``bench/out/trace-<workload>-seed<seed>.json``.  The program is imported from
``src/`` of the checkout this file sits in; BLAS runs on one thread.  Check
lines go to standard error.  Exit status: 0 on a result, 2 on a usage error or
a checkout without ``src/evsplat``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "evsplat", "__init__.py")):
        print(f"bench: no program sources at {SRC}/evsplat", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           T_START, out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
