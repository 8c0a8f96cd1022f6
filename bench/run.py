"""Benchmark of ggff's verification engine: one workload, one process.

    python3 bench/run.py --workload {pt,annulus} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout.  It builds its networks, drives the
package's verification operations through their public functions, checks
every result against numbers it computes itself, and prints as its last line
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones of a traced run, and its overhead.  See bench/README.md.
"""

import os

# Fixed before numpy loads: one BLAS thread, so that the threads=2 check keeps
# at most two threads busy on the two-core machine the figures were measured on.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="ggff verification-engine benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           BLAS_THREADS)
    path = workloads.OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(result) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
