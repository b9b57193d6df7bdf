#!/usr/bin/env python3
"""Fail when a baseline's median wall exceeds 1.5x WOHA-LPF's.

Reads the table bench_scale_cluster printed for one tracker count (a
--repeat run, so wall_s is a median of repeats) and checks every row that
is not a WOHA variant (FIFO, Fair, EDF, EDF-JOB) against WOHA-LPF on the
same point. FIFO reads the JobTracker's runnable-job index, and Fair, EDF
and EDF-JOB walk one flat runnable ordering each; a baseline that goes back
to scanning its queue costs several times WOHA-LPF's wall. The bound is a
ratio of walls measured on one host, so host speed cancels out.

    ./build/bench/bench_scale_cluster --points 10000 \\
        --schedulers FIFO,Fair,EDF,EDF-JOB,WOHA-LPF --horizon-min 30 \\
        --repeat 3 --jobs 1 | tee baselines_10k.txt
    python3 ci/baseline_ratio.py baselines_10k.txt
"""

import re
import sys

BOUND = 1.5
# trackers, scheduler, makespan, events, selects, wall_s
ROW = re.compile(r"^\d+\s+(\S+)\s+\d+\s+\d+\s+\d+\s+([0-9.]+)\s*$", re.M)


def main(path):
    with open(path) as f:
        walls = {name: float(wall) for name, wall in ROW.findall(f.read())}
    if "WOHA-LPF" not in walls:
        sys.exit("baseline_ratio: no row for WOHA-LPF in %s" % path)
    baselines = [name for name in walls if not name.startswith("WOHA-")]
    if not baselines:
        sys.exit("baseline_ratio: no baseline row in %s" % path)
    failed = False
    for name in baselines:
        ratio = walls[name] / walls["WOHA-LPF"]
        print("%-7s median wall %7.2f s = %.2fx WOHA-LPF's %.2f s (bound %.1fx)"
              % (name, walls[name], ratio, walls["WOHA-LPF"], BOUND))
        failed |= ratio > BOUND
    if failed:
        sys.exit("baseline_ratio: a baseline's wall exceeds %.1fx WOHA-LPF's" % BOUND)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: baseline_ratio.py BENCH_SCALE_CLUSTER_OUTPUT")
    main(sys.argv[1])
