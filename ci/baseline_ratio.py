#!/usr/bin/env python3
"""Fail when FIFO's or Fair's median wall exceeds 1.5x WOHA-LPF's.

Reads the table bench_scale_cluster printed for one tracker count (a
--repeat run, so wall_s is a median of repeats) and checks the baselines
against WOHA-LPF on the same point. FIFO and Fair read the JobTracker's
runnable-job index; a baseline that goes back to scanning its queue costs
several times WOHA-LPF's wall. The bound is a ratio of walls measured on
one host, so host speed cancels out.

    ./build/bench/bench_scale_cluster --points 10000 \\
        --schedulers FIFO,Fair,WOHA-LPF --horizon-min 30 --repeat 3 --jobs 1 \\
        | tee baselines_10k.txt
    python3 ci/baseline_ratio.py baselines_10k.txt
"""

import re
import sys

BOUND = 1.5
ROW = re.compile(r"^\d+\s+(\S+)\s+\d+\s+\d+\s+\d+\s+[0-9.]+\s+([0-9.]+)\s*$", re.M)


def main(path):
    with open(path) as f:
        walls = {name: float(wall) for name, wall in ROW.findall(f.read())}
    missing = {"FIFO", "Fair", "WOHA-LPF"} - set(walls)
    if missing:
        sys.exit("baseline_ratio: no row for %s in %s" % (", ".join(sorted(missing)), path))
    failed = False
    for name in ("FIFO", "Fair"):
        ratio = walls[name] / walls["WOHA-LPF"]
        print("%-4s median wall %7.2f s = %.2fx WOHA-LPF's %.2f s (bound %.1fx)"
              % (name, walls[name], ratio, walls["WOHA-LPF"], BOUND))
        failed |= ratio > BOUND
    if failed:
        sys.exit("baseline_ratio: a baseline's wall exceeds %.1fx WOHA-LPF's" % BOUND)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: baseline_ratio.py BENCH_SCALE_CLUSTER_OUTPUT")
    main(sys.argv[1])
