#!/usr/bin/env python3
"""Error-path tests for bench_scale_cluster's flags.

--points, --horizon-min and --repeat take plain decimals, non-zero and in
range; --schedulers takes labels of the extended roster (the paper's six
and EDF-JOB) with no empty entry. A malformed value must exit 2 with the
usage line on stderr before any run starts (no banner on stdout), never
abort on an uncaught exception, wrap around to 0 or to four billion
repeats, silently drop trailing text, or run nothing and exit 0. Every case runs with --jobs 1 under a per-case timeout, so a
value that starts an endless run fails this test instead of hanging it.
Run as:

    test_scale_cluster_cli_errors.py <path-to-bench_scale_cluster>
"""

import subprocess
import sys

CASE_TIMEOUT_S = 20
CONTROL_TIMEOUT_S = 120

MALFORMED = [
    ("--points", "abc"),
    ("--points", "4294967296"),         # wrapped to 0 through a uint32 cast
    ("--points", "99999999999999999999"),
    ("--points", "1000001"),
    ("--points", "0"),
    ("--points", "-80"),
    ("--points", "+80"),
    ("--points", "80x"),
    ("--points", "80,"),
    ("--points", "80,,200"),
    ("--points", ""),
    ("--horizon-min", "5x"),            # ran 5 minutes, dropping the "x"
    ("--horizon-min", "153722867280913"),  # minutes() would overflow int64
    ("--horizon-min", "1000001"),
    ("--horizon-min", "0"),
    ("--horizon-min", "-5"),
    ("--horizon-min", "1.5"),
    ("--repeat", "-1"),                 # wrapped to 4,294,967,295 repeats
    ("--repeat", "4294967297"),         # wrapped to 1
    ("--repeat", "1001"),
    ("--repeat", "0"),
    ("--repeat", "2x"),
    ("--plan-jobs", "-1"),
]

# Unknown labels and empty entries. Each case also names a short valid point,
# so a build that ignores the bad entry finishes its runs quickly and fails
# the "starts no run" check instead of the timeout.
MALFORMED_SCHEDULERS = ["WOHA_LPF", "", "FIFO,", ",FIFO", "FIFO,,Fair"]

# Labels of metrics::extended_schedulers that must run: a paper scheduler and
# the repo-added EDF-JOB.
POSITIVE_SCHEDULERS = ["FIFO", "EDF-JOB"]


def run(binary, args, timeout):
    try:
        return subprocess.run([binary, *args], capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None


def check(name, ok, detail=""):
    print(f"{'ok' if ok else 'FAIL'}: {name}" + (f" — {detail}" if detail else ""))
    return ok


def main():
    if len(sys.argv) != 2:
        print("usage: test_scale_cluster_cli_errors.py <bench_scale_cluster>",
              file=sys.stderr)
        return 2
    binary = sys.argv[1]
    failures = 0

    cases = [[flag, value, "--jobs", "1"] for flag, value in MALFORMED]
    cases += [["--schedulers", names, "--points", "80", "--horizon-min", "1",
               "--jobs", "1"] for names in MALFORMED_SCHEDULERS]
    cases.append(["--jobs", "1", "--points"])  # a flag without its value
    for args in cases:
        name = " ".join(repr(a) if a == "" else a for a in args)
        r = run(binary, args, CASE_TIMEOUT_S)
        if r is None:
            failures += not check(name, False, f"still running after {CASE_TIMEOUT_S} s")
            continue
        failures += not check(f"{name} exits 2", r.returncode == 2,
                              f"exit={r.returncode}")
        failures += not check(f"{name} prints the usage line",
                              "usage: bench_scale_cluster" in r.stderr,
                              repr(r.stderr[:200]))
        failures += not check(f"{name} starts no run", "Scale sweep" not in r.stdout,
                              repr(r.stdout[:200]))

    # Positive controls: well-formed flags run the point and exit 0, for a
    # paper scheduler and for EDF-JOB, which only the extended roster has.
    for scheduler in POSITIVE_SCHEDULERS:
        args = ["--points", "80", "--schedulers", scheduler, "--horizon-min", "1",
                "--jobs", "1"]
        name = f"valid invocation with {scheduler}"
        r = run(binary, args, CONTROL_TIMEOUT_S)
        failures += not check(f"{name} finishes", r is not None)
        if r is None:
            continue
        failures += not check(f"{name} exits 0", r.returncode == 0,
                              f"exit={r.returncode} stderr={r.stderr[:200]!r}")
        failures += not check(f"{name} prints its row",
                              any(line.split()[:2] == ["80", scheduler]
                                  for line in r.stdout.splitlines()),
                              repr(r.stdout[-300:]))

    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 1
    print("bench_scale_cluster CLI error-path tests: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
