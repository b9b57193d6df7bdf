#!/usr/bin/env python3
"""The WOHA simulator's benchmark: builds the simulator from source, runs one
workload for a fixed wall-clock budget, checks the simulated outputs, and
prints the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. `--trace 0` measures the end-to-end metrics
with nothing attached to the engine; `--trace 1` makes the traced runs that
give the per-layer metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Workloads, metrics,
seeds and the ROADMAP items each workload judges are described in
perfbench/README.md.

Maintenance: `--update-pins` (with --trace 1) records the outputs of this
run as the pinned outputs for its workload and seed in perfbench/pinned.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "woha_perfbench")
PINS = os.path.join(HERE, "pinned.json")
BUILD_TYPE = "RelWithDebInfo"

# default_seed: the recipe's own seed (42 is also the seed of the repo's
# scale goldens). held_out_seed: a seed no tuning was done on; a speed claim
# must also hold there. probe_horizon_s: a full observed run of scale100k or
# baselines3k takes minutes (a bus subscriber sends WOHA and the baselines
# down their per-slot paths), so their obs.* metrics come from an
# untraced/observed pair capped at this simulated horizon.
WORKLOADS = {
    "scale100k": {"default_seed": 42, "held_out_seed": 1042, "probe_horizon_s": 20},
    "baselines3k": {"default_seed": 42, "held_out_seed": 1042, "probe_horizon_s": 900},
    "dagplan1k": {"default_seed": 7, "held_out_seed": 1007, "probe_horizon_s": None},
    "churn800": {"default_seed": 42, "held_out_seed": 1042, "probe_horizon_s": None},
}

# The host is shared, and its speed drifts by tens of percent over minutes.
# Every child first times a fixed reference kernel (reference_kernel_s in
# perfbench.cpp, no simulator code), and the end-to-end times are reported in
# reference seconds: host seconds x REFERENCE_S / the median kernel time of
# the invocation. REFERENCE_S is the kernel's time on the 4-core host the
# benchmark was tuned on, so there the two units roughly agree. Per-layer
# times stay in host seconds; bench.host_slowdown converts between them.
REFERENCE_S = 0.035

# A child run that has not finished by then is killed and counted as failed,
# so one invocation always ends inside its own time limit.
CHILD_TIMEOUT_S = 120.0


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark binary; build logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: simulator sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        raise SystemExit("perfbench: cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "woha_perfbench"],
                   stdout=sys.stderr, check=True)


def run_child(workload, seed, mode, horizon_s=None):
    """One process, one measured iteration. Returns (record, peak_rss_mb) or
    (None, error text)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--mode", mode]
    if horizon_s is not None:
        cmd += ["--horizon-s", str(horizon_s)]
    out_path = os.path.join(BUILD_DIR, "child.out")
    err_path = os.path.join(BUILD_DIR, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        started = time.monotonic()
        # os.wait4 rather than Popen.wait: it returns this child's own
        # rusage, whose ru_maxrss is the peak resident memory of the run.
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid != 0:
                break
            if time.monotonic() - started > CHILD_TIMEOUT_S:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(err_path, "r", errors="replace") as f:
            return None, "%s exited %d: %s" % (" ".join(cmd[1:]), proc.returncode,
                                                f.read().strip()[-500:])
    try:
        with open(out_path) as f:
            record = json.loads(f.read().strip().splitlines()[-1])
    except (ValueError, IndexError) as e:
        return None, "%s printed no record: %s" % (" ".join(cmd[1:]), e)
    return record, usage.ru_maxrss / 1024.0


def host_facts(record):
    sha = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")) and shutil.which("git"):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            sha = got.stdout.strip()
    return {"nproc": os.cpu_count(), "compiler": record.get("compiler"),
            "build_type": record.get("build_type"), "git_sha": sha}


def median(values):
    return statistics.median(values)


def host_slowdown(records):
    """How much slower than the reference host this invocation ran."""
    return median([t for r in records for t in r["reference_s"]]) / REFERENCE_S


def ratio(num, den):
    return num / den if den else 0.0


class Session:
    """Runs children, tallies attempted/failed, and checks outputs."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.full_outputs = None   # outputs every full-length run must repeat
        self.probe_outputs = None  # same, for horizon-capped probe runs
        self.last_record = None

    def fail(self, message):
        self.failed += 1
        self.failures.append(message)

    def run(self, mode, horizon_s=None):
        self.attempted += 1
        record, extra = run_child(self.workload, self.seed, mode, horizon_s)
        if record is None:
            self.fail(extra)
            return None
        self.last_record = record
        key = "probe_outputs" if horizon_s is not None else "full_outputs"
        expected = getattr(self, key)
        if expected is None:
            setattr(self, key, record["outputs"])
        elif record["outputs"] != expected:
            self.fail("%s run outputs differ from the first %s run: %s vs %s"
                                 % (mode, key.replace("_", " "), record["outputs"], expected))
            return None
        if mode == "traced":
            s = record["sched"]
            if record["run_s"] < s["consult_s"] + s["submit_s"] + s["notify_s"]:
                self.fail("traced run: scheduler callbacks exceed run_s")
                return None
        record["peak_rss_mb"] = extra
        return record

    def check_pins(self, plan=None):
        """At a default or held-out seed, outputs must equal the pinned ones;
        when they do not, every run of this invocation counts as failed."""
        try:
            with open(PINS) as f:
                pins = json.load(f)
        except (OSError, ValueError) as e:
            self.failures.append("cannot read %s: %s" % (PINS, e))
            self.failed = self.attempted
            return "unreadable pin file"
        pin = pins.get(self.workload, {}).get(str(self.seed))
        if pin is None:
            return "no pinned outputs at seed %d" % self.seed
        problems = []
        if self.full_outputs is not None and self.full_outputs != pin["outputs"]:
            problems.append("outputs %s != pinned %s" % (self.full_outputs, pin["outputs"]))
        if self.probe_outputs is not None and self.probe_outputs != pin.get("probe_outputs"):
            problems.append("probe outputs %s != pinned %s"
                            % (self.probe_outputs, pin.get("probe_outputs")))
        if plan is not None and plan != pin["plan"]:
            problems.append("plan replay %s != pinned %s" % (plan, pin["plan"]))
        if problems:
            self.failures.extend("seed %d: %s" % (self.seed, p) for p in problems)
            self.failed = self.attempted
            return "pinned outputs DIFFER"
        return "pinned outputs match at seed %d" % self.seed


def keep_going(started, iterations, seconds, minimum):
    """Start another iteration only if it should finish inside the budget."""
    elapsed = time.monotonic() - started
    return iterations < minimum or elapsed + elapsed / iterations <= seconds


def measure_end_to_end(session, seconds):
    samples = []
    started = time.monotonic()
    iterations = 0
    while True:
        iterations += 1
        record = session.run("untraced")
        if record is not None:
            samples.append(record)
        if not keep_going(started, iterations, seconds, minimum=2):
            break
    if not samples:
        return None, 0, []
    slowdown = host_slowdown(samples)
    run_s = median([r["run_s"] for r in samples])
    setup_s = median([r["trace_generate_s"] + r["engine_submit_s"] for r in samples])
    events_per_s = median([r["events"] / r["run_s"] for r in samples])
    metrics = {
        "run_s": (run_s / slowdown, "s"),
        "setup_s": (setup_s / slowdown, "s"),
        "events_per_s": (events_per_s * slowdown, "1/s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in samples]), "MB"),
    }
    notes = ["in host seconds: run_s %.6f, setup_s %.6f, events_per_s %.1f; "
             "host slowdown %.4f (reference kernel %.3f ms)"
             % (run_s, setup_s, events_per_s, slowdown, slowdown * REFERENCE_S * 1e3)]
    return metrics, len(samples), notes


def measure_layers(session, seconds, probe_horizon_s):
    rows = []  # (traced, untraced, observed, untraced at the observed horizon)
    started = time.monotonic()
    iterations = 0
    while True:
        iterations += 1
        traced = session.run("traced")
        untraced = session.run("untraced")
        if probe_horizon_s is None:
            observed = session.run("observed")
            obs_base = untraced
        else:
            obs_base = session.run("untraced", probe_horizon_s)
            observed = session.run("observed", probe_horizon_s)
        if None not in (traced, untraced, observed, obs_base):
            rows.append((traced, untraced, observed, obs_base))
        if not keep_going(started, iterations, seconds, minimum=1):
            break
    if not rows:
        return None, 0, None

    def med(fn):
        return median([fn(*row) for row in rows])

    def sched(key):
        return med(lambda t, u, o, b: t["sched"][key])

    def self_s(t):
        s = t["sched"]
        return t["run_s"] - s["consult_s"] - s["submit_s"] - s["notify_s"]

    t0 = rows[0][0]
    s0 = t0["sched"]
    metrics = {
        "sched.consult_s": (sched("consult_s"), "s"),
        "sched.consults": (s0["consults"], "count"),
        "sched.consult_p50_us": (sched("consult_p50_us"), "us"),
        "sched.consult_p99_us": (sched("consult_p99_us"), "us"),
        "sched.consult_max_us": (sched("consult_max_us"), "us"),
        "sched.consult_empty_ratio": (ratio(s0["empty_consults"], s0["consults"]), "ratio"),
        "sched.picks_per_consult": (ratio(s0["picks"], s0["consults"]), "ratio"),
        "engine.memo_served": (t0["select_calls"] - s0["picks"] - s0["underfilled"], "count"),
        "sched.submit_s": (sched("submit_s"), "s"),
        "sched.submit_p99_us": (sched("submit_p99_us"), "us"),
        "plan.min_cap_s": (med(lambda t, u, o, b: t["plan"]["min_cap_s"]), "s"),
        "plan.generate_s": (med(lambda t, u, o, b: t["plan"]["generate_s"]), "s"),
        "sched.notify_s": (sched("notify_s"), "s"),
        "sched.notifies": (s0["notifies"], "count"),
        "engine.self_s": (med(lambda t, u, o, b: self_s(t)), "s"),
        "engine.self_share": (med(lambda t, u, o, b: self_s(t) / t["run_s"]), "ratio"),
        "engine.events": (t0["events"], "count"),
        "engine.select_calls": (t0["select_calls"], "count"),
        "engine.attempts_killed": (t0["attempts_killed"], "count"),
        "engine.tracker_crashes": (t0["tracker_crashes"], "count"),
        "engine.workflows_shed": (t0["workflows_shed"], "count"),
        "trace.generate_s": (med(lambda t, u, o, b: u["trace_generate_s"]), "s"),
        "engine.submit_s": (med(lambda t, u, o, b: u["engine_submit_s"]), "s"),
        "obs.events_published": (rows[0][2]["published"], "count"),
        "obs.observed_run_s": (med(lambda t, u, o, b: o["run_s"]), "s"),
        "obs.overhead_ratio": (med(lambda t, u, o, b: o["run_s"] / b["run_s"]), "ratio"),
        "bench.traced_run_s": (med(lambda t, u, o, b: t["run_s"]), "s"),
        "bench.host_slowdown": (host_slowdown([r for row in rows for r in row]), "ratio"),
        "bench.trace_overhead_ratio": (med(lambda t, u, o, b: t["run_s"] / u["run_s"]), "ratio"),
        "sim.miss_ratio": (statistics.fmean(x["miss_ratio"] for x in t0["outputs"]), "ratio"),
    }
    plan = {k: t0["plan"][k] for k in ("specs", "cap_sum", "makespan_sum")}
    return metrics, len(rows), plan


def update_pins(session, plan):
    with open(PINS) as f:
        pins = json.load(f)
    entry = {"outputs": session.full_outputs, "plan": plan}
    if session.probe_outputs is not None:
        entry["probe_outputs"] = session.probe_outputs
    pins.setdefault(session.workload, {})[str(session.seed)] = entry
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--update-pins", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    spec = WORKLOADS[args.workload]

    build()
    session = Session(args.workload, args.seed)
    if args.trace == 0:
        metrics, samples, notes = measure_end_to_end(session, args.seconds)
        plan = None
        what = "end-to-end"
    else:
        metrics, samples, plan = measure_layers(session, args.seconds,
                                                spec["probe_horizon_s"])
        notes = []
        what = "per-layer"
    if metrics is None:
        for failure in session.failures:
            log("FAILED:", failure)
        raise SystemExit("perfbench: no run of %s succeeded" % args.workload)
    if args.update_pins:
        if plan is None:
            raise SystemExit("perfbench: --update-pins needs --trace 1")
        update_pins(session, plan)
        pin_status = "pins updated for seed %d" % args.seed
    else:
        pin_status = session.check_pins(plan)

    print("perfbench %s  seed %d (default %d, held out %d)  trace %d  %g s budget"
          % (args.workload, args.seed, spec["default_seed"], spec["held_out_seed"],
             args.trace, args.seconds))
    print("host " + json.dumps(host_facts(session.last_record), sort_keys=True))
    print("%s metrics, median of %d iteration(s):" % (what, samples))
    for name, (value, unit) in metrics.items():
        print("  %-30s %16.6f %s" % (name, value, unit))
    for note in notes:
        print("  " + note)
    for leg in session.full_outputs or []:
        print("output " + json.dumps(leg, sort_keys=True))
    print("check: %s; failed_runs/attempted_runs = %d/%d"
          % (pin_status, session.failed, session.attempted))
    for failure in session.failures:
        print("FAILED: " + failure)
    print(json.dumps({
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
