#!/usr/bin/env python3
"""Error-path tests for the explain CLI.

The tool is scripted in CI (its output gets diffed), so its exit code is the
only signal a wrapper has: an unknown --workflow id or an unwritable output
path must exit nonzero with a diagnosis on stderr, never "success" with a
shrug on stdout, and a malformed --rho or --workflow value must exit 2 with
the usage line before the run. Run as:

    test_explain_errors.py <path-to-explain-binary>
"""

import os
import subprocess
import sys
import tempfile


def run(binary, *args):
    return subprocess.run([binary, *args], capture_output=True, text=True,
                          timeout=600)


def check(name, ok, detail=""):
    print(f"{'ok' if ok else 'FAIL'}: {name}" + (f" — {detail}" if detail else ""))
    return ok


def main():
    if len(sys.argv) != 2:
        print("usage: test_explain_errors.py <explain-binary>", file=sys.stderr)
        return 2
    binary = sys.argv[1]
    failures = 0

    # Malformed values: exit 2 with the usage line, and no run (the run
    # prints its "scenario:" header first). Not numbers, trailing garbage,
    # non-finite or non-positive intensities, and negative ids.
    for flag, value in (("--rho", "abc"), ("--rho", "0"), ("--rho", "-1"),
                        ("--rho", "1.3x"), ("--rho", "nan"), ("--rho", "inf"),
                        ("--workflow", "abc"), ("--workflow", "-5")):
        r = run(binary, flag, value)
        name = f"{flag} {value}"
        failures += not check(f"{name} exits 2", r.returncode == 2,
                              f"exit={r.returncode}")
        failures += not check(f"{name} prints the usage line",
                              "usage:" in r.stderr, repr(r.stderr[:200]))
        failures += not check(f"{name} starts no run",
                              "scenario:" not in r.stdout, repr(r.stdout[:200]))

    # Unknown workflow id: nonzero exit, diagnosis on stderr.
    r = run(binary, "--workflow", "9999")
    failures += not check("unknown --workflow exits nonzero", r.returncode != 0,
                          f"exit={r.returncode}")
    failures += not check("unknown --workflow diagnoses on stderr",
                          "was not recorded" in r.stderr, repr(r.stderr[:200]))

    # Unwritable output paths: fail fast (before the run), nonzero exit.
    missing_dir = os.path.join(tempfile.gettempdir(),
                               "woha-explain-no-such-dir", "out.jsonl")
    for flag in ("--spans-jsonl", "--attribution-jsonl", "--trace"):
        r = run(binary, flag, missing_dir)
        failures += not check(f"unwritable {flag} exits nonzero",
                              r.returncode != 0, f"exit={r.returncode}")
        failures += not check(f"unwritable {flag} diagnoses on stderr",
                              "cannot open" in r.stderr, repr(r.stderr[:200]))

    # Positive controls: well-formed values run and exit 0.
    for flag, value in (("--rho", "1.3"), ("--workflow", "0")):
        r = run(binary, flag, value)
        failures += not check(f"{flag} {value} exits 0", r.returncode == 0,
                              f"exit={r.returncode} stderr={r.stderr[:200]!r}")
        failures += not check(f"{flag} {value} runs the scenario",
                              "scenario:" in r.stdout, repr(r.stdout[:200]))

    # Positive control: default narration and writable paths exit 0.
    with tempfile.TemporaryDirectory() as tmp:
        spans = os.path.join(tmp, "spans.jsonl")
        r = run(binary, "--spans-jsonl", spans)
        failures += not check("valid invocation exits 0", r.returncode == 0,
                              f"exit={r.returncode} stderr={r.stderr[:200]!r}")
        failures += not check("valid invocation writes spans",
                              os.path.exists(spans) and
                              os.path.getsize(spans) > 0)

    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 1
    print("explain CLI error-path tests: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
