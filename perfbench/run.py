#!/usr/bin/env python3
"""Builds and runs the HiSVSIM end-to-end / per-layer benchmark.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload ooc|dist|sweep --seed N \
      --seconds S --trace 0|1
  python3 perfbench/run.py --smoke

The first form configures and builds perfbench/ (the core library from
src/ plus perfbench.cpp, Release) into the build directory, then runs the
named workload. The binary's stdout is passed through: its last line is
the result object {"correct", "attempted", "failed", "metrics"}. Build
output goes to stderr. Any failure exits nonzero without a result line.

--smoke is the benchmark's own test: every workload at tiny sizes on a
second seed, in both modes, checking that every declared metric is
present, well named and finite and that nothing failed; then the
must-fail probe, which perturbs the reference and expects failures.

The build directory is $CARGO_TARGET_DIR when set (relative paths are
taken from the checkout root), else .bench_build.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("ooc", "dist", "sweep")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    bdir = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def run_binary(binary, args, timeout=170):
    """Runs the binary; returns (returncode, stdout lines)."""
    p = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                       stderr=sys.stderr, cwd=ROOT, text=True,
                       timeout=timeout)
    return p.returncode, p.stdout.splitlines()


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


def smoke(binary):
    """The benchmark's own test. Returns a list of problems."""
    end_to_end, per_layer = declared()
    problems = []
    for workload in WORKLOADS:
        for trace, want in (("0", end_to_end), ("1", per_layer)):
            where = f"{workload} --trace {trace}"
            code, out = run_binary(binary, [
                "--workload", workload, "--seed", "7", "--seconds", "0.2",
                "--trace", trace, "--smoke"])
            if code != 0 or not out:
                problems.append(f"{where}: exit {code}")
                continue
            res = json.loads(out[-1])
            got = set(res["metrics"])
            if got != want:
                problems.append(f"{where}: missing {sorted(want - got)}, "
                                f"undeclared {sorted(got - want)}")
            for name, m in res["metrics"].items():
                if not NAME_RE.fullmatch(name):
                    problems.append(f"{where}: bad metric name {name!r}")
                if not isinstance(m["value"], (int, float)) \
                        or not math.isfinite(m["value"]):
                    problems.append(f"{where}: {name} = {m['value']!r}")
            failed_share = res["failed"] / res["attempted"]
            if failed_share != 0 or not res["correct"]:
                problems.append(f"{where}: failed_share {failed_share}")
            print(f"smoke {where}: {len(got)} metrics, "
                  f"{res['attempted']} operations, failed_share "
                  f"{failed_share}", file=sys.stderr)
    # Must-fail probe: a perturbed reference has to show up as failures,
    # counted per operation, with the run still completing.
    for workload in WORKLOADS:
        code, out = run_binary(binary, [
            "--workload", workload, "--seed", "7", "--seconds", "0.2",
            "--trace", "0", "--smoke", "--perturb-reference"])
        res = json.loads(out[-1]) if code == 0 and out else None
        if res is None or res["correct"] or res["failed"] == 0:
            problems.append(f"probe {workload}: perturbed reference "
                            f"not detected ({res})")
        else:
            print(f"smoke probe {workload}: failed_share "
                  f"{res['failed'] / res['attempted']}", file=sys.stderr)
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    if not a.smoke and a.workload is None:
        ap.error("--workload is required")
    try:
        binary = build()
        if a.smoke:
            problems = smoke(binary)
            for p in problems:
                print("smoke FAIL: " + p, file=sys.stderr)
            print("smoke: " + ("FAIL" if problems else "ok"), file=sys.stderr)
            return 1 if problems else 0
        code, out = run_binary(binary, [
            "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", a.trace])
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    if code != 0 or not out:
        print(f"run.py: benchmark exited {code}", file=sys.stderr)
        return 1
    print("\n".join(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
