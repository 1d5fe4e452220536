#!/usr/bin/env python3
"""CI perf gate: the median run time of one `hisim` invocation over another.

Runs two argument sets of the `hisim` CLI alternately, --runs times each,
reads the in-process run time from each JSON report ("total_seconds",
which excludes process start-up and any trace-file write), and fails when
median(probe) / median(base) exceeds --max-ratio. Alternating the two
sets makes slow drift (thermal, noisy neighbours) hit both equally.

Each argument set is one shell-style string; "--json" is appended, and
"{tmp}" is replaced by a temporary directory that lives for the whole
check (for output files such as --trace).

CI uses it for two gates:

  # Tracing layer: --trace may not slow the run down beyond 2x.
  check_run_ratio.py build/hisim --label tracing \\
      --base "run qft --qubits=16" \\
      --probe "run qft --qubits=16 --trace={tmp}/probe.json"

  # Multilevel (the paper's Sec. IV scheme) with small inner parts, i.e.
  # many small kernel calls, may not fall behind hierarchical by 2x.
  check_run_ratio.py build/hisim --label multilevel \\
      --base "run qaoa --qubits=16 --target=hierarchical" \\
      --probe "run qaoa --qubits=16 --target=multilevel --level2=10"

The default 2.0x ceiling is loose on purpose for shared CI hosts: the
gates catch a path becoming accidentally hot (a lock or an allocation per
trace event, a per-kernel system call), not certify an exact ratio.
"""

import argparse
import json
import shlex
import statistics
import subprocess
import sys
import tempfile


def run_seconds(hisim, args):
    """One run of `hisim args --json`; returns its total_seconds."""
    out = subprocess.run([hisim] + args + ["--json"], check=True,
                         capture_output=True, text=True)
    return float(json.loads(out.stdout)["total_seconds"])


def median_seconds(hisim, arg_sets, runs):
    """Runs every argument set `runs` times, interleaved; returns the
    median total_seconds of each set, in order."""
    samples = [[] for _ in arg_sets]
    for _ in range(runs):
        for args, times in zip(arg_sets, samples):
            times.append(run_seconds(hisim, args))
    return [statistics.median(times) for times in samples]


def main(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("hisim", help="path to the hisim CLI binary")
    ap.add_argument("--base", required=True,
                    help="argument string of the reference run")
    ap.add_argument("--probe", required=True,
                    help="argument string of the gated run")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--max-ratio", type=float, default=2.0,
                    help="probe/base median ceiling (default 2.0)")
    ap.add_argument("--label", default="ratio")
    args = ap.parse_args(argv[1:])

    with tempfile.TemporaryDirectory() as tmp:
        arg_sets = [shlex.split(s.replace("{tmp}", tmp))
                    for s in (args.base, args.probe)]
        base, probe = median_seconds(args.hisim, arg_sets, args.runs)

    if base <= 0.0:
        print(f"check_run_ratio[{args.label}]: base run too fast to time")
        return 1
    ratio = probe / base
    ok = ratio <= args.max_ratio
    print(f"check_run_ratio[{args.label}]: median {base * 1e3:.2f} ms "
          f"base, {probe * 1e3:.2f} ms probe -> {ratio:.3f}x "
          f"(ceiling {args.max_ratio}x) {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
