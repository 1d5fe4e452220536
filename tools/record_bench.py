#!/usr/bin/env python3
"""Append one benchmark data point to BENCH_<name>.json.

Two trajectories, chosen by --name:

  kernels (default)  runs build/bench_kernels --json (per-tier kernel
                     throughput) and appends to BENCH_kernels.json.
  perf               runs perfbench/run.py (the end-to-end and per-layer
                     benchmark of BENCHMARK.json) and appends its result
                     and host fingerprint to BENCH_perf.json.

Each entry wraps the payload with the commit and a UTC timestamp; the file
at the repo root is a JSON list, one entry per recorded run, so comparing
the latest entry against older ones shows when a change moved a number.

Usage:
    python3 tools/record_bench.py [path/to/bench_kernels] [bench args...]
    python3 tools/record_bench.py --name perf [--checkout DIR] \\
        --workload ooc|dist|sweep [run.py args...]

kernels: the default binary is build/bench_kernels; extra args are passed
through (e.g. --qubits=12) and --json is always added. perf: the args are
passed to run.py (e.g. --seconds 5). --checkout runs another checkout's
perfbench/run.py, e.g. a clone of an older commit, and records that
checkout's commit; the entry still goes to this repo's BENCH_perf.json.
"""

import argparse
import datetime
import json
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def short_commit(checkout):
    return subprocess.run(
        ["git", "-C", str(checkout), "describe", "--always", "--dirty"],
        check=False, capture_output=True, text=True).stdout.strip() or None


def run_kernels(rest):
    binary = rest.pop(0) if rest and not rest[0].startswith("-") else str(
        REPO_ROOT / "build" / "bench_kernels")
    out = subprocess.run([binary, "--json"] + rest, check=True,
                         capture_output=True, text=True)
    data = json.loads(out.stdout)
    for c in data.get("cases", []):
        best = max((t["speedup_vs_scalar"] for t in c["tiers"]), default=1.0)
        print(f"  {c['case']:<14} best speedup {best:.2f}x")
    return data


def run_perf(rest, checkout):
    # run.py's last stdout line is the result; the one before it is the
    # benchmark's summary line with the host fingerprint.
    out = subprocess.run([sys.executable, "perfbench/run.py"] + rest,
                         check=True, stdout=subprocess.PIPE, text=True,
                         cwd=checkout)
    lines = out.stdout.splitlines()
    head, result = json.loads(lines[-2]), json.loads(lines[-1])
    data = {"summary": head["summary"], "host": head["host"], **result}
    print(f"  workload {data['summary']['workload']}: "
          f"failed {data['failed']}/{data['attempted']}")
    for name, m in sorted(data["metrics"].items()):
        if "." not in name:  # the end-to-end metrics
            print(f"  {name:<16} {m['value']:.4g} {m['unit']}")
    return data


def main(argv):
    ap = argparse.ArgumentParser(allow_abbrev=False,
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--name", choices=("kernels", "perf"), default="kernels")
    ap.add_argument("--checkout", type=pathlib.Path, default=REPO_ROOT)
    args, rest = ap.parse_known_args(argv[1:])

    if args.name == "perf":
        checkout = args.checkout.resolve()
        data = run_perf(rest, checkout)
    else:
        checkout = REPO_ROOT
        data = run_kernels(rest)

    entry = {
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "commit": short_commit(checkout),
        "data": data,
    }
    trajectory_path = REPO_ROOT / f"BENCH_{args.name}.json"
    trajectory = []
    if trajectory_path.exists():
        trajectory = json.loads(trajectory_path.read_text())
        if not isinstance(trajectory, list):
            raise SystemExit(f"{trajectory_path} is not a JSON list")
    trajectory.append(entry)
    trajectory_path.write_text(json.dumps(trajectory, indent=1) + "\n")
    print(f"recorded entry {len(trajectory)} -> {trajectory_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
