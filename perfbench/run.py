#!/usr/bin/env python3
"""Builds dandelion-serve and the benchmark from source, then runs it.

    python3 perfbench/run.py --workload tiny --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all [--trace 1]      # every workload once
    python3 perfbench/run.py --steady 10            # spread of repeated runs

One run prints a metadata line and, last, one JSON object with `correct`,
`attempted`, `failed` and `metrics`. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ["tiny", "chain", "bulk", "gateway"]
# A run measures for --seconds plus set-up and warm-up; this is the most a
# run may take before it is stopped and counted as failed.
RUN_TIMEOUT_S = 170


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the release server and the benchmark; raises on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for command in (
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "dandelion-server", "--bin", "dandelion-serve"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(BENCH, "Cargo.toml")],
    ):
        subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr, check=True)


def revision():
    """The git revision when there is one, else a digest of the sources."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-" + digest.hexdigest()[:12]


def run_once(workload, seed, seconds, trace, rev):
    """Runs one measurement; returns (exit code, standard output)."""
    release = os.path.join(target_dir(), "release")
    command = [os.path.join(release, "perfbench"), "trace" if trace else "load",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--rev", rev]
    if trace:
        spans = os.path.join(target_dir(), "perfbench", f"spans-{workload}.jsonl")
        command += ["--spans", spans]
    else:
        command += ["--serve", os.path.join(release, "dandelion-serve")]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def settings():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_all(trace, rev):
    """Every workload once, every metric printed by name and unit."""
    seconds = settings()["run_seconds"]
    status = 0
    for workload in WORKLOADS:
        code, stdout = run_once(workload, 1, seconds, trace, rev)
        if code != 0:
            print(f"{workload}: run failed (exit {code})")
            status = 1
            continue
        result = result_of(stdout)
        print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {str(result['correct']).lower()}")
        for name, entry in result["metrics"].items():
            print(f"  {name:<32} {entry['value']:>14.4f} {entry['unit']}")
    return status


def run_steady(runs, rev):
    """Runs each workload `runs` times with seeds 1..runs and prints, per
    end-to-end metric, the median, the quartiles and the spread (quartile
    distance over the median) as a share of the metric's bound."""
    config = settings()
    bounds = {metric["name"]: metric["bound"] for metric in config["end_to_end"]}
    status = 0
    for workload in WORKLOADS:
        values = {name: [] for name in bounds}
        failed_shares = []
        for seed in range(1, runs + 1):
            code, stdout = run_once(workload, seed, config["run_seconds"], False, rev)
            if code != 0:
                print(f"{workload} seed {seed}: run failed (exit {code})")
                status = 1
                continue
            result = result_of(stdout)
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect ({result['failed']} failed)")
                status = 1
            failed_shares.append(result["failed"] / result["attempted"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {len(failed_shares)} runs, failed shares {sorted(set(failed_shares))}")
        for name, samples in values.items():
            if len(samples) < 2:
                continue
            q1, median, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / median
            print(f"  {name:<16} median {median:>12.4f}  q1 {q1:>12.4f}  q3 {q3:>12.4f}  "
                  f"spread {spread:6.3f} = {spread / bounds[name]:5.2f} x bound {bounds[name]}")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--steady", type=int, metavar="RUNS")
    args = parser.parse_args()
    if not (args.workload or args.all or args.steady):
        parser.error("give --workload, --all or --steady")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    rev = revision()
    if args.all:
        return run_all(args.trace == 1, rev)
    if args.steady:
        return run_steady(args.steady, rev)
    seconds = args.seconds or settings()["run_seconds"]
    code, stdout = run_once(args.workload, args.seed, seconds, args.trace == 1, rev)
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
