#!/usr/bin/env python3
"""Run one benchmark workload, or check the benchmark itself.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steadiness RUNS --workload NAME [--seconds S]
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first form builds the daemon and
the benchmark from source with dune, runs bench.exe and passes its
output through: "# ..." record lines, then one JSON result line.  The
steadiness form runs the workload RUNS times with seeds 1..RUNS and
prints each end-to-end metric's median, quartiles and spread
(interquartile distance over the median) against its bound in
BENCHMARK.json.  The self-test checks that the output oracle rejects
perturbed responses.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
SERVED = os.path.join("_build", "default", "bin", "rs_served.exe")


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s here: run from the root of a range_synopsis checkout" % needed)
    cmd = ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/rs_served.exe"]
    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed (dune exit %d)" % done.returncode)


def bench(args, capture=False):
    """Run bench.exe in its own process group, so that a run that
    overstays its time is stopped together with any daemon it started."""
    cmd = [os.path.join(ROOT, BENCH), "--served", SERVED, "--work", os.path.join("perfbench", "_run")]
    p = subprocess.Popen(cmd + args, cwd=ROOT, start_new_session=True, text=True,
                         stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = p.communicate(timeout=175)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("bench.exe did not finish within 175 s")
    return p.returncode, out


def steadiness(workload, runs, seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(1, runs + 1):
        code, out = bench(["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"], capture=True)
        if code != 0:
            print(out, file=sys.stderr)
            fail("run with seed %d exited %d" % (seed, code))
        result = json.loads(out.strip().splitlines()[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    print("%-18s %12s %12s %12s %8s %6s" % ("metric", "q1", "median", "q3", "spread", "bound"))
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print("%-18s %12.6g %12.6g %12.6g %8.4f %6.3f %s" % (
            m["name"], q1, med, q3, spread, m["bound"],
            "ok" if spread <= m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "TOO WIDE")))
    print("# values " + json.dumps(values))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, metavar="RUNS")
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    build()
    if a.self_test:
        sys.exit(bench(["--self-test"])[0])
    if not a.workload:
        fail("--workload is required")
    if a.steadiness:
        steadiness(a.workload, a.steadiness, a.seconds)
        return
    sys.exit(bench(["--workload", a.workload, "--seed", str(a.seed),
                    "--seconds", str(a.seconds), "--trace", str(a.trace)])[0])


if __name__ == "__main__":
    main()
