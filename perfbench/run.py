#!/usr/bin/env python3
"""Entry point of the sec benchmark.

Builds the `sec` daemon and the benchmark binary from this checkout,
runs one workload, and prints the result as the last line of standard
output. Run it from the root of the checkout:

    python3 perfbench/run.py --workload serve-revisions --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Workloads, metrics and the reasons behind them are in perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("serve-revisions", "serve-revisions-bdd")
# One run must end within 180 s; builds happen before the clock starts.
RUN_TIMEOUT_S = 170


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds both binaries; returns (bench, sec) paths or exits 1."""
    if not os.path.exists(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("run.py: no Cargo.toml at the checkout root: nothing to build")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "sec"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "sec-perfbench"), os.path.join(release, "sec")


def declared():
    """The metrics BENCHMARK.json declares: {trace flag: {name: unit}}."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_once(bench, sec, workload, seed, trace, extra=()):
    """Runs one workload in its own process group, so that a timeout
    also stops the daemon it started. Returns (exit code, stdout)."""
    cmd = [bench, "--workload", workload, "--seed", str(seed), "--trace", str(trace),
           "--sec-bin", sec, "--work-dir", os.path.join(target_dir(), "perfbench"), *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return 124, ""
    finally:
        try:
            # Anything left in the group (a daemon whose parent died).
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def parse_result(out, trace, metrics):
    """The last stdout line as a result; None unless it carries exactly
    the declared metrics with their units."""
    lines = out.strip().splitlines()
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    return res if got == metrics[trace] else None


def self_test(bench, sec, metrics):
    """Reduced-size runs of every workload: each must report every
    declared metric with its unit, and a planted wrong answer must come
    out as a failed operation."""
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            for plant in (False, True):
                extra = ["--small"] + (["--plant"] if plant else [])
                code, out = run_once(bench, sec, w, 7, trace, extra)
                found = check_small_run(code, parse_result(out, trace, metrics), trace, plant)
                what = f"{w} trace={trace} plant={plant}"
                print(f"self-test {what}: {'; '.join(found) or 'ok'}")
                problems += found
    return 1 if problems else 0


def check_small_run(code, res, trace, plant):
    """What is wrong with one self-test run, as a list of findings."""
    if code != 0 or res is None:
        return [f"exit {code}, no well-formed result"]
    found = []
    if res["failed"] != (1 if plant else 0) or res["correct"] == plant:
        found.append(f"failed={res['failed']} correct={res['correct']}")
    m = res["metrics"]
    if trace == 0 and plant and m["decided"]["value"] >= 1.0:
        found.append("the planted answer counted as decided")
    if trace == 1 and abs(m["obs.span_self_sum_pct"]["value"] - 100.0) > 2.0:
        found.append(f"layer spans cover {m['obs.span_self_sum_pct']['value']:.2f}% of check_s")
    return found


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0xDA7E)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    metrics = declared()
    bench, sec = build()
    if args.self_test:
        return self_test(bench, sec, metrics)
    if args.workload is None:
        ap.error("--workload is required")
    code, out = run_once(bench, sec, args.workload, args.seed, args.trace,
                         ["--seconds", str(args.seconds)])
    if code != 0 or parse_result(out, args.trace, metrics) is None:
        # No result line: print the run's own output for diagnosis only.
        sys.stderr.write(out)
        print(f"run.py: {args.workload} exited {code} without a well-formed result",
              file=sys.stderr)
        return code or 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
