#!/usr/bin/env python3
"""Run one perfbench workload (or all of them) and print its result.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is pi25_setup, pi35_rounds, lcld_classify, lcld_mixed, or all. The
script builds liblcl, lcld and the perfbench harness from this checkout's
sources (CMake, Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, runs the harness self-tests,
then runs the workload. The last line of stdout is the JSON result; the
exit code is non-zero when the build, a self-test or any output check
fails. With --trace 1 the traced run's spans are written next to the
build, under traces/.
"""
import argparse
import fcntl
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ["pi25_setup", "pi35_rounds", "lcld_classify", "lcld_mixed"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configures and builds the harness; returns False on failure."""
    os.makedirs(out, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        for cmd in (["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", out, "-j", jobs,
                     "--target", "perfbench", "lcld"]):
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return False
    return True


def stop_group(pgid):
    """Kills what is left of a process group and waits (up to 5 s) until
    it is gone."""
    for _ in range(500):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run(cmd):
    """Runs cmd in its own process group, relaying stdout; kills the whole
    group (lcld included) if it overruns. Returns (code, last line)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        stop_group(proc.pid)
        log(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(cmd)}")
        return 1, ""
    stop_group(proc.pid)  # a daemon left behind by a crashed harness
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    return proc.returncode, lines[-1] if lines else ""


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "local", "engine.hpp")):
        log(f"no lcl sources under {ROOT}")
        return 2
    out = build_dir()
    if not build(out):
        log("build failed")
        return 1
    harness = os.path.join(out, "perfbench")
    code, last = run([harness, "--selftest"])
    print(last)
    if code != 0:
        return 1

    trace_dir = os.path.join(out, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    failed = []
    for w in workloads:
        code, last = run([harness, "--workload", w, "--seed", str(args.seed),
                          "--seconds", str(args.seconds),
                          "--trace", str(args.trace),
                          "--lcld", os.path.join(out, "lcld"),
                          "--trace-dir", trace_dir])
        if len(workloads) > 1:
            print(f"== {w}: exit {code}")
        print(last, flush=True)
        if code != 0:
            failed.append(w)
    if failed:
        log(f"failed: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
