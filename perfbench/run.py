#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a source tree.  The first call configures and builds
the library and the benchmark (CMake, into $CARGO_TARGET_DIR or
.bench_build); later calls only rebuild what changed.  The benchmark
measures the program's defaults: every JACC_* variable is cleared and only
the worker cap JACC_NUM_THREADS=<nproc> is set.  The binary's output is
passed through; its last line is the JSON result.  The exit code is non-zero
when the build fails, a result check fails, or the run does not finish.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hpccg_small", "lbm_large", "serve_open", "sim_gpu")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def source_digest():
    """Content hash of the library and benchmark sources (the checkout the
    benchmark runs in is not a git repository)."""
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith(".pyc"):
                    continue
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def build(target):
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    t0 = time.monotonic()
    if not os.path.exists(os.path.join(bdir, "Makefile")):  # not configured
        cfg = subprocess.run(["cmake", "-S", HERE, "-B", bdir],
                             stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return None
    jobs = str(max(1, nproc()))
    res = subprocess.run(
        ["cmake", "--build", bdir, "--target", target, "-j", jobs],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if res.returncode != 0:
        sys.stderr.write(res.stdout[-8000:])
        return None
    log(f"build of {target} ready in {time.monotonic() - t0:.1f} s")
    return os.path.join(bdir, target)


def clean_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("JACC_")}
    env["JACC_NUM_THREADS"] = str(nproc())
    return env


def run_child(cmd, timeout_s):
    """Runs cmd, forwarding its stdout; kills and reaps it on timeout."""
    proc = subprocess.Popen(cmd, env=clean_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"timed out after {timeout_s:.0f} s")
        return None, 1
    return out, proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own unit tests")
    a = ap.parse_args()
    start = time.monotonic()

    if a.self_test:
        exe = build("perfbench_tests")
        if exe is None:
            log("build failed")
            return 3
        out, code = run_child([exe], RUN_TIMEOUT_S)
        sys.stdout.write(out or "")
        return code
    if a.workload is None:
        ap.error("--workload is required")

    exe = build("perfbench")
    if exe is None:
        log("build failed")
        return 3
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace),
           "--out-dir", out_dir, "--commit", source_digest()]
    # A run shares its time budget with an up-to-date build check; the first
    # run of a checkout, which compiles everything, gets the budget afresh.
    spent = time.monotonic() - start
    out, code = run_child(cmd, RUN_TIMEOUT_S - spent if spent < 60
                          else RUN_TIMEOUT_S)
    if out is None:
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        ok = False
    if not ok:
        log("the benchmark printed no result line")
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
