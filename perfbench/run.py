#!/usr/bin/env python3
"""Benchmark of record for mpqopt: build, self-test, run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cold_large --seed 1 --seconds 10 --trace 0

Builds the library, the mpqopt_worker server and the benchmark driver
from source into $CARGO_TARGET_DIR (default .bench_build) with
perfbench/CMakeLists.txt, runs the arithmetic self-test, then runs the
driver. The driver's output is passed through; its last line is the JSON
result. The exit code is nonzero when the build, the self-test or any
output check fails. perfbench/README.md describes the workloads and
metrics.
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures and builds; build output goes to stderr."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", out_dir, "-j", "4"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_revision():
    """Git revision when available, else a digest of the sources built."""
    try:
        rev = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
             "tools", "perfbench"],
            capture_output=True, text=True, check=True).stdout.strip()
        return rev + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def stop_group(pgid):
    """Kills whatever is left of the driver's process group and waits
    until the group is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    selftest = subprocess.run([os.path.join(out_dir, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        print("perfbench: arithmetic self-test failed", file=sys.stderr)
        return 3

    log_dir = os.path.join(out_dir, "logs")
    os.makedirs(log_dir, exist_ok=True)
    cmd = [
        os.path.join(out_dir, "perfbench_driver"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--worker-bin={os.path.join(out_dir, 'mpqopt_worker')}",
        f"--source-rev={source_revision()}",
        f"--log-dir={log_dir}",
    ]
    if args.trace:
        cmd.append("--spans-out=" + os.path.join(
            out_dir, f"spans-{args.workload}-{args.seed}.json"))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        out, code = "", 124
        print("perfbench: driver timed out", file=sys.stderr)
    finally:
        stop_group(proc.pid)
        proc.wait()
    sys.stdout.write(out)
    lines = [line.strip() for line in out.splitlines() if line.strip()]
    last = lines[-1] if lines else ""
    if code != 0:
        return code
    try:
        result = json.loads(last)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        print("perfbench: driver printed no result line", file=sys.stderr)
        return 4
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
