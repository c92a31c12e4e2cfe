#!/usr/bin/env python3
"""End-to-end benchmark of the fisheye correction library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload camera_1080p --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (and the library modules
it links) into .bench_build/perfbench; later calls rebuild incrementally.
The harness then runs one workload and its last line of standard output,
one JSON object with correct/attempted/failed/metrics, is passed through
as this script's last line. See perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(target):
    """Configure (once) and build `target`; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"library sources not found under {ROOT}/src")
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", target, "-j4"],
        stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def run_harness(cmd):
    """Run the harness in its own process group; kill the group on timeout.

    Returns (exit code, stdout text)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"harness exceeded {HARNESS_TIMEOUT_S} s and was killed")
        return 1, ""
    return proc.returncode, out


def selftest():
    """Build and run the harness self-tests, then the catalogue check."""
    binary = build("perfbench_selftest")
    build("perfbench_harness")
    rc = subprocess.run([binary], stdout=sys.stderr).returncode
    rc2 = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s",
         os.path.join(HERE, "tests"), "-p", "test_*.py"],
        stdout=sys.stderr).returncode
    return 1 if rc or rc2 else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if a.selftest:
        return selftest()
    if not a.workload:
        p.error("--workload is required")
    try:
        binary = build("perfbench_harness")
    except subprocess.CalledProcessError as e:
        log(f"build failed: {e}")
        return 2
    rc, out = run_harness([
        binary, "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", str(a.trace),
        "--out-dir", OUT])
    lines = out.rstrip("\n").splitlines()
    if rc != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        log(f"harness failed (exit {rc})")
        return rc or 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
