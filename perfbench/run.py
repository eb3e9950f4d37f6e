#!/usr/bin/env python3
"""Build and run one workload of the paper-pipeline benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 45 --trace 0

Configures and builds perfbench/ (which compiles the library from src/)
in Release mode under $CARGO_TARGET_DIR (default .bench_build), runs the
pipeline_bench binary with a scratch directory inside that build tree,
and passes its output through.  The last line of stdout is the result
object; see perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ["paper", "campaign"]
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# A run must finish within 180 s, start-up included.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build pipeline_bench; return its path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "pipeline_bench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                # A failed configure must not be mistaken for a finished one.
                if "-S" in cmd:
                    shutil.rmtree(build_dir, ignore_errors=True)
                sys.exit("perfbench: build failed (%s)" % " ".join(cmd))
    return os.path.join(build_dir, "pipeline_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(os.path.join(root, "perfbench"))

    work_root = os.path.join(root, "work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=args.workload + "-", dir=work_root)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.trace:
        spans_dir = os.path.join(root, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish in %d s"
                 % (args.workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.exit("perfbench: pipeline_bench exited with %d" % proc.returncode)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
