#!/usr/bin/env python3
"""Builds and runs the PTPerf end-to-end benchmark.

Run from the repo root:

    python3 perfbench/run.py --workload bulk|browse|tunnel --seed N \
        --seconds S --trace 0|1

Every run configures and builds perfbench/ (which compiles ../src) in
Release mode under $CARGO_TARGET_DIR/perfbench, default .bench_build/; only
the first build compiles everything. Build output goes to stderr, the
benchmark's report to stdout, whose last line is one JSON object. A
malformed command line exits 2 before building; a failed build exits 1
without a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bulk", "browse", "tunnel")
FLAGS = ("--workload", "--seed", "--seconds", "--trace", "--size")
RUN_TIMEOUT_S = 170


def usage_error(msg):
    sys.stderr.write(
        "error: %s\nusage: run.py --workload %s --seed N --seconds S "
        "--trace 0|1 [--size full|tiny]\n" % (msg, "|".join(WORKLOADS)))
    sys.exit(2)


def check_args(argv):
    """Rejects what ptperf_perfbench would reject, before paying for a build."""
    if len(argv) % 2:
        usage_error("every flag takes one value")
    seen = {}
    for flag, value in zip(argv[::2], argv[1::2]):
        if flag not in FLAGS:
            usage_error("unknown flag '%s'" % flag)
        seen[flag] = value
    for flag in FLAGS[:4]:
        if flag not in seen:
            usage_error("%s is required" % flag)
    if seen["--workload"] not in WORKLOADS:
        usage_error("unknown workload '%s'" % seen["--workload"])
    for flag in ("--seed", "--seconds"):
        if not seen[flag].isdigit() or not seen[flag].isascii():
            usage_error("%s needs a whole number" % flag)
    if seen["--trace"] not in ("0", "1"):
        usage_error("--trace must be 0 or 1")


def build_dir():
    return os.path.join(os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build")), "perfbench")


def build():
    """Configures and builds incrementally. Returns the binary path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "-j", jobs]):
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "ptperf_perfbench")


def main(argv):
    check_args(argv)
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.stderr.write("error: benchmark build failed: %s\n" % e)
        return 1
    try:
        proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("error: benchmark exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
