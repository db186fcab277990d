#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, at smoke size.

Run from the repo root:

    python3 perfbench/self_test.py

Builds ptperf_perfbench (as run.py does), runs every workload at
--size tiny with tracing off and on, and checks that:
  * every metric BENCHMARK.json names prints with its unit, and no other;
  * the run is correct: the reference-seed digest matches, every
    repetition and the --jobs 1 campaign agree, nothing threw;
  * the traced run's digest equals the untraced run's (the traced, replayed
    and untraced campaigns describe the same samples);
  * malformed command lines exit 2, from run.py and from ptperf_perfbench.
Exits 0 when every check passes, 1 otherwise.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

SEED = "3"
failures = []


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def run_bench(binary, workload, trace):
    cmd = [binary, "--workload", workload, "--seed", SEED, "--seconds", "1",
           "--trace", trace, "--size", "tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    digest = None
    for line in lines:
        m = re.match(r"workload \S+ seed \d+ jobs \d+: .* digest ([0-9a-f]{16})",
                     line)
        if m:
            digest = m.group(1)
    return proc.returncode, result, digest


def expect_metrics(result, specs, label):
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in specs}
    got = {k: v.get("unit") for k, v in metrics.items()}
    check(got == want, "%s prints every metric with its unit" % label)
    check(all(isinstance(v.get("value"), (int, float))
              for v in metrics.values()), "%s values are numbers" % label)


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()

    # Every workload, including browse, which BENCHMARK.json does not gate.
    for workload in run.WORKLOADS:
        rc, e2e, digest0 = run_bench(binary, workload, "0")
        check(rc == 0 and e2e.get("correct") is True and e2e.get("failed") == 0,
              "%s untraced run is correct" % workload)
        expect_metrics(e2e, spec["end_to_end"], "%s untraced" % workload)
        rc, traced, digest1 = run_bench(binary, workload, "1")
        check(rc == 0 and traced.get("correct") is True
              and traced.get("failed") == 0, "%s traced run is correct" % workload)
        expect_metrics(traced, spec["per_layer"], "%s traced" % workload)
        check(digest0 is not None and digest0 == digest1,
              "%s traced digest %s equals untraced %s"
              % (workload, digest1, digest0))

    bad = [["--workload", "bulk", "--seed", "1", "--seconds", "1", "--trace",
            "0", "--bogus", "1"],
           ["--workload", "bulk", "--seed", "x1", "--seconds", "1", "--trace",
            "0"],
           ["--workload", "bulk", "--seed", "1", "--seconds", "1.5",
            "--trace", "0"],
           ["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace",
            "0"],
           ["--workload", "bulk", "--seed", "1", "--seconds", "1", "--trace",
            "2"],
           ["--workload", "bulk", "--seed", "1", "--seconds", "1"]]
    for argv in bad:
        for label, cmd in (("ptperf_perfbench", [binary] + argv),
                           ("run.py", [sys.executable,
                                       os.path.join(HERE, "run.py")] + argv)):
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=60)
            check(proc.returncode == 2 and not proc.stdout,
                  "%s exits 2 on %s" % (label, " ".join(argv)))

    print("%d check(s) failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
