#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The simulator sources under src/ and perfbench/perfbench.cc
are compiled into the build directory ($CARGO_TARGET_DIR if set, else
.bench_build). The last line of stdout is the benchmark's result object;
the line before it records the host, the build and the source digest.
Build output and diagnostics go to stderr. Any build or run failure
exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 175
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# The seed the benchmark was tuned on, and the seed later claims must
# also hold on (see NOTES.md).
TUNING_SEEDS = "1-20"
HELD_OUT_SEED = 424242


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")


def build():
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(bdir), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    exe = bdir / "perfbench"
    if not exe.is_file():
        fail("no perfbench binary in " + str(bdir))
    return exe


def source_digest():
    """sha256 over every file under src/ and perfbench/ (path + bytes):
    identifies the measured source when the checkout has no git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode() + b"\0")
                h.update(p.read_bytes())
    return h.hexdigest()


def source_commit():
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or None


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def run_bench(exe, args):
    """Run the benchmark program; return its host fingerprint, run info, result
    object and the result line as printed."""
    try:
        p = subprocess.run([str(exe)] + args, capture_output=True,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark program timed out")
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        fail("benchmark program failed (exit %d)" % p.returncode)
    host = json.loads(lines[-3])["host"] if len(lines) >= 3 else {}
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    return host, json.loads(lines[-2]), result, lines[-1]


def check_names(result, trace):
    e2e, layer = declared_metrics()
    want = layer if trace else e2e
    got = list(result["metrics"])
    if sorted(got) != sorted(want):
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name in got:
        if not NAME_RE.match(name):
            fail("bad metric name " + name)


def selftest(exe):
    if subprocess.run([str(exe), "--selftest"]).returncode != 0:
        fail("benchmark self-test failed")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace in (0, 1):
            _, _, r, _ = run_bench(exe, ["--workload", w["name"], "--seed",
                                      "3", "--seconds", "0", "--trace",
                                      str(trace), "--tiny"])
            check_names(r, trace)
            if not r["correct"] or r["failed"] or r["attempted"] < 1:
                fail("tiny %s trace=%d not correct" % (w["name"], trace))
    print("selftest: all workloads emit every declared metric")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()

    exe = build()
    if a.selftest:
        selftest(exe)
        return
    if not a.workload:
        fail("--workload is required")
    host, extra, result, line = run_bench(
        exe, ["--workload", a.workload, "--seed", str(a.seed),
              "--seconds", str(a.seconds), "--trace", str(a.trace)])
    check_names(result, a.trace)
    fingerprint = {
        "host": host,
        "source_sha256": source_digest(),
        "source_commit": source_commit(),
        "workload": a.workload,
        "seed": a.seed,
        "tuning_seeds": TUNING_SEEDS,
        "held_out_seed": HELD_OUT_SEED,
        "trace": a.trace,
        "passes": extra.get("passes"),
    }
    print(json.dumps({"fingerprint": fingerprint}))
    print(line)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
