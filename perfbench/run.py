#!/usr/bin/env python3
"""Benchmark entry point: builds the driver from source, runs one workload.

    python3 perfbench/run.py --workload sweep32 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The first run configures and
builds perfbench/ (which pulls in ../src) under $CARGO_TARGET_DIR
(default .bench_build), then every run executes the driver. The driver's
report lines are passed through; the last stdout line is one JSON object
with exactly the keys correct, attempted, failed and metrics. For seeds
listed in perfbench/pins.json the workload fingerprints must also match
the pinned values. The exit code is 0 only when every check passed.

--self-test runs each workload briefly with a deliberately wrong pinned
fingerprint and with the right one, and fails unless the wrong pin fails
the run and the right pin passes it.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep32", "tape", "survey", "gauntlet")
# The driver is stopped after its --seconds of passes plus this allowance
# for set-up, warm-up and the last pass; a traced run's layer timings get
# --seconds once more.
SETUP_ALLOWANCE_S = 110


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    configured = out / "configured.stamp"

    def step(cmd):
        with open(log_path, "a") as log:
            ok = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode == 0
        if not ok:
            sys.stderr.write(f"perfbench: build step failed: {' '.join(cmd)}\n")
            sys.stderr.write("".join(open(log_path).readlines()[-30:]))
        return ok

    if not configured.exists():
        if not step(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]):
            return None
        configured.touch()
    jobs = str(min(4, os.cpu_count() or 1))
    if not step(["cmake", "--build", str(out), "-j", jobs, "--target", "perfbench_driver"]):
        return None
    return out / "perfbench_driver"


def pinned(seed):
    """Pinned fingerprints for this seed, {workload: hex}, or {}."""
    pins = json.loads((HERE / "pins.json").read_text())
    return pins["fingerprints"].get(str(seed), {})


def driver_timeout(seconds, trace):
    return SETUP_ALLOWANCE_S + seconds * (2 if trace else 1)


def run_driver(driver, workload, seed, seconds, trace, expect):
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    for name, fp in sorted(expect.items()):
        cmd += ["--expect", f"{name}={fp}"]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"trace-{workload}-{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=driver_timeout(seconds, trace))
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: driver timed out\n")
        return None, 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None, proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        return None, proc.returncode or 1
    return report, proc.returncode


def bench(args):
    driver = build()
    if driver is None:
        return 1
    expect = pinned(args.seed)
    if not args.trace:
        expect = {k: v for k, v in expect.items() if k == args.workload}
    report, code = run_driver(driver, args.workload, args.seed, args.seconds,
                              args.trace, expect)
    if report is None:
        return code or 1
    print("fingerprints: " + json.dumps(report["fingerprints"]) +
          ("  (pinned)" if expect else "  (seed not pinned)"))
    if report["mix"]:
        print("mix: " + json.dumps({k: v["value"] for k, v in report["mix"].items()}))
    for s in report["skipped"]:
        print("skipped: " + s)
    result = {k: report[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    ok = code == 0 and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


def self_test():
    driver = build()
    if driver is None:
        return 1
    pins = json.loads((HERE / "pins.json").read_text())
    seed = pins["default_seed"]
    good = pins["fingerprints"][str(seed)]
    failures = 0
    for w in WORKLOADS:
        wrong = format(int(good[w], 16) ^ 1, "#018x")
        for label, fp, want_ok in (("wrong pin", wrong, False), ("right pin", good[w], True)):
            report, code = run_driver(driver, w, seed, 1, 0, {w: fp})
            ok = report is not None and code == 0 and report["correct"]
            verdict = "PASS" if ok == want_ok else "FAIL"
            failures += verdict == "FAIL"
            print(f"self-test {w:9s} {label}: run {'passed' if ok else 'failed'} -> {verdict}")
    print("self-test: " + ("PASS" if failures == 0 else f"FAIL ({failures})"))
    return 0 if failures == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        p.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        p.error("--seed must be >= 0 and --seconds in [1, 600]")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
