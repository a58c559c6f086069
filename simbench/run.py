#!/usr/bin/env python3
"""Build and run simbench, the simulator's end-to-end benchmark.

Run from the repository root:

    python3 simbench/run.py --workload paper-p16 --seed 1 --seconds 10 --trace 0
    python3 simbench/run.py --self-test
    python3 simbench/run.py --print-pins > simbench/pins.txt

The script builds simbench/ with CMake into $CARGO_TARGET_DIR/simbench
(default .bench_build/simbench), runs the benchmark binary, and prints one
JSON object as the last line of stdout with the keys correct, attempted,
failed and metrics. An untraced run (--trace 0) also repeats the set-up in
SETUP_REPEATS fresh processes and reports the median set-up time of all of
them. Every run writes a provenance-stamped results file, and a traced run
a Chrome trace-event file, under the build directory's results/. The exit
code is 0 only when every simulated cell passed its check.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 6


def fail(msg):
    print(f"simbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "simbench"
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", str(build_dir), "-j", jobs]):
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, timeout=850)
        except (OSError, subprocess.SubprocessError) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd)} exited {done.returncode}")
    return build_dir


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_binary(binary, args, timeout):
    """Run the benchmark binary; return (exit code, last-line JSON)."""
    try:
        done = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{binary.name} {' '.join(args)} ran past {timeout} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail(f"{binary.name} {' '.join(args)} exited {done.returncode}")
    return done.returncode, json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--print-pins", action="store_true")
    args = ap.parse_args()

    build_dir = build()
    binary = build_dir / "simbench"
    pins = ["--pins", str(BENCH_DIR / "pins.txt")]
    if args.self_test or args.print_pins:
        flag = "--self-test" if args.self_test else "--print-pins"
        sys.exit(subprocess.run([str(binary), flag] + pins).returncode)
    if not args.workload:
        fail("--workload is required")

    out_dir = build_dir / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    common = pins + ["--workload", args.workload, "--seed", str(args.seed),
                     "--out-dir", str(out_dir)]
    timeout = 2 * args.seconds + 120

    # Set-up is one cold pass per process, so it is sampled in fresh
    # processes, each starting on another CPU; the main run's own set-up
    # is one more sample.
    setup_runs = []
    if args.trace == 0:
        for i in range(SETUP_REPEATS):
            setup_runs.append(run_binary(
                binary, common + ["--setup-only", "--cpu-offset", str(i)],
                timeout)[1])
    code, detail = run_binary(
        binary, common + ["--seconds", str(args.seconds),
                          "--trace", str(args.trace),
                          "--cpu-offset", str(SETUP_REPEATS)], timeout)

    metrics = dict(detail["metrics"])
    runs = setup_runs + [detail]
    if setup_runs:
        setups = [r["metrics"]["setup_s"]["value"] for r in runs]
        metrics["setup_s"] = {"value": statistics.median(setups),
                              "unit": "s"}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {"correct": failed == 0 and code == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    provenance = dict(detail["provenance"], git_commit=git_commit())
    record = out_dir / (f"{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    record.write_text(json.dumps({"provenance": provenance,
                                  "result": result, "runs": runs},
                                 indent=1) + "\n")
    for r in runs:
        for f in r["failures"]:
            print(f"simbench: FAILED {f}", file=sys.stderr)
    print(f"simbench: results in {record}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
