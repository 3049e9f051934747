#!/usr/bin/env python3
"""Runs one workload of the Multi-Ring Paxos end-to-end benchmark.

    python3 mrpbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 mrpbench/run.py --self-test

Run from the repository root. The first call configures and builds the
benchmark (mrpbench/CMakeLists.txt compiles the library from src/) into
$CARGO_TARGET_DIR/mrpbench, default .bench_build/mrpbench; later calls
only re-check the build. The last line of standard output is the result
object printed by the benchmark binary; the exit code is 0 only when
every output check and load-honesty gate passed. See mrpbench/README.md.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"mrpbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "mrpbench"


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (ROOT / "src" / "ringpaxos" / "ring_node.cc").is_file():
        log(f"repository sources not found under {ROOT / 'src'}")
        sys.exit(2)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                log("build failed")
                sys.exit(2)
    return out / "mrpbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def parse_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    return result


def run_workload(binary, workload, seed, seconds, trace, forward=True):
    """Runs the binary; returns (exit code, parsed result or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(traces / f"{workload}-seed{seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    if forward:
        sys.stdout.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    try:
        result = parse_result(lines[-1])
    except (ValueError, IndexError) as err:
        log(f"{workload}: no result line ({err}); exit code {proc.returncode}")
        return proc.returncode or 1, None
    if result["correct"]:
        names = list(result["metrics"])
        want = expected_metrics(trace)
        if names != want:
            log(f"{workload}: metrics {names} differ from BENCHMARK.json {want}")
            return 1, None
    if forward:
        print(lines[-1], flush=True)
    return (0 if result["correct"] and proc.returncode == 0 else 1), result


def self_test(binary):
    """The binary's own checks plus the result contract on short runs."""
    ok = subprocess.run([str(binary), "--self-test"]).returncode == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            # 10 s: the runtime's ten repetitions then have 1 s windows,
            # long enough for the latency-growth gate to mean something.
            code, result = run_workload(binary, name, 7, 10, trace, forward=False)
            # End-to-end metrics are never 0; per-layer ones are 0 for
            # layers a workload does not run through.
            good = code == 0 and result is not None and (
                trace or all(m["value"] > 0 for m in result["metrics"].values()))
            print(f"self-test: {name:<16} trace={int(trace)} result contract "
                  f"{'ok' if good else 'FAILED'}")
            ok = ok and good
    print(f"self-test: {'PASSED' if ok else 'FAILED'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    binary = build()
    if args.self_test:
        return self_test(binary)
    code, _ = run_workload(binary, args.workload, args.seed, args.seconds, args.trace == 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
