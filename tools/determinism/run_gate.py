#!/usr/bin/env python3
"""Determinism gate: byte-identical traces/metrics or the build fails.

Runs one fixed fault plan (tools/determinism/plans/*.json) on mrp_fuzz's
plan executor. For each seed (the plan's own seed is replaced), three
runs:
  A. plain
  B. plain again                      -> catches wall clock / unseeded rand
  C. MALLOC_PERTURB_ + --perturb-heap -> catches heap-address dependence
     (pointer-keyed containers, pointer values in traces,
     unordered-container iteration order)

and byte-compares both output files (trace JSONL, metrics JSON) of B and
C against A. Every run must keep the oracles clean, and run A must show
the scenario's markers (--trace-kind: some trace event of that kind;
--metric-positive: that counter, summed over all nodes, is > 0), so a
plan whose faults stopped firing fails instead of comparing quiet runs.
"""

import argparse
import filecmp
import json
import os
import subprocess
import sys


def first_diff(path_a, path_b):
    """Human-readable pointer at the first differing line."""
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        for i, (la, lb) in enumerate(zip(fa, fb), start=1):
            if la != lb:
                return (f"line {i}:\n  A: {la[:200]!r}\n  B: {lb[:200]!r}")
    return "files differ in length"


def run_plan(fuzz, plan, out_base, seed, perturb):
    trace = out_base + ".trace.jsonl"
    metrics = out_base + ".metrics.json"
    cmd = [fuzz, "--plan", plan, "--trace", trace, "--out-metrics", metrics]
    env = dict(os.environ)
    if perturb:
        cmd += ["--perturb-heap", str(0x9E3779B9 ^ seed)]
        # glibc fills freed/allocated chunks with this byte, so any read
        # of stale heap memory changes the output too.
        env["MALLOC_PERTURB_"] = "170"
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        print(f"determinism_gate: run failed ({' '.join(cmd)}):\n"
              f"{proc.stdout}{proc.stderr}", file=sys.stderr)
        sys.exit(1)
    return trace, metrics


def missing_markers(trace, metrics, kinds, counters):
    """Markers of the scenario that the outputs of one run lack."""
    seen = set()
    with open(trace, encoding="utf-8") as f:
        for line in f:
            seen.add(json.loads(line)["kind"])
    missing = [f"trace kind '{k}'" for k in kinds if k not in seen]
    with open(metrics, encoding="utf-8") as f:
        snap = json.load(f)
    registries = [snap["net"]] + list(snap["nodes"].values())
    for name in counters:
        total = sum(r["counters"].get(name, 0) for r in registries)
        if total <= 0:
            missing.append(f"counter '{name}' > 0 (got {total})")
    return missing


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--fuzz", required=True, help="mrp_fuzz binary")
    ap.add_argument("--plan", required=True, help="fault plan JSON")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seeds", default="1,42")
    ap.add_argument("--trace-kind", action="append", default=[])
    ap.add_argument("--metric-positive", action="append", default=[])
    args = ap.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    with open(args.plan, encoding="utf-8") as f:
        plan = json.load(f)
    failures = []
    for seed in [int(s) for s in args.seeds.split(",")]:
        base = os.path.join(args.workdir, f"seed{seed}")
        plan["seed"] = seed
        plan_path = base + ".plan.json"
        with open(plan_path, "w", encoding="utf-8") as f:
            json.dump(plan, f)
        ref = run_plan(args.fuzz, plan_path, base + ".a", seed, perturb=False)
        for marker in missing_markers(*ref, args.trace_kind,
                                      args.metric_positive):
            failures.append(f"seed {seed}: no {marker} ({args.plan})")
        for tag, perturb in (("rerun", False), ("perturbed", True)):
            got = run_plan(args.fuzz, plan_path, f"{base}.{tag}", seed,
                           perturb=perturb)
            for kind, a, b in (("trace", ref[0], got[0]),
                               ("metrics", ref[1], got[1])):
                if not filecmp.cmp(a, b, shallow=False):
                    failures.append(
                        f"seed {seed}: {kind} differs on {tag} run "
                        f"({a} vs {b})\n  first diff at {first_diff(a, b)}")
        print(f"determinism_gate: seed {seed} done")

    if failures:
        print("determinism_gate: FAIL\n" + "\n".join(failures),
              file=sys.stderr)
        sys.exit(1)
    print("determinism_gate: OK (rerun + perturbed byte-identical, "
          "markers present)")


if __name__ == "__main__":
    main()
