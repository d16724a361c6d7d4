#!/usr/bin/env bash
# Repeatability calibration: run every workload N times (default 5) with
# different seeds and print, for each (workload, end-to-end metric), the median
# and the relative spread: the distance between the first and third quartile of
# the N values (Python's statistics.quantiles(values, n=4)) over their median.
# The output is the Markdown that CALIBRATION.md holds; every run's result line and
# its operation times are also appended to benchmark/out/repeat.jsonl.
#   bash benchmark/scripts/repeat.sh [runs] [first-seed]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
exec python3 - "$here" "${1:-5}" "${2:-1}" <<'PY'
import json, os, platform, statistics, subprocess, sys, time

here, runs, first_seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
spec = json.load(open(os.path.join(here, "..", "BENCHMARK.json")))
root = os.path.join(here, "..")

def sh(*cmd):
    return subprocess.run(cmd, capture_output=True, text=True).stdout.strip()

print("## Host\n")
print(f"- `nproc`: {os.cpu_count()}")
print(f"- kernel: {platform.release()}")
print(f"- rustc: {sh('rustc', '--version')}")
print("- network: loopback (`127.0.0.1`), client and server in one process")
print(f"- runs per workload: {runs}, seeds {first_seed}..{first_seed + runs - 1}, "
      f"window {spec['run_seconds']} s\n")
print("## Spread of the end-to-end metrics\n")
print("| workload | metric | median | spread | min | max | bound |")
print("|---|---|---:|---:|---:|---:|---:|")
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
started = time.time()
for workload in (w["name"] for w in spec["workloads"]):
    values = {}
    for i in range(runs):
        out = subprocess.run(
            spec["command"] + ["--workload", workload, "--seed", str(first_seed + i),
                               "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=root, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"{workload} seed {first_seed + i} failed:\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        os.makedirs(os.path.join(here, "out"), exist_ok=True)
        with open(os.path.join(here, "out", "repeat.jsonl"), "a") as raw:
            walls = [l.split(": ", 1)[1] for l in out.stdout.splitlines() if l.startswith("  op wall ms: ")]
            raw.write(json.dumps({"workload": workload, "seed": first_seed + i,
                                  "op_wall_ms": json.loads(walls[0]), **result}) + "\n")
        if not result["correct"] or result["failed"]:
            sys.exit(f"{workload} seed {first_seed + i}: {result['failed']} failed operations")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, v in values.items():
        q = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        print(f"| {workload} | {name} | {med:.4g} | {(q[2] - q[0]) / med:.2%} "
              f"| {min(v):.4g} | {max(v):.4g} | {bounds[name]:.2f} |", flush=True)
print(f"\nWall time of the calibration: {time.time() - started:.0f} s.")
PY
