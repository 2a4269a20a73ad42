#!/usr/bin/env bash
# Run every workload twice on this checkout with one seed and fail if the
# two runs disagree: neither run's end-to-end metric may be worse than the
# other's by more than its bound in BENCHMARK.json, and every per-layer
# metric that is a count, a byte size, a cycle count or a virtual time
# must repeat exactly.
#
# usage: benchmark/agree.sh [seed]
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - "${1:-1}" <<'PY'
import json, subprocess, sys

seed = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
EXACT_UNITS = {"count", "B", "cycles", "ms"}

def run(workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", seed,
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    return {name: m["value"] for name, m in result["metrics"].items()}

def worse_by(metric, reference, value):
    """Share of `reference` by which `value` is worse."""
    delta = value - reference if metric["better"] == "lower" else reference - value
    return delta / reference

bad = 0
for workload in (w["name"] for w in spec["workloads"]):
    first, second = run(workload, 0), run(workload, 0)
    for metric in spec["end_to_end"]:
        a, b = first[metric["name"]], second[metric["name"]]
        worse = max(worse_by(metric, a, b), worse_by(metric, b, a))
        ok = worse <= metric["bound"]
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {workload:14} {metric['name']:12} "
              f"{a:14.4f} {b:14.4f} {metric['unit']:6} differ {worse:7.2%} bound {metric['bound']:.0%}")
    first, second = run(workload, 1), run(workload, 1)
    exact = [m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS]
    differing = [n for n in exact if first[n] != second[n]]
    bad += len(differing)
    print(f"{'FAIL' if differing else 'ok  '} {workload:14} {len(exact)} exact per-layer metrics"
          + (f": differ in {', '.join(differing)}" if differing else " repeat"))
sys.exit(1 if bad else 0)
PY
