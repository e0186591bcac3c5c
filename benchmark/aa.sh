#!/usr/bin/env bash
# A/A check: two sets of N (default 5) runs of the same build, alternating
# A1 B1 A2 B2 …, every run on another seed. Prints, per workload × end-to-end
# metric, both medians with their quartiles, the spread (IQR / median) of
# each set and of all 2N runs, the relative gap between the medians and the
# metric's bound from BENCHMARK.json; exits 1 if any gap exceeds its bound.
#
#   benchmark/aa.sh [N]
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - "${1:-5}" <<'EOF'
import json, statistics, subprocess, sys

n = int(sys.argv[1])
spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m for m in spec["end_to_end"]}
workloads = [w["name"] for w in spec["workloads"]]

def sh(*cmd):
    return subprocess.run(cmd, capture_output=True, text=True).stdout.strip()

cpu = next((l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo") if l.startswith("model name")), "?")
print(f"host: nproc={sh('nproc')}  cpu={cpu}  rev={sh('git', 'rev-parse', '--short', 'HEAD') or 'no-git'}"
      f"  run_seconds={spec['run_seconds']}  N={n}", flush=True)

runs = {}  # (set, workload, metric) -> [values]
for i in range(n):
    for s in "AB":
        for w in workloads:
            seed = (1000 if s == "A" else 2000) + i
            out = subprocess.run(
                spec["command"] + ["--workload", w, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed}: correct={result['correct']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                runs.setdefault((s, w, name), []).append(m["value"])
        print(f"  set {s} run {i + 1}/{n} done", file=sys.stderr, flush=True)

def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3

bad = 0
print(f"{'workload':<12} {'metric':<14} {'median A [q1, q3]':<36} {'median B [q1, q3]':<36} "
      f"{'spread A':>8} {'spread B':>8} {'spread 2N':>9} {'gap':>7} {'bound':>6}")
for w in workloads:
    for name, b in bounds.items():
        (ma, a1, a3), (mb, b1, b3) = summary(runs[("A", w, name)]), summary(runs[("B", w, name)])
        mall, all1, all3 = summary(runs[("A", w, name)] + runs[("B", w, name)])
        gap = abs(mb - ma) / ma
        verdict = "" if gap <= b["bound"] else "  FAIL"
        bad += bool(verdict)
        print(f"{w:<12} {name:<14} {f'{ma:.4g} [{a1:.4g}, {a3:.4g}]':<36} {f'{mb:.4g} [{b1:.4g}, {b3:.4g}]':<36} "
              f"{(a3 - a1) / ma:>8.3f} {(b3 - b1) / mb:>8.3f} {(all3 - all1) / mall:>9.3f} {gap:>7.3f} "
              f"{b['bound']:>6.2f}{verdict}")
sys.exit(1 if bad else 0)
EOF
