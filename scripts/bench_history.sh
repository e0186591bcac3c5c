#!/usr/bin/env bash
# Append one point of the benchmark trajectory: run BENCHMARK.json's
# command once per workload (--trace 0, its run_seconds, seed SEED) and
# append one JSON line per workload to BENCH_history.jsonl:
#
#   {"git_rev", "host": {"nproc", "cpu"}, "workload", "seed", "result"}
#
# `result` is the run's final stdout line (end-to-end metrics, `correct`,
# `failed`). `git_rev` gets a `-dirty` suffix when tracked files other
# than the history itself differ from HEAD. Exits non-zero, appending
# nothing for that workload, if a run fails or reports incorrect.
#
#   scripts/bench_history.sh [SEED]     (default 1)
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - "${1:-1}" <<'EOF'
import json, subprocess, sys

seed = int(sys.argv[1])
spec = json.load(open("BENCHMARK.json"))

def sh(*cmd):
    return subprocess.run(cmd, capture_output=True, text=True).stdout.strip()

rev = sh("git", "rev-parse", "--short", "HEAD") or "no-git"
if sh("git", "status", "--porcelain", "--untracked-files=no", "--", ".", ":!BENCH_history.jsonl"):
    rev += "-dirty"
cpu = next((l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo")
            if l.startswith("model name")), "?")
host = {"nproc": int(sh("nproc") or 0), "cpu": cpu}

for w in (w["name"] for w in spec["workloads"]):
    out = subprocess.run(
        spec["command"] + ["--workload", w, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]), "--trace", "0"],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{w} seed {seed}: correct={result['correct']} failed={result['failed']}")
    line = {"git_rev": rev, "host": host, "workload": w, "seed": seed, "result": result}
    with open("BENCH_history.jsonl", "a") as f:
        f.write(json.dumps(line) + "\n")
    print(f"{w}: appended ({rev}, seed {seed})", file=sys.stderr, flush=True)
EOF
