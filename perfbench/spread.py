#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Run from the root of a checkout:

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0|1] [--jsonl out.jsonl]

For every workload and metric it prints the median over the seeds and the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of that median, next to the metric's bound from BENCHMARK.json.
Every result line is appended to --jsonl when given.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", default=str(bench["run_seconds"]))
    ap.add_argument("--jsonl")
    a = ap.parse_args()
    section = "end_to_end" if a.trace == "0" else "per_layer"
    bounds = {m["name"]: m.get("bound") for m in bench[section]}
    ok = True
    for workload in a.workloads.split(","):
        values = {}
        for seed in seeds(a.seeds):
            cmd = [sys.executable, *bench["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", a.seconds, "--trace", a.trace]
            started = time.monotonic()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.monotonic() - started
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                return 1
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if a.jsonl:
                info = next((l for l in lines if l.startswith("info:")), "")
                with open(a.jsonl, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed, "wall_s": wall, "info": info,
                                        **result}) + "\n")
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: NOT CORRECT", file=sys.stderr)
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed} ({wall:.0f} s): " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and not spread < bound / 3:
                flag = "  <-- spread above a third of the bound"
            print(f"  {workload:24s} {name:28s} median={med:<12.6g} iqr/median={spread:.4f}"
                  f"  bound={bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
