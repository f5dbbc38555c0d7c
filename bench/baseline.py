"""Run every workload on several seeds and record median and quartiles.

    python3 bench/baseline.py --runs 10 --out bench/baseline.json

Seeds are 1..runs.  For each workload and end-to-end metric it stores the ten
values, their median, the quartiles from statistics.quantiles(n=4), and the
spread (Q3 - Q1) / median that BENCHMARK.json's bounds are judged against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"run_seconds": spec["run_seconds"], "seeds": list(range(1, args.runs + 1)), "workloads": {}}
    for name in names:
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in out["seeds"]:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(name, seed, {k: round(v[-1], 6) for k, v in values.items()}, flush=True)
        summary = {}
        for metric, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            summary[metric] = {
                "median": statistics.median(vs), "q1": q1, "q3": q3,
                "spread": (q3 - q1) / statistics.median(vs), "bound": bounds[metric], "values": vs,
            }
            print(f"  {metric:18s} median {statistics.median(vs):.6g} spread {summary[metric]['spread']:.4f}"
                  f" (bound {bounds[metric]})", flush=True)
        out["workloads"][name] = {"failed": failed, "metrics": summary}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
