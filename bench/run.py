"""mixedcirc benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload spectrum_large --seed 1 --seconds 35 --trace 0

Workloads: spectrum_large, transfer_scan, sweep (see workloads.py).  Run from
the root of a source checkout; the package is imported from its `src/`.

Every process is fresh: the workload runs in a child (worker.py) with the
BLAS and OpenMP thread counts pinned to 1, so its set-up time and peak RSS
belong to it alone.  With --trace 0 the child measures whole rounds of
queries for about --seconds, then 15 more children each measure set-up only;
set-up time is the median of the 15.  End-to-end times are scaled to a
reference machine speed measured alongside (speed.py): by the child for its
queries, by this process across each set-up child.  Wall-clock figures are
printed beside them.  With --trace 1 the child runs one round untraced
and the same round traced, in wall time, and reports per-layer numbers.

Human-readable lines come first; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  Exit code 2 and no result
when the checkout holds no package to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 15
TAIL_PERCENTILE = 90
DEADLINE_S = 170

sys.path.insert(0, HERE)

from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS, percentile  # noqa: E402


def child(args, extra: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
        *extra,
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1),
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_times(args, deadline: float) -> tuple[list[float], list[float]]:
    """Set-up times of SETUP_REPEATS fresh children: as measured, and each
    scaled by the speed probe's reading across that child."""
    wall, scaled = [], []
    with SpeedProbe() as probe:
        for _ in range(SETUP_REPEATS):
            a = time.perf_counter()
            s = child(args, ["--setup-only"], deadline)["setup_s"]
            wall.append(s)
            scaled.append(s / probe.scale(a, time.perf_counter()))
    return wall, scaled


def end_to_end(res: dict, setup_wall: list[float], setup_scaled: list[float]) -> dict:
    """Latency percentiles are taken over the queries of a round, each at its
    typical (median across rounds) time: a raw-sample order statistic moves
    with every burst of load on a shared host, a median of rounds does not."""
    round_s = res["round_s"]
    typical = res["typical"]
    rounds = res["rounds"]
    tail_s = percentile(typical, TAIL_PERCENTILE)
    beyond = sum(x > tail_s for x in typical)
    wall = res["wall_latencies"]
    print(f"queries: {res['attempted']} in {rounds} rounds, {res['busy_s']:.3f} s busy, "
          f"{res['failed']} failed (error_rate {res['failed'] / res['attempted']:.6g})")
    print(f"round: {len(typical)} queries, {round_s:.4f} s at reference speed")
    print(f"query_tail_s is p{TAIL_PERCENTILE} over {len(typical)} queries x {rounds} rounds; "
          f"{beyond} queries ({beyond * rounds} samples) beyond it")
    print(f"pairs_per_s: {res['pairs'] / round_s:.6g} 1/s ({res['pairs']} ordered pairs per round)")
    print(f"wall clock: query p50 {statistics.median(wall):.4f} s, p{TAIL_PERCENTILE} "
          f"{percentile(wall, TAIL_PERCENTILE):.4f} s, set-up "
          f"{statistics.median(setup_wall):.4f} s")
    for note in res["notes"]:
        print(f"check failed: {note}")
    return {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "eigenvalues_per_s": (res["eigenvalues"] / round_s, "eigenvalues/s"),
        "specs_per_s": (res["specs"] / round_s, "specs/s"),
        "query_p50_s": (statistics.median(typical), "s"),
        "query_tail_s": (tail_s, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def per_layer(res: dict) -> dict:
    metrics = {k: tuple(v) for k, v in res["layers"].items()}
    metrics["trace.overhead_s"] = (res["overhead_s"], "s")
    print(f"traced round: {res['plain']['round_s']:.3f} s untraced, "
          f"{res['traced']['round_s']:.3f} s traced; wrapper cost per call {res['wrapper_ns'][0]:.0f} ns "
          f"inside and {res['wrapper_ns'][1]:.0f} ns outside its interval")
    for group, layers in sorted(res["group_self_s"].items()):
        ranked = sorted(layers.items(), key=lambda kv: -kv[1])
        print(f"self time on {group} queries: "
              + ", ".join(f"{layer} {s:.3f} s" for layer, s in ranked if s > 0))
    for note in res["plain"]["notes"] + res["traced"]["notes"]:
        print(f"check failed: {note}")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the benchmark's own tests")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "mixedcirc", "__init__.py")):
        print(f"no mixedcirc package under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    res = child(args, [], deadline)
    if args.trace:
        metrics = per_layer(res)
        attempted = res["plain"]["attempted"] + res["traced"]["attempted"]
        failed = res["plain"]["failed"] + res["traced"]["failed"]
    else:
        metrics = end_to_end(res, *setup_times(args, deadline))
        attempted, failed = res["attempted"], res["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
