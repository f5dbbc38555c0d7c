"""One workload in one fresh process; started by run.py, not by hand.

Prints one JSON object on its last stdout line.  With --setup-only the
process stops once the workload's inputs exist and reports its set-up time,
in wall seconds from the top of this file (before `mixedcirc` and NumPy are
imported) to that moment.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

from speed import SpeedProbe  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Spans are kept for the coarse entry points; everything else is counted.
SPAN_NAMES = frozenset(
    {
        "main",
        "crosscheck",
        "eigenvalues_closed_form",
        "spectrum_of",
        "pair_restriction_check",
        "minimal_pst_time",
        "antipodal_verdict",
        "mst_verdict",
    }
)


def measure(workload, seconds: float):
    """Whole rounds, while another round still fits in `seconds` (at least one).

    Returns the outcomes and, for each, its time scaled to the probe's
    reference speed."""
    outcomes = []
    with SpeedProbe() as probe:
        start = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            outcomes += [workload.execute(q) for q in workload.queries]
            now = time.perf_counter()
            if now - start + (now - r0) > seconds:
                break
    return outcomes, [o.seconds / probe.scale(o.start, o.start + o.seconds) for o in outcomes]


def summarize(outcomes, round_len: int, scaled=None) -> dict:
    """Counts per round; each query's typical time, the median of its times
    across rounds; and the round time, the sum of those.  Times are the
    scaled ones when given, else wall times."""
    lat = scaled if scaled is not None else [o.seconds for o in outcomes]
    first = outcomes[:round_len]
    typical = [statistics.median(lat[i::round_len]) for i in range(round_len)]
    return {
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "rounds": len(outcomes) // round_len,
        "round_s": sum(typical),
        "typical": typical,
        "busy_s": sum(o.seconds for o in outcomes),
        "eigenvalues": sum(o.eigenvalues for o in first),
        "specs": sum(o.specs for o in first),
        "pairs": sum(o.pairs for o in first),
        "wall_latencies": [o.seconds for o in outcomes],
        "stdout_bytes": sum(o.stdout_bytes for o in first),
        "mismatches": sum(o.mismatches for o in first),
        "notes": [f"{o.group}: {o.note}" for o in outcomes if not o.ok][:5],
    }


def traced(workload, seed: int) -> dict:
    """One untraced round, then the same round traced; per-layer numbers."""
    from tracing import Tracer

    plain = summarize([workload.execute(q) for q in workload.queries], len(workload.queries))
    tracer = Tracer("mixedcirc", SPAN_NAMES)
    tracer.calibrate()
    groups: dict[str, dict[str, float]] = {}
    outcomes = []
    with tracer:
        for q in workload.queries:
            before = tracer.layer_self_s()
            outcomes.append(workload.execute(q))
            after = tracer.layer_self_s()
            acc = groups.setdefault(q.group, {})
            for layer, s in after.items():
                acc[layer] = acc.get(layer, 0.0) + s - before.get(layer, 0.0)
    traced_summary = summarize(outcomes, len(outcomes))
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"trace-{workload.name}-seed{seed}.json"))
    return {
        "plain": plain,
        "traced": traced_summary,
        "layers": layer_metrics(tracer, traced_summary),
        "overhead_s": traced_summary["round_s"] - plain["round_s"],
        "group_self_s": groups,
        "wrapper_ns": [tracer.inner_ns, tracer.outer_ns],
    }


def layer_metrics(tracer, summary) -> dict:
    st = tracer.stat
    m: dict[str, tuple[float, str]] = {}

    def fn(metric, module, name, calls=True):
        s = st(module, name)
        if calls:
            m[f"{metric}.calls"] = (s.calls, "count")
        m[f"{metric}.self_s"] = (tracer.self_s(s), "s")

    layers = tracer.layer_self_s()
    fn("numthy.ramanujan_sum", "numthy", "ramanujan_sum")
    fn("numthy.factorize", "numthy", "factorize")
    fn("numthy.two_adic_valuation", "numthy", "two_adic_valuation")
    fn("circulant.build_connection_set", "circulant", "build_connection_set")
    fn("circulant.partition_divisors", "circulant", "partition_divisors")
    fn("circulant.parse_spec", "circulant", "parse_spec", calls=False)
    fn("spectrum.closed_form", "spectrum", "eigenvalues_closed_form")
    fn("spectrum.oracle", "spectrum", "eigenvalues_oracle")
    fn("transfer.difference_profile", "transfer", "difference_profile")
    fn("transfer.pst_feasible_pair", "transfer", "pst_feasible_pair")
    fn("transfer.verify_numeric", "transfer", "verify_numeric")
    classify = [st("transfer", "classify_pst"), st("transfer", "classify_mst")]
    m["transfer.classify.calls"] = (sum(s.calls for s in classify), "count")
    m["transfer.classify.self_s"] = (sum(tracer.self_s(s) for s in classify), "s")
    spectra = sum(
        st("spectrum", f).calls
        for f in ("eigenvalues_closed_form", "eigenvalues_oracle", "eigenvalues_by_class", "reduced_eigenvalues")
    )
    m["spectrum.spectra_per_spec"] = (spectra / summary["specs"], "ratio")
    profiles = st("transfer", "difference_profile").calls
    m["transfer.profiles_per_spectrum"] = (profiles / spectra if spectra else 0.0, "ratio")
    m["transfer.max_residual"] = (tracer.max_residual, "1")
    enum = st("harness", "enumerate_specs")
    m["harness.specs_enumerated"] = (enum.items, "count")
    m["harness.enumerate.self_s"] = (tracer.self_s(enum), "s")
    m["harness.crosscheck.self_s"] = (tracer.self_s(st("harness", "crosscheck")), "s")
    m["harness.mismatches"] = (summary["mismatches"], "count")
    m["cli.stdout_bytes"] = (summary["stdout_bytes"], "bytes")
    for layer in ("numthy", "circulant", "spectrum", "transfer", "harness", "cli"):
        m[f"{layer}.self_s"] = (layers.get(layer, 0.0), "s")
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--size", default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import mixedcirc

    if not os.path.abspath(mixedcirc.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"mixedcirc imported from {mixedcirc.__file__}, not this checkout")
    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as tmpdir:
        workload = WORKLOADS[args.workload](args.seed, args.size, tmpdir)
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            result = {"setup_s": setup_s}
        elif args.trace:
            result = traced(workload, args.seed)
        else:
            outcomes, scaled = measure(workload, args.seconds)
            result = summarize(outcomes, len(workload.queries), scaled)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
