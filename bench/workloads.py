"""The three benchmark workloads: inputs from a seed, the timed call, the check.

Each workload is a closed loop with one client: the next query is sent when
the previous one has returned.  A round is the seeded list of queries; every
round of a run repeats the same list, so the mix of sizes is the same in every
run and the metrics compare across seeds and commits.

- spectrum_large: `mixedcirc spectrum` through `cli.main`, on n = 2**k (few
  divisors: the per-index loop and the JSON emission work) and on the
  multiples of 840 up to 7560 with half their divisors in B (numthy's
  Ramanujan sums and factorizations work).  transfer and harness stay idle.
- transfer_scan: one "who transfers to whom, and when" query per spec, for
  8 | n in 256..768, half of them classifier-positive.  The spectrum is
  computed once and the O(n) feasibility test runs for every target, so
  transfer does the work and reuses one spectrum many times.
- sweep: `mixedcirc crosscheck --n-max 48` through `cli.main`, in pst and
  mst mode: ~78k tiny specs, one feasibility solve each, no reuse.  The
  enumeration is exhaustive, so the seed has no effect.

A round's query count is odd, so that its median is one query's time.

The package is always reached through module attributes at call time
(`cli.main`, `mc.spectrum_of`, ...), so a `tracing.Tracer` sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import reference as ref

@dataclass
class Query:
    group: str
    n: int
    B: tuple = ()
    D: tuple = ()
    sigma: dict = field(default_factory=dict)
    argv: list = field(default_factory=list)
    spec: object = None  # a validated GraphSpec, for in-process queries


@dataclass
class Outcome:
    group: str
    seconds: float
    ok: bool
    start: float = 0.0
    eigenvalues: int = 0
    specs: int = 0
    pairs: int = 0
    stdout_bytes: int = 0
    mismatches: int = 0
    note: str = ""


def _spec_json(q: Query) -> str:
    return json.dumps(
        {"n": q.n, "B": sorted(q.B), "D": sorted(q.D), "sigma": {str(d): s for d, s in q.sigma.items()}}
    )


def _options(n: int, d: int, directed: bool) -> list[str]:
    return ["out", "B"] + (["D+", "D-"] if directed and n % 4 == 0 and (n // 4) % d == 0 else [])


def _spec_from_choices(choices: dict[int, str]):
    B = [d for d, c in choices.items() if c == "B"]
    D = [d for d, c in choices.items() if c.startswith("D")]
    return B, D, {d: 1 if choices[d] == "D+" else -1 for d in D}


def _random_valid_spec(rng: random.Random, n: int, allowed=None):
    """Each proper divisor is left out, put in B, or (when it divides n/4)
    put in D with a random sign, uniformly among the choices it has."""
    divs = [d for d in ref.divisors(n)[:-1] if allowed is None or d in allowed]
    return _spec_from_choices({d: rng.choice(_options(n, d, True)) for d in divs})


def _balanced_specs(rng: random.Random, n: int, count: int, directed: bool, cost):
    """`count` valid specs of order n that share the divisors out evenly.

    Across the group every proper divisor takes each of its choices equally
    often (count is a multiple of 4).  Divisors go out costliest first, in a
    seeded jittered order, and each one's in-choices (B, or D with a sign) go
    to the queries with the least cost so far.  The closed form's cost is a
    sum over the divisors in B and D, so the group's total cost and each
    query's share of it hardly depend on the seed.
    """
    divs = sorted(ref.divisors(n)[:-1], key=lambda d: -cost(d) * rng.uniform(0.7, 1.3))
    load = [0.0] * count
    chosen: list[dict[int, str]] = [{} for _ in range(count)]
    for d in divs:
        opts = _options(n, d, directed)
        per = count // len(opts)
        ins = [o for o in opts if o != "out"]
        picks = [o for o in rng.sample(ins, len(ins)) for _ in range(per)] + ["out"] * per
        for r, o in zip(sorted(range(count), key=lambda r: (load[r], rng.random())), picks):
            chosen[r][d] = o
            load[r] += cost(d) if o != "out" else 0
    return [_spec_from_choices(c) for c in chosen]


def _v2(x: int) -> int:
    return (x & -x).bit_length() - 1


def _positive_spec(rng: random.Random, n: int):
    """A spec the paper's antipodal classifier accepts (case i or ii).

    Divisor layers 0..2 (by the 2-adic valuation of n/d) hold only what the
    case needs; the higher layers are filled at random.
    """
    high = {d for d in ref.divisors(n)[:-1] if _v2(n // d) >= 3}
    B, D, sigma = _random_valid_spec(rng, n, allowed=high)
    if rng.random() < 0.5:  # case i: the quarter divisor directed
        D.append(n // 4)
        sigma[n // 4] = rng.choice((1, -1))
    else:  # case ii: exactly one of n/4, n/2 undirected
        B.append(rng.choice((n // 4, n // 2)))
    return B, D, sigma


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, tmpdir: str):
        self.rng = random.Random(seed)
        self.size = size
        self.tmpdir = tmpdir
        self.queries = self.make_queries()

    def make_queries(self) -> list[Query]:
        raise NotImplementedError

    def call(self, q: Query):
        """The timed operation; returns what check() inspects."""
        raise NotImplementedError

    def check(self, q: Query, raw, seconds: float) -> Outcome:
        raise NotImplementedError

    def execute(self, q: Query) -> Outcome:
        t0 = time.perf_counter()
        try:
            raw = self.call(q)
        except Exception:  # a raising query is a failed operation, not a crash
            seconds = time.perf_counter() - t0
            out = Outcome(q.group, seconds, False, note=traceback.format_exc(limit=3))
        else:
            seconds = time.perf_counter() - t0
            try:
                out = self.check(q, raw, seconds)
            except Exception:
                out = Outcome(q.group, seconds, False, note=traceback.format_exc(limit=3))
        out.start = t0
        return out


def _run_cli(argv: list[str]):
    from mixedcirc import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class SpectrumLarge(Workload):
    name = "spectrum_large"

    def make_queries(self):
        # Sizes are chosen so that the median falls inside the eight 2**13
        # queries and the 90th percentile inside the eight top composites,
        # each a group of near-equal cost, rather than between two sizes.
        if self.size == "tiny":
            pow2, composite, top = (6, 7, 8), (60, 120), 240
        else:
            pow2, composite, top = (11, 12, 13, 14), (840, 1680, 2520, 3360, 4200), 7560
        queries = []
        for k in pow2:
            n = 1 << k
            count = 8 if k == pow2[2] else 4
            for B, D, sigma in _balanced_specs(self.rng, n, count, True, lambda d: 1.0):
                queries.append(Query("pow2", n, tuple(B), tuple(D), sigma))
        # A divisor's cost on a composite follows the trial division of n/d,
        # about sqrt(n/d).  Below the top, one member of a balanced group per
        # order: its cost is about half that of all the divisors.
        for n, count in [(n, 1) for n in composite] + [(top, 8)]:
            specs = _balanced_specs(self.rng, n, max(count, 4), False, lambda d: math.sqrt(n // d))
            for B, D, sigma in self.rng.sample(specs, count):
                queries.append(Query("composite", n, tuple(B), tuple(D), sigma))
        for i, q in enumerate(queries):
            path = os.path.join(self.tmpdir, f"spec{i:03d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_spec_json(q))
            q.argv = ["spectrum", "--spec", path]
        return queries

    def call(self, q):
        return _run_cli(q.argv)

    def check(self, q, raw, seconds):
        code, stdout = raw
        out = Outcome(q.group, seconds, False, eigenvalues=q.n, specs=1,
                      stdout_bytes=len(stdout.encode()))
        if code != 0:
            out.note = f"exit {code}"
            return out
        doc = json.loads(stdout)
        gamma = doc["gamma"]
        expect = ref.spectrum(q.n, q.B, q.D, q.sigma)
        out.ok = (
            doc["n"] == q.n
            and len(gamma) == q.n
            and all(isinstance(x, int) for x in gamma)
            and np.array_equal(np.asarray(gamma, dtype=np.int64), expect)
            and gamma[0] == ref.degree(q.n, q.B)
        )
        if not out.ok:
            out.note = f"spectrum of n={q.n} differs from n*ifft(row)"
        return out


class TransferScan(Workload):
    name = "transfer_scan"

    def make_queries(self):
        import mixedcirc as mc

        if self.size == "tiny":
            sizes = [32, 48, 64, 96, 128]
        else:  # 47 distinct orders, log-spaced from 256 to 768, multiples of 8
            sizes = sorted({8 * round(32 * 3 ** (i / 48)) for i in range(49)})
        queries = []
        for i, n in enumerate(sizes):
            if i % 2 == 0:
                group, (B, D, sigma) = "positive", _positive_spec(self.rng, n)
            else:
                group, (B, D, sigma) = "random", _random_valid_spec(self.rng, n)
            spec = mc.validate_spec(n, B, D, sigma)
            queries.append(Query(group, n, tuple(B), tuple(D), sigma, spec=spec))
        return queries

    def call(self, q):
        import mixedcirc as mc

        spectrum = mc.spectrum_of(q.spec)
        targets = mc.pair_restriction_check(spectrum)
        witnesses = []
        for w in sorted(targets):
            t = mc.minimal_pst_time(spectrum, 0, w)
            ok, _, residual = mc.verify_numeric(spectrum, 0, w, t)
            witnesses.append((w, t, ok, residual))
        return targets, witnesses, mc.antipodal_verdict(q.spec), mc.mst_verdict(q.spec)

    def check(self, q, raw, seconds):
        targets, witnesses, antipodal, mst = raw
        n = q.n
        out = Outcome(q.group, seconds, False, eigenvalues=n, specs=1, pairs=n - 1)
        gamma = ref.spectrum(n, q.B, q.D, q.sigma)
        problems = []
        if not set(targets) <= {n // 4, n // 2, 3 * n // 4}:
            problems.append(f"targets {sorted(targets)} outside the quarter points")
        for w, t, ok, _ in witnesses:
            if not (0 < t <= 1 and ok and ref.transfer_residual(gamma, w, float(t)) < ref.RESIDUAL_TOL):
                problems.append(f"witness t'={t} for 0->{w} does not verify")
        if (mst.kind == "mst") != ref.mst_by_valuation(gamma):
            problems.append(f"mst verdict {mst.kind} disagrees with the gap valuations")
        if mst.kind == "mst" and not {n // 4, n // 2, 3 * n // 4} <= set(targets):
            problems.append(f"mst reported but targets {sorted(targets)} miss a quarter point")
        if antipodal.kind != "none" and n // 2 not in targets:
            problems.append("antipodal transfer reported but n/2 not a feasible target")
        out.ok = not problems
        out.note = "; ".join(problems)
        return out


class Sweep(Workload):
    name = "sweep"

    def make_queries(self):
        n_max = 16 if self.size == "tiny" else 48
        return [
            Query(mode, n_max, argv=["crosscheck", "--n-max", str(n_max), "--mode", mode])
            for mode in ("pst", "mst")
        ]

    def call(self, q):
        return _run_cli(q.argv)

    def check(self, q, raw, seconds):
        code, stdout = raw
        moduli = ref.sweep_moduli(q.n, q.group)
        specs = sum(ref.count_specs(n) for n in moduli)
        out = Outcome(q.group, seconds, False, specs=specs,
                      eigenvalues=sum(n * ref.count_specs(n) for n in moduli),
                      pairs=specs * (1 if q.group == "pst" else 3),
                      stdout_bytes=len(stdout.encode()))
        doc = json.loads(stdout)
        mism = doc["mismatches"]
        out.mismatches = len(mism)
        problems = []
        if code != (1 if mism else 0):
            problems.append(f"exit {code} with {len(mism)} mismatches")
        if doc["specs_checked"] != specs or doc["n_range"] != moduli:
            problems.append(f"checked {doc['specs_checked']} specs, expected {specs}")
        if q.group == "pst" and mism:
            problems.append(f"{len(mism)} pst mismatches")
        for m in mism if q.group == "mst" else ():
            # the known quarter-orbit gap: only the paper's classifier says no
            if (m["classifier"], m["valuation"], m["numeric"]) != (False, True, True):
                problems.append(f"unexpected mismatch shape {m}")
                continue
            s = json.loads(m["spec"])
            sigma = {int(d): v for d, v in s["sigma"].items()}
            if not ref.mst_by_valuation(ref.spectrum(s["n"], s["B"], s["D"], sigma)):
                problems.append(f"mismatch {m['spec']} fails the reference valuation test")
        out.ok = not problems
        out.note = "; ".join(problems[:3])
        return out


WORKLOADS = {w.name: w for w in (SpectrumLarge, TransferScan, Sweep)}


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
