"""Enumeration, counting, crosscheck sweeps, and search."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import mixedcirc.harness
from conftest import mst_example_graph, pst_case_i_graph
from mixedcirc import (
    BudgetExceeded,
    build_connection_set,
    classify_pst,
    count_specs,
    crosscheck,
    eigenvalues_oracle,
    enumerate_specs,
    mst_sufficient_condition,
    search_specs,
    spec_to_json,
    validate_spec,
)
from mixedcirc.harness import CHUNK_SPECS, _spectrum_chunks
from mixedcirc.numthy import divisors


def naive_count(n: int) -> int:
    """Double loop over every subset pair, counting sign assignments."""
    proper = [d for d in divisors(n) if d < n]
    d_pool = divisors(n // 4) if n % 4 == 0 else []
    total = 0
    for r in range(len(proper) + 1):
        for b in combinations(proper, r):
            avail = [d for d in d_pool if d not in b]
            for s in range(len(avail) + 1):
                for d in combinations(avail, s):
                    total += 2 ** len(d)
    return total


ORDER_4_GOLDEN = [
    '{"B":[],"D":[],"n":4,"sigma":{}}',
    '{"B":[],"D":[1],"n":4,"sigma":{"1":1}}',
    '{"B":[],"D":[1],"n":4,"sigma":{"1":-1}}',
    '{"B":[1],"D":[],"n":4,"sigma":{}}',
    '{"B":[1,2],"D":[],"n":4,"sigma":{}}',
    '{"B":[2],"D":[],"n":4,"sigma":{}}',
    '{"B":[2],"D":[1],"n":4,"sigma":{"1":1}}',
    '{"B":[2],"D":[1],"n":4,"sigma":{"1":-1}}',
]


# --------------------------------------------------------------- enumeration

def test_enumeration_golden_order():
    assert [spec_to_json(s) for s in enumerate_specs(4)] == ORDER_4_GOLDEN


def test_enumeration_counts():
    assert count_specs(4) == 8
    assert len(list(enumerate_specs(5))) == 2
    for n in range(2, 17):
        specs = list(enumerate_specs(n))
        assert len(specs) == count_specs(n) == naive_count(n)
        assert len({spec_to_json(s) for s in specs}) == len(specs)


def test_enumeration_is_deterministic():
    first = [spec_to_json(s) for s in enumerate_specs(12)]
    second = [spec_to_json(s) for s in enumerate_specs(12)]
    assert first == second


def test_enumeration_yields_valid_specs():
    for spec in enumerate_specs(16):
        # re-validation must accept its own output unchanged
        again = validate_spec(spec.n, spec.B, spec.D, spec.sigma)
        assert again == spec


def test_enumeration_rejects_tiny_orders():
    with pytest.raises(ValueError):
        list(enumerate_specs(1))


# ---------------------------------------------------------------- crosscheck

def test_crosscheck_small_antipodal_sweep():
    report = crosscheck(8, "pst")
    assert report.mode == "pst"
    assert report.n_range == [4, 8]
    assert report.specs_checked == 8 + 32
    assert report.mismatches == []
    assert report.pst_positive >= 3
    assert report.wall_time >= 0


def test_crosscheck_surfaces_quarter_orbit_disagreements(monkeypatch):
    # a classifier strictly narrower than the valuation and numeric routes
    # must show up as mismatches: with the sufficient-only condition in
    # place of classify_mst, both orientations of one order-8 graph family
    # have genuine quarter-orbit transfer the classifier rejects
    monkeypatch.setattr(mixedcirc.harness, "classify_mst", mst_sufficient_condition)
    report = crosscheck(8, "mst")
    assert report.specs_checked == 32
    assert report.mst_positive == 4
    assert len(report.mismatches) == 2
    for row in report.mismatches:
        assert row["classifier"] is False
        assert row["valuation"] is True
        assert row["numeric"] is True
    assert {row["spec"] for row in report.mismatches} == {
        '{"B":[1],"D":[2],"n":8,"sigma":{"2":1}}',
        '{"B":[1],"D":[2],"n":8,"sigma":{"2":-1}}',
    }


def test_crosscheck_reports_failed_numeric_check_as_mismatch(monkeypatch):
    # in a sweep a witness that fails the numeric check is a disagreement to
    # report, not a fault: every transfer-positive spec becomes a mismatch
    monkeypatch.setattr(
        mixedcirc.harness, "verify_numeric", lambda *args: (False, 1 + 0j, 0.5)
    )
    report = crosscheck(8, "pst")
    assert report.specs_checked == 40
    assert report.pst_positive > 0
    assert len(report.mismatches) == report.pst_positive
    for row in report.mismatches:
        assert (row["classifier"], row["valuation"], row["numeric"]) == (True, True, False)


def test_crosscheck_budget_guard():
    with pytest.raises(BudgetExceeded):
        crosscheck(16, "pst", budget=10)


def test_crosscheck_rejects_unknown_mode():
    with pytest.raises(ValueError):
        crosscheck(8, "ust")


@pytest.mark.parametrize(
    "mode, specs, positive", [("pst", 40104, 2806), ("mst", 37536, 342)]
)
def test_bench_size_sweep_frozen(mode, specs, positive):
    # the sweep the benchmark runs: counts recorded before the oracle was
    # taken by divisor class, and every leg agrees on every spec
    report = crosscheck(48, mode)
    assert report.specs_checked == specs
    assert report.mismatches == []
    if mode == "pst":
        assert (report.pst_positive, report.mst_positive) == (positive, 0)
    else:
        assert (report.pst_positive, report.mst_positive) == (0, positive)


def test_crosscheck_memory_stays_flat():
    # spectra are held one chunk at a time, never a whole order at once
    tracemalloc.start()
    try:
        report = crosscheck(40, "pst")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.mismatches == []
    assert peak < 1_000_000, peak


# ------------------------------------------------- oracle by divisor class

def test_summed_class_rows_equal_per_spec_oracle():
    # each chunk matrix row is the spec's whole oracle spectrum, and the
    # chunks cover the enumeration in order, CHUNK_SPECS at a time
    reversed_arcs = 0
    for n in range(4, 33, 4):
        seen = []
        for chunk, gammas in _spectrum_chunks(n):
            assert gammas.dtype == np.int64
            assert gammas.shape == (len(chunk), n)
            for spec, row in zip(chunk, gammas):
                whole = eigenvalues_oracle(build_connection_set(spec), n)
                assert tuple(row.tolist()) == whole.gamma, spec_to_json(spec)
                reversed_arcs += -1 in spec.sigma.values()
            seen.append(chunk)
        assert all(len(c) == CHUNK_SPECS for c in seen[:-1])
        assert 0 < len(seen[-1]) <= CHUNK_SPECS
        flat = [spec_to_json(s) for c in seen for s in c]
        assert flat == [spec_to_json(s) for s in enumerate_specs(n)]
    assert reversed_arcs > 0


@pytest.fixture
def oracle_calls(monkeypatch):
    """Count eigenvalues_oracle calls made through harness."""
    real = mixedcirc.harness.eigenvalues_oracle
    calls = []

    def counting(cs, n, *args, **kwargs):
        calls.append(n)
        return real(cs, n, *args, **kwargs)

    monkeypatch.setattr(mixedcirc.harness, "eigenvalues_oracle", counting)
    return calls


@pytest.mark.parametrize("mode, expected", [("pst", 30), ("mst", 17)])
def test_crosscheck_takes_oracle_once_per_class(oracle_calls, mode, expected):
    # tau(n) - 1 undirected classes plus two half classes per d | n/4
    report = crosscheck(16, mode)
    per_order = {n: len(divisors(n)) - 1 + 2 * len(divisors(n // 4)) for n in report.n_range}
    assert len(oracle_calls) == sum(per_order.values()) == expected
    assert oracle_calls == [n for n, k in per_order.items() for _ in range(k)]
    assert report.specs_checked > expected


# -------------------------------------------------------------------- search

def test_search_frozen_results():
    # B = [1], D = [2] transfers around the quarter orbit through its
    # undirected n/8 class; the valuation and numeric routes confirm it
    mst8 = [spec_to_json(s) for s in search_specs(8, "mst")]
    assert mst8 == [
        '{"B":[],"D":[1,2],"n":8,"sigma":{"1":1,"2":1}}',
        '{"B":[],"D":[1,2],"n":8,"sigma":{"1":1,"2":-1}}',
        '{"B":[],"D":[1,2],"n":8,"sigma":{"1":-1,"2":1}}',
        '{"B":[],"D":[1,2],"n":8,"sigma":{"1":-1,"2":-1}}',
        '{"B":[1],"D":[2],"n":8,"sigma":{"2":1}}',
        '{"B":[1],"D":[2],"n":8,"sigma":{"2":-1}}',
    ]

    mst16 = [spec_to_json(s) for s in search_specs(16, "mst")]
    assert len(mst16) == 24
    assert spec_to_json(mst_example_graph()) in mst16

    pst8 = [spec_to_json(s) for s in search_specs(8, "pst")]
    assert len(pst8) == 18
    assert spec_to_json(pst_case_i_graph()) in pst8


def test_search_agrees_with_classifier():
    hits = {spec_to_json(s) for s in search_specs(12, "pst")}
    for spec in enumerate_specs(12):
        assert (spec_to_json(spec) in hits) == (classify_pst(spec) is not None)


def test_search_rejects_unknown_mode():
    with pytest.raises(ValueError):
        search_specs(8, "all")


def test_sign_choices_multiply_search_hits():
    # classifier verdicts ignore sigma, so hits arrive in blocks of 2^|D|
    for mode in ("pst", "mst"):
        groups = {}
        for s in search_specs(16, mode):
            key = (tuple(sorted(s.B)), tuple(sorted(s.D)))
            groups[key] = groups.get(key, 0) + 1
        for (_, d_set), hits in groups.items():
            assert hits == 2 ** len(d_set)
