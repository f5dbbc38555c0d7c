"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Each criterion runs at its stated tolerance and asserts its stated runtime
budget.  The status lines are printed with capture suspended so they stay
visible in the pytest output even when the criterion passes.
"""

import time

from conftest import (
    mst_example_graph,
    pst_case_i_graph,
    pst_case_ii_graph,
    pst_case_iii_graph,
    two_arc_layer_graph,
)
from mixedcirc import (
    antipodal_verdict,
    classify_pst,
    crosscheck,
    eigenvalues_by_class,
    eigenvalues_closed_form,
    eigenvalues_oracle,
    enumerate_specs,
    hermitian_adjacency,
    oriented_pst_criterion,
    pst_feasible_pair,
    ramanujan_sine_sum,
    ramanujan_sine_sum_oracle,
    ramanujan_sum,
    ramanujan_sum_oracle,
    ramanujan_sum_two_adic,
    transition_amplitude,
    undirected_pst_criterion,
    classify_mst,
)
from mixedcirc.transfer import NUMERIC_TOL


def report(capsys, number: int, label: str, ok: bool, elapsed: float, detail: str = "") -> str:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number} {label}: {status} ({elapsed:.2f}s)"
    if detail and not ok:
        line += f" -- {detail}"
    with capsys.disabled():
        print(line, flush=True)
    return line


def test_acceptance_1_arithmetic_kernel(capsys):
    start = time.perf_counter()
    ok = True
    for n in range(1, 201):
        for q in range(1, 201):
            if ramanujan_sum(n, q) != ramanujan_sum_oracle(n, q):
                ok = False
    for n in range(4, 129, 4):
        for q in range(1, 129):
            if ramanujan_sum_two_adic(n, q) != ramanujan_sum_oracle(n, q):
                ok = False
            if ramanujan_sine_sum(n, q) != ramanujan_sine_sum_oracle(n, q):
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    line = report(capsys, 1, "arithmetic kernel vs oracles", ok, elapsed)
    assert ok, line


def test_acceptance_2_spectrum_equivalence(capsys):
    start = time.perf_counter()
    bad = 0
    checked = 0
    for n in (4, 8, 12, 16, 20, 24):
        for spec in enumerate_specs(n):
            checked += 1
            closed = eigenvalues_closed_form(spec).gamma
            by_class = eigenvalues_by_class(spec).gamma
            oracle = eigenvalues_oracle(spec).gamma
            if not (closed == by_class == oracle):
                bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and checked == 2472 and elapsed < 60.0
    line = report(capsys, 2, "three spectrum routes agree", ok, elapsed, f"{bad} of {checked}")
    assert ok, line


def test_acceptance_3_antipodal_transfer_reproduction(capsys):
    start = time.perf_counter()
    assert NUMERIC_TOL == 1e-9  # the sweep's fixed amplitude tolerance
    sweep = crosscheck(16, "pst")
    tags = (
        classify_pst(pst_case_i_graph()),
        classify_pst(pst_case_ii_graph()),
        classify_pst(pst_case_iii_graph()),
    )
    verdicts = all(
        antipodal_verdict(g).kind == "antipodal_pst"
        for g in (pst_case_i_graph(), pst_case_ii_graph(), pst_case_iii_graph())
    )
    elapsed = time.perf_counter() - start
    ok = (
        sweep.mismatches == []
        and tags == ("i", "ii", "iii")
        and verdicts
        and elapsed < 120.0
    )
    line = report(capsys, 
        3,
        "antipodal classifier/valuation/numeric sweep",
        ok,
        elapsed,
        f"{len(sweep.mismatches)} mismatches, tags {tags}",
    )
    assert ok, line


def test_acceptance_4_quarter_orbit_reproduction(capsys):
    start = time.perf_counter()
    assert NUMERIC_TOL == 1e-9
    sweep = crosscheck(32, "mst")

    spec = mst_example_graph()
    sp = eigenvalues_closed_form(spec)
    example_ok = classify_mst(spec)
    for b in (4, 8, 12):
        t = pst_feasible_pair(sp, 0, b)
        if t is None or abs(abs(transition_amplitude(sp, 0, b, t)) - 1) >= 1e-9:
            example_ok = False
    elapsed = time.perf_counter() - start

    ok = sweep.mismatches == [] and example_ok and elapsed < 300.0
    detail = (
        f"{len(sweep.mismatches)} of {sweep.specs_checked} specs disagree: the "
        "divisor classifier says no while the valuation and numeric routes "
        "both confirm quarter-orbit transfer (its conditions are sufficient "
        "but not necessary); first case "
        f"{sweep.mismatches[0]['spec'] if sweep.mismatches else ''}"
    )
    line = report(capsys, 4, "quarter-orbit classifier/valuation/numeric sweep", ok, elapsed, detail)
    assert ok, line


def test_acceptance_5_connection_set_fixtures(capsys):
    start = time.perf_counter()
    cases = [
        (two_arc_layer_graph(), {1, 4, 5, 6}, {1, 5, 6}),
        (pst_case_i_graph(), {1, 3, 5, 6, 7}, {6}),
        (pst_case_ii_graph(), {1, 2, 5, 6}, {1, 5}),
        (pst_case_iii_graph(), {2, 3, 4, 6, 7}, {3, 7}),
        (
            mst_example_graph(),
            {1, 2, 3, 5, 7, 9, 10, 11, 12, 13, 15},
            {2, 10, 12},
        ),
    ]
    ok = True
    for spec, full, directed in cases:
        row = hermitian_adjacency(spec)
        arcs = {c for c in range(spec.n) if row[c] == 1j}
        if {c for c in range(spec.n) if row[c] == 1} | arcs != full or arcs != directed:
            ok = False
    elapsed = time.perf_counter() - start
    line = report(capsys, 5, "printed connection sets reproduced", ok, elapsed)
    assert ok, line


def test_acceptance_6_pair_restriction(capsys):
    start = time.perf_counter()
    outside = 0
    universal = 0
    for n in (8, 12, 16):
        quarter_points = {n // 4, n // 2, 3 * n // 4}
        for spec in enumerate_specs(n):
            sp = eigenvalues_closed_form(spec)
            feasible = {
                w for w in range(1, n) if pst_feasible_pair(sp, 0, w) is not None
            }
            if feasible - quarter_points:
                outside += 1
            if len(feasible) == n - 1:
                universal += 1
    elapsed = time.perf_counter() - start
    ok = outside == 0 and universal == 0 and elapsed < 120.0
    line = report(capsys, 
        6,
        "feasible differences confined to quarter points",
        ok,
        elapsed,
        f"{outside} escapes, {universal} universal",
    )
    assert ok, line


def test_acceptance_7_special_case_equivalence(capsys):
    start = time.perf_counter()
    bad = 0
    for n in range(2, 25):
        for spec in enumerate_specs(n):
            positive = classify_pst(spec) is not None
            if not spec.D:
                if undirected_pst_criterion(spec) != positive:
                    bad += 1
            if not spec.B:
                if oriented_pst_criterion(spec) != positive:
                    bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0
    line = report(capsys, 7, "restricted criteria match the classifier", ok, elapsed, f"{bad} bad")
    assert ok, line


def test_acceptance_8_sign_invariance(capsys):
    start = time.perf_counter()
    groups = {}
    for n in range(2, 17):
        for spec in enumerate_specs(n):
            key = (n, tuple(sorted(spec.B)), tuple(sorted(spec.D)))
            verdict = (classify_pst(spec), classify_mst(spec))
            groups.setdefault(key, set()).add(verdict)
    bad = sum(1 for v in groups.values() if len(v) != 1)
    elapsed = time.perf_counter() - start
    ok = bad == 0
    line = report(capsys, 8, "verdicts invariant under arc orientation", ok, elapsed, f"{bad} groups")
    assert ok, line
