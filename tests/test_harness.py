"""Enumeration, counting, crosscheck sweeps, and search."""

import hashlib
import tracemalloc
from itertools import combinations, islice

import numpy as np
import pytest

import mixedcirc.harness
import mixedcirc.transfer
from conftest import (
    failing_verify_rows,
    mst_example_graph,
    order_shapes,
    pst_case_i_graph,
    pst_case_iii_graph,
    reference_shapes,
    reference_specs,
    unit_step,
)
from mixedcirc import (
    BudgetExceeded,
    SpecError,
    antipodal_verdict,
    classify_mst,
    classify_pst,
    count_specs,
    crosscheck,
    eigenvalues_closed_form,
    eigenvalues_oracle,
    enumerate_specs,
    mst_sufficient_condition,
    mst_verdict,
    parse_spec,
    search_specs,
    spec_to_json,
    validate_spec,
)
from mixedcirc.circulant import GraphSpec
from mixedcirc.harness import CHUNK_ENTRIES, _class_table, _judged_chunks, _pools, _rows
from mixedcirc.harness import _subsets
from mixedcirc.numthy import MAX_N, divisors, two_adic_valuation
from mixedcirc.spectrum import index_classes
from mixedcirc.transfer import (
    PST_CASES,
    ConsistencyError,
    classify_mst_rows,
    classify_pst_rows,
    mst_sufficient_rows,
)


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


def decoded_shapes(n: int):
    """The shape matrices of order n as (B, D) tuples."""
    shapes = order_shapes(n)
    cols = np.array(shapes.cols)
    return [(tuple(cols[b].tolist()), tuple(cols[d].tolist())) for b, d in zip(shapes.B, shapes.D)]


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


def test_shape_matrices_follow_the_frozen_order():
    # the matrices decode to the tuple generator's shapes, in its order, and
    # their sign blocks end where the running spec count does
    for n in [*range(2, 65), 72, 96]:
        reference = list(reference_shapes(n))
        assert decoded_shapes(n) == reference, n
        ends = order_shapes(n).ends.tolist()
        assert ends == np.cumsum([2 ** len(d) for _, d in reference]).tolist()
        assert ends[-1] == count_specs(n)


def recursive_subsets(k: int) -> np.ndarray:
    """The subset table grown one item at a time, the new item first: the
    empty set, the item over every subset of the rest, then the nonempty
    subsets of the rest without it."""
    sets = np.ones((1, 0), dtype=bool)
    for width in range(1, k + 1):
        head = [np.zeros((1, width), dtype=bool), np.insert(sets, 0, True, axis=1)]
        sets = np.vstack([*head, np.insert(sets[1:], 0, False, axis=1)])
    return sets


def bool_product_shapes(n: int) -> tuple:
    """The B, D, ends, key, tails and int8 sigma table of order n's shapes as
    built with a bool product over (B set, D set) pairs, true on overlap,
    and a popcount per shape."""
    proper = divisors(n)[:-1]
    d_pool = divisors(n // 4) if n % 4 == 0 else []
    sets = recursive_subsets(len(proper))
    pool = np.array([d in d_pool for d in proper])
    d_sets = sets[~sets[:, ~pool].any(axis=1)]
    b_of, d_of = np.nonzero(~(sets @ d_sets.T))
    D = d_sets[d_of]
    key = np.where(pool, 1 << np.cumsum(pool) - 1, 0)
    tails, signed = np.ones(1, dtype=np.int64), np.zeros((1, len(proper)), dtype=np.int8)
    for c in np.flatnonzero(pool):
        grown = np.repeat(signed, 2, axis=0)
        grown[0::2, c], grown[1::2, c] = 1, -1
        tails, signed = np.concatenate([tails, tails[-1] + 2 * tails]), np.vstack([signed, grown])
    return sets[b_of], D, np.cumsum(1 << D.sum(axis=1)), key, tails, signed


def test_shapes_by_bitmask_equal_the_bool_product_build():
    # every 4 | n <= 96, whose largest D pool (8 divisors at n = 96) fills a
    # uint8 mask, and n = 144, whose 9 need uint16: same arrays, same dtypes;
    # each sigma row lies in the block tails gives its support's D-set
    for n in [*range(4, 97, 4), 144]:
        shapes = order_shapes(n)
        names = ("B", "D", "ends", "key", "tails", "signed")
        for name, want in zip(names, bool_product_shapes(n)):
            got = getattr(shapes, name)
            assert got.dtype == want.dtype and got.shape == want.shape, (n, name)
            assert (got == want).all(), (n, name)
        support = shapes.signed != 0
        block = support @ shapes.key
        rows = np.arange(len(shapes.signed))
        first = shapes.tails[block] - (1 << support.sum(axis=1))
        assert ((first <= rows) & (rows < shapes.tails[block])).all(), n


def test_subset_table_by_preorder_rank_equals_the_recursive_build():
    for k in range(15):
        table = _subsets(k)
        assert table.dtype == bool and table.shape == (2**k, k), k
        assert (table == recursive_subsets(k)).all(), k


def test_enumeration_equals_reference_order():
    for n in range(2, 33):
        assert [spec_to_json(s) for s in enumerate_specs(n)] == [
            spec_to_json(s) for s in reference_specs(n)
        ], n


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
    # place of classify_mst_rows, both orientations of one order-8 graph
    # family have genuine quarter-orbit transfer the classifier rejects
    monkeypatch.setattr(mixedcirc.harness, "classify_mst_rows", mst_sufficient_rows)
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
    monkeypatch.setattr(mixedcirc.transfer, "verify_rows", failing_verify_rows)
    report = crosscheck(8, "pst")
    assert report.specs_checked == 40
    assert report.pst_positive > 0
    assert len(report.mismatches) == report.pst_positive
    for row in report.mismatches:
        assert (row["classifier"], row["valuation"], row["numeric"]) == (True, True, False)


def test_one_failed_row_is_one_mismatch(monkeypatch):
    # the chunk's numeric answers land on their own rows: failing the check
    # for one spec's spectrum alone makes that spec a mismatch, and none of
    # the other verified rows of its chunk (case iii is row 14 of 18 there),
    # each row reaching the check as its values at the index classes' reps
    chosen = pst_case_iii_graph()
    gamma = np.array(eigenvalues_closed_form(chosen).gamma)[index_classes(8).reps].tolist()
    real, hits = mixedcirc.transfer.verify_rows, []

    def fail_chosen(gammas, times, diffs, weights=None):
        ok, amps, residuals = real(gammas, times, diffs, weights)
        hit = [i for i, row in enumerate(np.asarray(gammas).tolist()) if row == gamma]
        hits.append((len(gammas), hit))
        ok[hit] = False
        return ok, amps, residuals

    monkeypatch.setattr(mixedcirc.transfer, "verify_rows", fail_chosen)
    report = crosscheck(8, "pst")
    assert hits == [(4, []), (18, [14])]
    assert report.mismatches == [
        {
            "spec": spec_to_json(chosen),
            "classifier": True,
            "valuation": True,
            "numeric": False,
            "restriction": True,
        }
    ]


def test_crosscheck_reports_rows_off_the_pair_restriction(monkeypatch):
    # a row whose step is not n/4, n/2 or n is a mismatch though its three
    # votes agree: with step 1 on every row that has a witness, each
    # transfer-positive spec of order 8 is reported, and none of order 4,
    # where a step of 1 is n/4
    positive = [crosscheck(n, "pst").pst_positive for n in (4, 8)]
    monkeypatch.setattr(mixedcirc.transfer, "_step", unit_step)
    report = crosscheck(8, "pst")
    assert report.pst_positive == positive[1]
    assert len(report.mismatches) == positive[1] - positive[0] > 0
    for row in report.mismatches:
        assert parse_spec(row["spec"]).n == 8
        legs = (row["classifier"], row["valuation"], row["numeric"], row["restriction"])
        assert legs == (True, True, True, False)


def test_sweep_refuses_a_class_table_not_constant_on_its_classes(monkeypatch):
    # indices 1 and 5 of order 8 share one class (gcd 1, 1 mod 4): one entry
    # changed in column 5 of the oracle class table breaks the compression,
    # and the sweep raises rather than judge rows on it
    real = mixedcirc.harness._class_table

    def patched(n, *pools):
        table = real(n, *pools)
        if n == 8:
            table[0, 5] += 1
        return table

    monkeypatch.setattr(mixedcirc.harness, "_class_table", patched)
    assert crosscheck(4, "pst").mismatches == []
    with pytest.raises(ConsistencyError, match="order 8"):
        crosscheck(8, "pst")


@pytest.mark.parametrize("n_max, mode", [(0, "pst"), (3, "pst"), (-5, "mst"), (7, "mst")])
def test_crosscheck_refuses_an_n_max_below_the_first_order(n_max, mode):
    # no order to check is an input error, not a clean sweep of 0 specs
    with pytest.raises(SpecError, match=f"{mode} crosscheck starts at order"):
        crosscheck(n_max, mode)


def test_crosscheck_budget_guard():
    with pytest.raises(BudgetExceeded):
        crosscheck(16, "pst", budget=10)


def test_crosscheck_budget_guard_stops_at_first_order_over_budget(monkeypatch):
    # orders past the one that breaks the budget are never counted (each
    # counted order's _pools are listed once), and the order range is never
    # built: n_max = 4,000,000 fails at order 120
    real = mixedcirc.harness._pools
    counted = []

    def counting(n):
        counted.append(n)
        return real(n)

    monkeypatch.setattr(mixedcirc.harness, "_pools", counting)
    with pytest.raises(BudgetExceeded, match="exceed budget 1000000"):
        crosscheck(4_000_000, "pst")
    assert counted == list(range(4, 121, 4))


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

def _check_rows_against_oracle(shapes, shape, signed, values):
    # a chunk holds each spectrum on the index classes: gamma = values[of]
    n = shapes.n
    gammas = values[:, index_classes(n).of]
    assert gammas.dtype == np.int32
    assert gammas.shape == (len(shape), n)
    for spec, row in zip(shapes.specs(shape, signed), gammas):
        whole = eigenvalues_oracle(spec)
        assert tuple(row.tolist()) == whole.gamma, spec_to_json(spec)


def test_summed_class_rows_equal_per_spec_oracle():
    # each chunk matrix row expands to its spec's whole oracle spectrum, and the rows
    # cover the reference enumeration in order, CHUNK_ENTRIES // C at a time,
    # C the order's index class count (two chunks at n = 24)
    reversed_arcs = cut = 0
    for n in range(4, 33, 4):
        shapes, seen = order_shapes(n), []
        size = max(1, CHUNK_ENTRIES // len(index_classes(n).reps))
        for shape, signed, gammas, _ in _judged_chunks(shapes, "pst"):
            _check_rows_against_oracle(shapes, shape, signed, gammas)
            reversed_arcs += int((shapes.signed[signed] < 0).any(axis=1).sum())
            seen.append([spec_to_json(spec) for spec in shapes.specs(shape, signed)])
        assert all(len(c) == size for c in seen[:-1])
        assert 0 < len(seen[-1]) <= size
        cut += len(seen) - 1
        flat = [spec for c in seen for spec in c]
        assert flat == [spec_to_json(s) for s in reference_specs(n)]
    assert reversed_arcs > 0 and cut > 0


def test_sign_block_longer_than_a_chunk_is_cut(monkeypatch):
    # at n = 96, D = {1, 2, 3, 4, 6, 8, 12, 24} has 256 sign choices, rows
    # 255..510 of the enumeration.  The spec path's chunks are
    # CHUNK_ENTRIES // 96 = 170 rows; the sweep's, CHUNK_ENTRIES // 20 at
    # the order's 20 index classes, are longer than any of its sign blocks,
    # so CHUNK_ENTRIES = 170 * 20 makes them 170 rows too.  Either way the
    # block spans three chunks and is cut at both ends, the rows follow the
    # reference enumeration, and every sweep row equals the per-spec oracle
    n, shapes, size = 96, order_shapes(96), 170
    assert CHUNK_ENTRIES // n == size and len(index_classes(n).reps) == 20
    count = 512 // size + 1
    spec_chunks = list(islice(_rows(shapes, n), count))
    monkeypatch.setattr(mixedcirc.harness, "CHUNK_ENTRIES", size * 20)
    sweep_chunks = [c[:3] for c in islice(_judged_chunks(shapes, "pst"), count)]
    for chunks in (spec_chunks, sweep_chunks):
        shape = np.concatenate([c[0] for c in chunks])
        assert [len(c[0]) for c in chunks] == [size] * count
        full = np.flatnonzero(shapes.D[shape].sum(axis=1) == 8)
        assert full.tolist() == list(range(255, 511))
        assert len(set(shape[full].tolist())) == 1  # one shape
        assert 255 % size and 511 % size  # cut inside a chunk at both ends
        assert len({r // size for r in full.tolist()}) == 3
        rows = [spec_to_json(spec) for c in chunks for spec in shapes.specs(c[0], c[1])]
        assert rows == [spec_to_json(s) for s in islice(reference_specs(n), len(rows))]
    for c in sweep_chunks:
        _check_rows_against_oracle(shapes, *c)


def offset_bit_sigma(shapes, shape, rows):
    """Sigma of enumeration rows decoded from their indices, as the sweep did
    before the signed table: D less twice the offset bits, bit r of a row's
    offset in its shape's sign block setting the sign of the D member r from
    the right to -1."""
    D = shapes.D[shape]
    firsts = shapes.ends[shape] - (1 << D.sum(axis=1))
    right = np.cumsum(D[:, ::-1], axis=1)[:, ::-1] - D
    return D - 2 * (D & ((rows - firsts)[:, None] >> right & 1))


@pytest.mark.parametrize("n", [48, 72, 96])
def test_signed_table_rows_equal_the_incidence_product(monkeypatch, n):
    # past the orders the per-spec oracle checks reach: on every row the
    # sigma read from the signed table is the offset-bit decoding of its
    # index, at spec width and at class width, and the class values are
    # B @ G + sigma @ H, G and H the class table's two blocks
    monkeypatch.setattr(
        mixedcirc.harness, "transfer_rows", lambda values, *_: np.zeros((4, len(values)), bool)
    )
    shapes = order_shapes(n)
    start = 0
    for shape, signed in _rows(shapes, n):
        rows = np.arange(start, start + len(shape))
        assert (shapes.signed[signed] == offset_bit_sigma(shapes, shape, rows)).all()
        start += len(shape)
    assert start == count_specs(n)
    G, H = np.split(_class_table(n, *_pools(n))[:, index_classes(n).reps], 2)
    start = 0
    for shape, signed, values, _ in _judged_chunks(shapes, "pst"):
        rows = np.arange(start, start + len(shape))
        sigma = offset_bit_sigma(shapes, shape, rows)
        assert (shapes.signed[signed] == sigma).all()
        assert values.dtype == np.int32
        assert (values == (shapes.B[shape] @ G + sigma @ H).astype(np.int64)).all()
        start += len(shape)
    assert start == count_specs(n)


def test_classifier_hits_match_the_closed_form_counts():
    # the accept sets are products, so they count in closed form, t = v2(n) and
    # tau = tau(n_odd): pst(n) = 2^(tau-1) (4 * 4^((t-2) tau) + [8 | n] 2 *
    # 4^((t-3) tau)) and mst(n) = 2^(tau-1) 6 * 4^((t-3) tau) specs, each
    # accepted shape counting its 2^|D| sign choices; through order 48 they
    # sum to the positives of test_bench_size_sweep_frozen
    totals = {"pst": 0, "mst": 0}
    for n in range(4, 129, 4):
        shapes, t = order_shapes(n), two_adic_valuation(n)
        tau, signs = len(divisors(n >> t)), 1 << shapes.D.sum(axis=1)
        deep = 2 * 4 ** ((t - 3) * tau) if t >= 3 else 0
        counts = {
            "pst": (classify_pst_rows(n, shapes.B, shapes.D) != 0, 4 * 4 ** ((t - 2) * tau) + deep),
            "mst": (classify_mst_rows(n, shapes.B, shapes.D), 3 * deep),
        }
        for mode, (hit, expected) in counts.items():
            assert int(signs[hit].sum()) == 2 ** (tau - 1) * expected, (n, mode)
            totals[mode] += int(signs[hit].sum()) if n <= 48 else 0
    assert totals == {"pst": 2806, "mst": 342}


@pytest.fixture
def oracle_rows(monkeypatch):
    """Per call of the oracle's one residual check made through harness, the
    order and the number of class (nonzero) rows it transforms."""
    real = mixedcirc.harness._oracle_spectra
    calls = []

    def counting(rows):
        calls.append((rows.shape[1], int(rows.any(axis=1).sum())))
        return real(rows)

    monkeypatch.setattr(mixedcirc.harness, "_oracle_spectra", counting)
    return calls


@pytest.mark.parametrize("mode, expected", [("pst", 22), ("mst", 12)])
def test_crosscheck_takes_oracle_once_per_class(oracle_rows, mode, expected):
    # tau(n) - 1 undirected classes plus the +1 half class of each d | n/4
    # (the -1 one is its negation), all of an order's class rows in one
    # oracle pass
    report = crosscheck(16, mode)
    per_order = {n: len(divisors(n)) - 1 + len(divisors(n // 4)) for n in report.n_range}
    assert sum(k for _, k in oracle_rows) == sum(per_order.values()) == expected
    assert oracle_rows == list(per_order.items())
    assert report.specs_checked > expected



def test_classifiers_ignore_the_signs():
    # the divisor-set leg reads B and D only, which is what lets crosscheck
    # and search classify an order's shapes, not its specs: every sign
    # variant of a shape gets the one-row verdict of the shape's matrix row
    for n in range(4, 41, 4):
        shapes = order_shapes(n)
        by_shape = list(
            zip(
                classify_pst_rows(n, shapes.B, shapes.D).tolist(),
                classify_mst_rows(n, shapes.B, shapes.D).tolist(),
                mst_sufficient_rows(n, shapes.B, shapes.D).tolist(),
            )
        )
        for shape, signed in _rows(shapes, n):
            for s, spec in zip(shape.tolist(), shapes.specs(shape, signed)):
                got = (classify_pst(spec), classify_mst(spec), mst_sufficient_condition(spec))
                pst, mst, sufficient = by_shape[s]
                assert got == (PST_CASES[pst], mst, sufficient), spec_to_json(spec)


# sha256 of the 114 mismatch spec strings, newline-joined, that
# crosscheck(48, "mst") reported with the sufficient-only classifier before
# the sweep classified per shape
SUFFICIENT_MST_MISMATCH_DIGEST = (
    "6e15fe7f29ca3aeab2a266f78b65e168c882efd31cb906ed5f685258c5747baa"
)


def test_mismatch_rows_carry_their_own_signs(monkeypatch):
    # a mismatch row names its sign variant, not its shape's all-+1 spec
    monkeypatch.setattr(mixedcirc.harness, "classify_mst_rows", mst_sufficient_rows)
    report = crosscheck(48, "mst")
    rows = report.mismatches
    assert len(rows) == 114
    for row in rows:
        assert (row["classifier"], row["valuation"], row["numeric"]) == (False, True, True)
        assert spec_to_json(parse_spec(row["spec"])) == row["spec"]
    joined = "\n".join(row["spec"] for row in rows).encode()
    assert hashlib.sha256(joined).hexdigest() == SUFFICIENT_MST_MISMATCH_DIGEST


@pytest.mark.parametrize("mode", ["pst", "mst"])
def test_sign_negated_partners_get_the_same_answers(mode):
    # relabelling the vertices by a unit u = 3 (mod 4) reverses every arc and
    # fixes 0, n/2 and {n/4, 3n/4}, so a spec and the spec with every sign
    # negated must get the same answer on each leg; every row is still judged
    step = 4 if mode == "pst" else 8
    for n in range(step, 49, step):
        shapes = order_shapes(n)
        parts = list(_judged_chunks(shapes, mode))
        shape, signed = (np.concatenate([p[k] for p in parts]) for k in (0, 1))
        votes = np.concatenate([p[3] for p in parts], axis=1)
        assert len(shape) == count_specs(n)
        rows = np.arange(len(shape))
        partner = 2 * shapes.ends[shape] - (1 << shapes.D[shape].sum(axis=1)) - 1 - rows
        assert (shape[partner] == shape).all()
        sigma = shapes.signed[signed]
        assert (sigma[partner] == -sigma).all()
        assert (votes[:, partner] == votes).all()
        assert votes[0].any()  # the order has transfer-positive specs


@pytest.mark.parametrize("mode", ["pst", "mst"])
def test_sweep_numeric_leg_agrees_with_the_verdicts(mode):
    # the sweep and the CLI verdicts share one verified-witness routine: on
    # every spec through order 32 the chunk's numeric answer is the verdict
    step, decide = {
        "pst": (4, lambda spec: antipodal_verdict(spec).kind != "none"),
        "mst": (8, lambda spec: mst_verdict(spec).kind == "mst"),
    }[mode]
    rows = positive = 0
    for n in range(step, 33, step):
        shapes = order_shapes(n)
        for shape, signed, _, votes in _judged_chunks(shapes, mode):
            verdicts = [decide(spec) for spec in shapes.specs(shape, signed)]
            assert votes[2].tolist() == verdicts, (n, mode)
            rows += len(verdicts)
            positive += sum(verdicts)
    assert rows == sum(count_specs(n) for n in range(step, 33, step))
    assert positive > 0


def test_crosscheck_builds_specs_only_for_mismatches(monkeypatch):
    # shapes, sign variants and class rows are array rows: a GraphSpec is
    # built for each reported mismatch, plus the one each order-range check
    # (_pools, once per order) validates; never one per class, per shape or
    # per spec
    orders = [8, 16]
    built, pools, judged = [], [], []
    real_post_init, real_pools = GraphSpec.__post_init__, mixedcirc.harness._pools

    def counting_post_init(self):
        built.append(self.n)
        real_post_init(self)

    def counting_pools(n):
        pools.append(n)
        return real_pools(n)

    def counting_classifier(n, B, D):
        judged.append(len(B))
        return mst_sufficient_rows(n, B, D)

    monkeypatch.setattr(mixedcirc.harness, "classify_mst_rows", counting_classifier)
    monkeypatch.setattr(GraphSpec, "__post_init__", counting_post_init)
    monkeypatch.setattr(mixedcirc.harness, "_pools", counting_pools)
    report = crosscheck(16, "mst")
    assert report.n_range == orders
    assert len(report.mismatches) > 0
    # the classifier runs once per order, on all of its shapes
    assert judged == [len(list(reference_shapes(n))) for n in orders]
    assert pools == orders
    assert len(built) == len(report.mismatches) + len(pools)


def test_search_classifies_each_order_once_and_builds_only_hits(monkeypatch):
    built, judged, pools = [], [], []
    real_post_init, real_pools = GraphSpec.__post_init__, mixedcirc.harness._pools

    def counting_post_init(self):
        built.append(self.n)
        real_post_init(self)

    def counting_pools(n):
        pools.append(n)
        return real_pools(n)

    def counting_classifier(n, B, D):
        judged.append(len(B))
        return classify_pst_rows(n, B, D)

    monkeypatch.setattr(mixedcirc.harness, "classify_pst_rows", counting_classifier)
    monkeypatch.setattr(GraphSpec, "__post_init__", counting_post_init)
    monkeypatch.setattr(mixedcirc.harness, "_pools", counting_pools)
    hits = search_specs(16, "pst")
    assert judged == [len(list(reference_shapes(16)))]
    # one spec per hit and one for the order's one range check (_pools),
    # whose pools serve the budget count and the shape matrices alike
    assert pools == [16]
    assert len(built) == len(hits) + len(pools)


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


def test_search_budget_guard(monkeypatch):
    # an order over budget is refused before enumeration builds any spec
    def no_enumeration(n, *pools):
        raise AssertionError(f"order {n} enumerated")

    monkeypatch.setattr(mixedcirc.harness, "_shapes", no_enumeration)
    with pytest.raises(BudgetExceeded, match="128 specs through order 16 exceed budget 127"):
        search_specs(16, "mst", budget=127)
    with pytest.raises(BudgetExceeded):
        search_specs(720720)


def test_orders_outside_the_enumerable_range_are_input_errors():
    for n in (0, 1, MAX_N + 1):
        with pytest.raises(SpecError):
            count_specs(n)
        with pytest.raises(SpecError):
            search_specs(n)


def test_sign_choices_multiply_search_hits():
    # classifier verdicts ignore sigma, so hits arrive in blocks of 2^|D|
    for mode in ("pst", "mst"):
        groups = {}
        for s in search_specs(16, mode):
            key = (tuple(sorted(s.B)), tuple(sorted(s.D)))
            groups[key] = groups.get(key, 0) + 1
        for (_, d_set), hits in groups.items():
            assert hits == 2 ** len(d_set)
