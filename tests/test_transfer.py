"""Transfer deciders: amplitudes, valuations, classifiers, feasibility."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    all_specs,
    failing_verify_rows,
    mst_example_graph,
    order_shapes,
    pst_case_i_graph,
    pst_case_ii_graph,
    pst_case_iii_graph,
    reference_shapes,
    two_arc_layer_graph,
)
from mixedcirc import (
    ConsistencyError,
    NotFeasible,
    SamePair,
    Spectrum,
    antipodal_pst_by_valuation,
    antipodal_verdict,
    classify_mst,
    classify_pst,
    count_specs,
    crosscheck,
    eigenvalues_closed_form,
    enumerate_specs,
    minimal_pst_time,
    mst_by_valuation,
    mst_sufficient_condition,
    mst_verdict,
    oriented_pst_criterion,
    pair_restriction_check,
    pair_verdict,
    pst_feasible_pair,
    transition_amplitude,
    undirected_pst_criterion,
    validate_spec,
    verify_numeric,
)
from mixedcirc.circulant import index_classes
from mixedcirc.harness import _judged_chunks
from mixedcirc.numthy import divisors
from mixedcirc.transfer import (
    PST_CASES,
    _class_weights,
    _gap_columns,
    _profile,
    _step,
    _witnesses,
    _witness_ks,
    classify_mst_rows,
    classify_pst_rows,
    mst_sufficient_rows,
    transfer_rows,
    verify_rows,
)


def grid_feasible(spectrum: Spectrum, a: int, b: int):
    """Independent route: scan every candidate time k/g with exact rationals.

    Any witness denominator divides g = gcd of pairwise gap differences, so
    the grid k/g for k = 1..g is exhaustive; g = 0 means all gaps are equal,
    hence (telescoping around the cycle) all zero, and no time works.
    """
    n = spectrum.n
    w = (a - b) % n
    deltas = [spectrum.gamma[(j + 1) % n] - spectrum.gamma[j] for j in range(n)]
    g = 0
    for d in deltas[1:]:
        g = math.gcd(g, d - deltas[0])
    if g == 0:
        return None
    shift = Fraction(w, n)
    for k in range(1, g + 1):
        t = Fraction(k, g)
        if all((d * t + shift).denominator == 1 for d in deltas):
            return t
    return None


def divisor_loop_feasible(spectrum: Spectrum, a: int, b: int):
    """Independent route: the search the closed-form solve replaced.

    For each divisor q > 1 of the gap gcd g, test solvability of
    n*s*d0 = -w*q (mod n*q), then scan s = 1..q coprime to q; the least
    s/q over all q is the minimal witness.
    """
    n = spectrum.n
    w = (a - b) % n
    deltas = [spectrum.gamma[(j + 1) % n] - spectrum.gamma[j] for j in range(n)]
    d0 = deltas[0]
    g = 0
    for d in deltas[1:]:
        g = math.gcd(g, d - d0)
    if g == 0:
        return None
    best = None
    for q in divisors(g):
        if q == 1 or (w * q) % (n * math.gcd(d0, q)):
            continue
        for s in range(1, q + 1):
            if math.gcd(s, q) == 1 and (n * s * d0 + w * q) % (n * q) == 0:
                if best is None or Fraction(s, q) < best:
                    best = Fraction(s, q)
                break
    return best


@dataclass(frozen=True)
class LoopProfile:
    """Independent route: the one-pass profile the gap kernel replaced.

    Its per-index tuples are built eagerly and its readers scan them; the
    witness solve is the same congruence, read off its own gaps.
    """

    deltas: tuple
    step2: tuple
    valuations: tuple
    gap_gcd: int

    def common_valuation(self):
        vals = set(self.valuations)
        if None in vals or len(vals) != 1:
            return None
        return vals.pop()

    def quarter_orbit(self):
        return all(v == 1 for v in self.valuations) and all(
            d & 7 == 4 for d in self.step2
        )

    def witness(self, w):
        return loop_witness(len(self.deltas), self.deltas[0], self.gap_gcd, w)


def loop_witness(n, d0, g, w):
    """The congruence solve of the loop profile, on its fields: the least
    Fraction witness k/g across w, or None."""
    if g == 0:
        return None
    c = n * math.gcd(d0, g)
    if (w * g) % c:
        return None
    m = n * g // c
    k = (w * g // c) * pow(n * d0 // c, -1, m) % m
    return Fraction(k, g)


def loop_difference_profile(gamma) -> LoopProfile:
    ext = tuple(gamma) + tuple(gamma[:2])
    d0 = ext[1] - ext[0]
    deltas, step2, vals = [], [], []
    g = 0
    for x, y, z in zip(ext, ext[1:], ext[2:]):
        d = y - x
        deltas.append(d)
        step2.append(z - x)
        vals.append((d & -d).bit_length() - 1 if d else None)
        g = math.gcd(g, d - d0)
    return LoopProfile(tuple(deltas), tuple(step2), tuple(vals), g)


def column_rows(gammas):
    """The gap columns of a matrix of spectra, one (d0, g, common, quarter)
    tuple of Python values per row."""
    return list(zip(*(col.tolist() for col in _gap_columns(np.asarray(gammas)))))


def assert_columns_agree(row, ref, label):
    """One row of gap columns against the loop profile: every field, the
    valuation of d0 where it is common, and every witness k/g: there is one
    across each multiple of _step and _witness_ks gives k."""
    d0, g, common, quarter = row
    n = len(ref.deltas)
    assert d0 == ref.deltas[0], label
    assert g == ref.gap_gcd, label
    assert common is (ref.common_valuation() is not None), label
    if common:
        assert (d0 & -d0).bit_length() - 1 == ref.common_valuation(), label
    assert quarter is ref.quarter_orbit(), label
    step = _step(n, d0, g)
    diffs = list(range(step, n, step))
    assert diffs == [w for w in range(1, n) if ref.witness(w) is not None], label
    if diffs:
        times = [Fraction(k, g) for k in _witness_ks(n, d0, g, diffs)]
        assert times == [ref.witness(w) for w in diffs], label


# ---------------------------------------------------------- integer arguments

# the vertex arguments a and b, with a valid call to start from: a bool or a
# float in either is refused, as numthy refuses them in its kernels
_SPEC16 = validate_spec(16, [8])
_SPECTRUM16 = eigenvalues_closed_form(_SPEC16)
_VALID_PAIR_CALLS = [
    (transition_amplitude, (_SPECTRUM16, 0, 8, Fraction(1, 4))),
    (verify_numeric, (_SPECTRUM16, 0, 8, Fraction(1, 4))),
    (pst_feasible_pair, (_SPECTRUM16, 0, 8)),
    (minimal_pst_time, (_SPECTRUM16, 0, 8)),
    (pair_verdict, (_SPEC16, 0, 8)),
]


@pytest.mark.parametrize("bad", [True, 2.0, 2.5], ids=repr)
@pytest.mark.parametrize("i", [1, 2], ids=["a", "b"])
@pytest.mark.parametrize("fn, args", _VALID_PAIR_CALLS, ids=[fn.__name__ for fn, _ in _VALID_PAIR_CALLS])
def test_vertex_arguments_refuse_bools_and_floats(fn, args, i, bad):
    with pytest.raises(ValueError):
        fn(*args[:i], bad, *args[i + 1:])


@pytest.mark.parametrize("bad", [True, 2.0, 2.5], ids=repr)
def test_pair_verdict_refuses_vertices_before_the_closed_form(monkeypatch, bad):
    import mixedcirc.transfer

    def unreachable(spec):
        raise AssertionError("closed form built before the vertices were checked")

    monkeypatch.setattr(mixedcirc.transfer, "eigenvalues_closed_form", unreachable)
    for a, b in ((bad, 8), (0, bad)):
        with pytest.raises(ValueError):
            pair_verdict(_SPEC16, a, b)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("fn", [transition_amplitude, verify_numeric], ids=lambda fn: fn.__name__)
def test_one_row_checks_refuse_a_time_that_is_not_finite(fn, bad):
    # a NaN or infinite time would come back as a NaN amplitude and residual
    with pytest.raises(ValueError, match="finite"):
        fn(_SPECTRUM16, 0, 8, bad)


@pytest.mark.parametrize("bad", [True, False, "0.5", None, 1j], ids=repr)
@pytest.mark.parametrize("fn", [transition_amplitude, verify_numeric], ids=lambda fn: fn.__name__)
def test_one_row_checks_refuse_a_time_that_is_not_a_real_number(fn, bad):
    # a bool time would be read as 0 or 1 turns, as the vertices refuse it;
    # a str, None or a complex is no time at all
    with pytest.raises(ValueError, match="real number"):
        fn(_SPECTRUM16, 0, 8, bad)


@pytest.mark.parametrize("fn", [transition_amplitude, verify_numeric], ids=lambda fn: fn.__name__)
def test_one_row_checks_take_any_real_time(fn):
    # the antipodal witness of _SPECTRUM16 as a Fraction, a numpy float and a float
    times = [Fraction(1, 4), np.float64(0.25), 0.25]
    assert len({repr(fn(_SPECTRUM16, 0, 8, t)) for t in times}) == 1
    assert abs(transition_amplitude(_SPECTRUM16, 0, 8, Fraction(1, 4))) == pytest.approx(1)


def test_the_refused_pair_calls_are_valid_with_integers():
    for fn, args in _VALID_PAIR_CALLS:
        fn(*args)
    assert pair_verdict(_SPEC16, 0, 8).kind == "antipodal_pst"


# ---------------------------------------------------------------- amplitudes

def test_amplitude_identity_at_time_zero():
    sp = eigenvalues_closed_form(pst_case_i_graph())
    assert transition_amplitude(sp, 3, 3, 0) == pytest.approx(1)
    assert transition_amplitude(sp, 0, 3, 0) == pytest.approx(0)


def test_amplitude_is_one_periodic():
    sp = eigenvalues_closed_form(two_arc_layer_graph())
    for a, b in ((0, 1), (2, 7)):
        assert transition_amplitude(sp, a, b, 1) == pytest.approx(
            transition_amplitude(sp, a, b, 0), abs=1e-12
        )


def test_amplitude_modulus_bounded():
    sp = eigenvalues_closed_form(mst_example_graph())
    for k in range(50):
        assert abs(transition_amplitude(sp, 0, 5, k / 50)) <= 1 + 1e-12


def test_antipodal_amplitude_reaches_one():
    sp = eigenvalues_closed_form(pst_case_i_graph())
    assert abs(abs(transition_amplitude(sp, 0, 4, Fraction(1, 4))) - 1) < 1e-9


# ------------------------------------------------------------- gap columns

def test_profile_flags_zero_gaps():
    # every gap zero: no gap gcd, no common valuation, off the quarter orbit;
    # _profile reads one row of gap columns as (d0, g, m, quarter)
    assert _profile(Spectrum(n=4, gamma=(5, 5, 5, 5))) == (0, 0, None, False)
    # some gaps zero (gaps -4, 0, 0, 4 repeated): a gap gcd but no valuation
    sp = eigenvalues_closed_form(validate_spec(8, [2, 4], [], {}))
    assert _profile(sp) == (-4, 4, None, False)


def test_profile_frozen_values():
    sp = eigenvalues_closed_form(validate_spec(8, [4], [], {}))
    assert _profile(sp) == (-2, 4, 1, False)
    assert _profile(Spectrum(n=4, gamma=(0, 1, 0, 1))) == (1, 2, 0, False)


def test_profile_gap_gcd_frozen_values():
    # g = gcd of delta_j - delta_0; every witness time is k/g
    cases = [
        (validate_spec(8, [4], [], {}), 4),  # gaps -2, 2
        (pst_case_i_graph(), 8),  # gaps -2 and 6
        (pst_case_ii_graph(), 4),  # gaps -6, -2, 2, 6
        (pst_case_iii_graph(), 8),  # gaps -4, 4
        (mst_example_graph(), 8),  # gaps -6, 2, 10
        (validate_spec(8, [2, 4], [], {}), 4),  # gaps -4, 0, 4
    ]
    for spec, g in cases:
        assert _profile(eigenvalues_closed_form(spec))[1] == g, spec
    assert _profile(Spectrum(n=2, gamma=(0, 2)))[1] == 4
    assert _profile(Spectrum(n=4, gamma=(5, 5, 5, 5)))[1] == 0


def test_kernel_equals_loop_reference():
    # every spec with n <= 40, one stacked matrix per order through the
    # kernel, every field and every witness against the one-pass loop
    checked = quarter = common = 0
    for n in range(2, 41):
        spectra = [eigenvalues_closed_form(spec).gamma for spec in enumerate_specs(n)]
        rows = column_rows(np.array(spectra, dtype=np.int64))
        assert len(rows) == len(spectra)
        for gamma, row in zip(spectra, rows):
            assert_columns_agree(row, loop_difference_profile(gamma), gamma)
            checked += 1
            common += row[2]
            quarter += row[3]
    assert checked == sum(count_specs(n) for n in range(2, 41))
    assert quarter > 0 and common > 0


@pytest.mark.parametrize(
    "gamma",
    [
        (0, 2),  # n = 2: double gaps are all zero
        (0, 0),
        (3, -1),
        (1, 4, -2),  # n = 3
        (5, 5, 5),
        (5, 5, 5, 5),  # every gap zero
        (0, 0, 4, 4),  # some gaps zero
        (-7, -3, 1, -3),  # negative entries
        (-6, 2, 10, 2, -6, -14, -22, -14),
        (2**59, -(2**59), 2**59 - 4, 0),  # near the bound
        (-(2**60) + 1, 2**60 - 1),
    ],
)
def test_kernel_equals_loop_reference_on_hand_picked_rows(gamma):
    ref = loop_difference_profile(gamma)
    (row,) = column_rows(np.array([gamma]))
    assert_columns_agree(row, ref, gamma)
    # the one-spectrum readers see the same row
    sp = Spectrum(len(gamma), gamma)
    assert _profile(sp) == (row[0], row[1], ref.common_valuation(), row[3])
    for w in range(1, len(gamma)):
        assert pst_feasible_pair(sp, 0, w) == ref.witness(w), (gamma, w)


def unscreened_quarter(gammas: np.ndarray) -> np.ndarray:
    """The quarter flag by its definition, on every row: each cyclic gap is
    2 (mod 4) and each cyclic double gap 4 (mod 8)."""
    gaps = [np.roll(gammas, -step, axis=1) - gammas for step in (1, 2)]
    return ((gaps[0] % 4) == 2).all(axis=1) & ((gaps[1] % 8) == 4).all(axis=1)


def test_screened_quarter_equals_its_definition_on_sweep_rows():
    # the kernel reads the flag as d0 = 2 (mod 4) and 8 | g, forming no
    # double gap; every row the mst sweep checks, 8 | n <= 96, gets the
    # flag the unscreened definition gives
    rows = positive = 0
    for n in range(8, 97, 8):
        of = index_classes(n).of
        for _, _, values, votes in _judged_chunks(order_shapes(n), "mst"):
            gammas = values[:, of]
            quarter = unscreened_quarter(gammas)
            assert (votes[1] == quarter).all(), n  # the kernel's flag, via transfer_rows
            rows, positive = rows + len(gammas), positive + int(quarter.sum())
    assert rows == sum(count_specs(n) for n in range(8, 97, 8))
    assert positive > 0


def test_screened_quarter_equals_its_definition_on_random_rows():
    # seeded int64 matrices: random rows with negative entries and zero
    # gaps, a constant row, and rows built on the quarter orbit (every gap
    # r (mod 8), r in {2, 6}; with 4 | n the closing gap is r too) near
    # |gamma| = 2**59 - 1, with near misses that pass the screen (+-4 on
    # one entry) or fail it (+-2)
    rng = np.random.default_rng(20260)
    top = 2**59 - 1
    for n in (4, 8, 12, 16, 24, 40):
        gaps = 8 * rng.integers(-3, 4, size=(64, n - 1)) + rng.choice([2, 6], size=(64, 1))
        walks = np.hstack([np.zeros((64, 1), dtype=np.int64), np.cumsum(gaps, axis=1)])
        span = walks.max(axis=1, keepdims=True) - walks.min(axis=1, keepdims=True)
        edge = top - 4  # room for the near misses
        low = np.where(rng.random((64, 1)) < 0.5, edge - span, -edge)
        base = low - walks.min(axis=1, keepdims=True)
        orbit = base + walks
        nudged = orbit.copy()
        nudged[np.arange(64), rng.integers(0, n, size=64)] += rng.choice([-4, -2, 2, 4], size=64)
        noise = rng.integers(-6, 7, size=(64, n))
        noise[::4] = noise[::4, :1]  # zero gaps: constant rows
        noise[1::4, ::2] = 0  # some gaps zero
        wide = rng.integers(-top, top + 1, size=(16, n), dtype=np.int64)
        gammas = np.vstack([orbit, nudged, noise, wide, np.full((1, n), -top)])
        assert np.abs(gammas).max() <= top
        quarter = unscreened_quarter(gammas)
        assert quarter[:64].all() and not quarter[64:128].any()
        d0, _, common, screened = _gap_columns(gammas)
        assert (screened == quarter).all(), n
        assert (common & (d0 & 3 == 2))[64:128].any()  # misses the double-gap test catches
    # class-width rows, 4 | n <= 48: j mod 4 is constant on each class, so
    # gamma_C = r * reps[C] + 8 * a_C makes every gap r (mod 8), r in {2, 6},
    # and 2 * reps[C] + 4 * a_C every gap 2 (mod 4) with g mostly 4 (mod 8);
    # each row shifted by 0 or near +-2**59
    for n in range(4, 49, 4):
        classes = index_classes(n)
        reps, size = classes.reps, (64, len(classes.reps))
        orbit = rng.choice([2, 6], size=(64, 1)) * reps + 8 * rng.integers(-3, 4, size=size)
        near = 2 * reps + 4 * rng.integers(-3, 4, size=size)
        noise = rng.integers(-6, 7, size=size)
        noise[::4] = noise[::4, :1]
        values = np.vstack([orbit, near, noise])
        values += rng.choice([0, top - 2**10, 2**10 - top], size=(len(values), 1))
        quarter = unscreened_quarter(values[:, classes.of])
        _, gcds, common, screened = _gap_columns(values, classes)
        assert (screened == quarter).all(), n
        assert quarter[:64].all() and (common[64:128] & (gcds[64:128] % 8 == 4)).any(), n
        assert not quarter[64:128][gcds[64:128] % 8 == 4].any(), n


# ------------------------------------------------------ class-width kernel

SWEEP_MODES = pytest.mark.parametrize(
    "mode, step, quarters", [("pst", 4, (2,)), ("mst", 8, (1, 2, 3))], ids=["pst", "mst"]
)


def assert_screen_agrees(values, classes, targets, weights, label):
    """_witnesses on a matrix held on classes, which judges each row on low
    = 2**v2(g), gives what the exact gap gcd g (_gap_columns' full fold)
    gives: the same step, so the same order and feasible rows, and the same
    common and quarter flags; its gap column holds g on the feasible rows,
    the only ones whose exact g it folds, and low on the others."""
    n, (d0, g, common, quarter) = len(classes.of), _gap_columns(values, classes)
    columns, order, feasible, _, _ = _witnesses(values, targets, classes, weights)
    step = _step(n, d0, g)
    assert (order == n // step).all() and (4 % order == 0).all(), label
    exact = np.flatnonzero(math.gcd(*(t % n for t in targets)) % step == 0)
    assert feasible.tolist() == exact.tolist(), label
    held = np.where(np.isin(np.arange(len(g)), feasible), g, g & -g)
    for got, want in zip(columns, (d0, held, common, quarter)):
        assert (got == want).all(), label
    assert (_step(n, d0, columns[1]) == step).all(), label


def assert_widths_agree(values, classes, targets, label):
    """_gap_columns and transfer_rows on a matrix held on classes equal them
    on its expansion to every index, and the screen agrees with the exact
    gap gcd (assert_screen_agrees)."""
    gammas = values[:, classes.of]
    for narrow, wide in zip(_gap_columns(values, classes), _gap_columns(gammas)):
        assert (narrow == wide).all(), label
    answers = transfer_rows(gammas, targets)
    weights = _class_weights(classes, targets)
    assert (transfer_rows(values, targets, classes, weights) == answers).all(), label
    assert_screen_agrees(values, classes, targets, weights, label)


@SWEEP_MODES
def test_class_width_equals_full_width_on_every_sweep_row(mode, step, quarters):
    # every row the sweep checks, 4 | n <= 96 (pst) or 8 | n <= 96 (mst):
    # the gap columns at class width are those of the expanded spectra, and
    # so are the chunk's valuation, numeric and restriction answers
    rows, valuation = 0, {"pst": 0, "mst": 1}[mode]
    for n in range(step, 97, step):
        classes, targets = index_classes(n), [k * n // 4 for k in quarters]
        weights = _class_weights(classes, targets)
        for _, _, values, votes in _judged_chunks(order_shapes(n), mode):
            gammas = values[:, classes.of]
            for narrow, wide in zip(_gap_columns(values, classes), _gap_columns(gammas)):
                assert (narrow == wide).all(), n
            answers = transfer_rows(gammas, targets)
            assert (votes[1:] == answers[[valuation, 2, 3]]).all(), n
            assert_screen_agrees(values, classes, targets, weights, n)
            rows += len(values)
    assert rows == sum(count_specs(n) for n in range(step, 97, step))


@SWEEP_MODES
def test_exact_gap_gcd_is_folded_over_feasible_class_rows_only(monkeypatch, mode, step, quarters):
    # every sweep chunk through order 48: the exact fold receives the
    # potentials of the rows whose step divides the targets' differences,
    # and no other row, so at order 48 it sees 2,112 of 32,768 pst rows and
    # 192 of 32,768 mst rows; a chunk with no such row is not folded at all,
    # 5 of the 32 pst chunks and 22 of the 32 mst chunks there
    import mixedcirc.transfer

    real, folded = mixedcirc.transfer._gap_gcds, []

    def fold(d0, potential, cycle):
        folded.append((d0, potential))
        return real(d0, potential, cycle)

    monkeypatch.setattr(mixedcirc.transfer, "_gap_gcds", fold)
    seen, unfolded = {}, {}
    for n in range(step, 49, step):
        classes, targets = index_classes(n), [k * n // 4 for k in quarters]
        weights = _class_weights(classes, targets)
        seen[n] = unfolded[n] = 0
        for _, _, values, _ in _judged_chunks(order_shapes(n), mode):
            folded.clear()
            _, _, feasible, _, _ = _witnesses(values, targets, classes, weights)
            assert len(folded) == (feasible.size > 0), n
            d0_all, potential_all, _ = mixedcirc.transfer._potentials(values, classes)
            for d0, potential in folded:
                assert (d0 == d0_all[feasible]).all(), n
                assert (potential == potential_all[feasible]).all(), n
                seen[n] += len(d0)
            unfolded[n] += not folded
    assert seen[48] == {"pst": 2112, "mst": 192}[mode]
    assert unfolded[48] == {"pst": 5, "mst": 22}[mode]
    assert 0 < sum(seen.values()) < sum(count_specs(n) for n in seen) // 10


def test_class_width_equals_full_width_on_seeded_rows():
    # seeded values on the classes of several orders: small ones with
    # constant rows and zero gaps, ones at the edge of the kernel's int32
    # range and just past it, near |gamma| = 2**59, and spread over all of
    # (-2**59, 2**59); a shift by 2**40 moves a matrix onto int64 and leaves
    # every gap, so every column, as it was
    rng = np.random.default_rng(20262)
    edge, top = 2**28 - 1, 2**59
    for n in (4, 8, 12, 16, 24, 48, 96, 240):
        classes = index_classes(n)
        count = len(classes.reps)
        small = rng.integers(-6, 7, size=(64, count))
        small[::4] = small[::4, :1]  # constant rows: every gap zero
        small[1::4, ::2] = 0  # some gaps zero
        signs = rng.choice([-1, 1], size=(16, count))
        matrices = [
            small,
            edge * signs,
            (2**29 - 1) * signs,
            2**30 * signs,
            (top - rng.integers(0, 9, size=(16, count))) * signs[:, :1],
            rng.integers(-top, top, size=(16, count)),
        ]
        for k, values in enumerate(matrices):
            for targets in ([n // 2], [n // 4, n // 2, 3 * n // 4]):
                assert_widths_agree(values, classes, targets, (n, k))
        for values in matrices[:4]:
            shifted = _gap_columns(values + 2**40, classes)
            for a, b in zip(_gap_columns(values, classes), shifted):
                assert (a == b).all(), n


@SWEEP_MODES
def test_witness_check_is_exact_near_the_gamma_bound(mode, step, quarters):
    # sweep rows shifted by up to 2**59 keep every gap, so every answer; a
    # check read modulo g passes every feasible row on classes and on whole
    # rows alike, where float(gamma) * k/g would lose the phase
    rng, checked = np.random.default_rng(20263), 0
    for n in range(step, 49, step):
        classes, targets = index_classes(n), [k * n // 4 for k in quarters]
        weights = _class_weights(classes, targets)
        values = next(_judged_chunks(order_shapes(n), mode))[2][:256]
        big = values + rng.integers(-(2**59) + 2**10, 2**59 - 2**10, size=(len(values), 1))
        answers = transfer_rows(big, targets, classes, weights)
        assert (answers == transfer_rows(big[:, classes.of], targets)).all(), n
        assert (answers == transfer_rows(values, targets, classes, weights)).all(), n
        _, _, feasible, _, _ = _witnesses(big, targets, classes, weights)
        assert answers[2, feasible].all(), n
        checked += len(feasible)
    assert checked > 100


def lowest_bit_common(gammas: np.ndarray) -> np.ndarray:
    """The common-valuation flag by lowest set bits: every cyclic gap's d & -d
    equal to d0's and nonzero."""
    low = np.roll(gammas, -1, axis=1) - gammas
    low &= -low
    return (low[:, 0] != 0) & (low == low[:, :1]).all(axis=1)


GAMMA_EDGE = 2**60 - 1


@st.composite
def gap_rows(draw):
    """An int64 matrix of spectra with |gamma| < 2**60: random entries, small
    or wide, with zeros, negatives and constant rows, and rows whose gaps
    are all 2**v times an odd number (even n), the ones the flag accepts."""
    n = draw(st.integers(1, 12))
    entry = st.one_of(
        st.integers(-8, 8),
        st.integers(-GAMMA_EDGE, GAMMA_EDGE),
        st.sampled_from([0, GAMMA_EDGE, -GAMMA_EDGE, 2**59, -(2**59)]),
    )
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=6))
    rows.append([draw(entry)] * n)
    if n % 2 == 0:
        v = draw(st.integers(0, 57))
        walk = [2 * draw(st.integers(-3, 3)) + j % 2 for j in range(n)]
        base = draw(st.sampled_from([0, GAMMA_EDGE - 2**v * 8, -GAMMA_EDGE + 2**v * 8]))
        rows.append([base + (w << v) for w in walk])
    return np.array(rows, dtype=np.int64)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(gap_rows())
def test_valuation_flag_from_d0_and_gap_gcd_equals_lowest_bits(gammas):
    # every gap is d0 plus a multiple of the gap gcd g, so all share d0's
    # valuation v iff d0 != 0 and 2**(v+1) divides g, g = 0 included
    d0, gcds, common, _ = _gap_columns(gammas)
    assert (common == lowest_bit_common(gammas)).all(), gammas.tolist()
    assert (d0 == gammas[:, 1 % gammas.shape[1]] - gammas[:, 0]).all()


GCD_ORDERS = [*range(4, 241, 4), 720]
GCD_CLASSES = {n: index_classes(n) for n in GCD_ORDERS}


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_class_potential_gap_gcd_equals_the_all_pairs_gcd(seed):
    # every 4 | n <= 240, and 720, on seeded class values up to each edge,
    # on both sides of the kernel's int32 range (2**28) and near 2**60, with
    # constant rows and zero gaps: d0 is the first gap, the gcd of the
    # potentials and cycle * d0 is the gcd over every gap less d0, and the
    # quarter flag is its definition's
    rng = np.random.default_rng(seed)
    for edge in (8, 2**28 - 1, 2**28, 2**29 - 1, 2**29, 2**30 - 1, 2**31, GAMMA_EDGE):
        for n, classes in GCD_CLASSES.items():
            values = rng.integers(-edge, edge + 1, size=(8, len(classes.reps)), dtype=np.int64)
            values[0] = values[0, 0]  # every gap zero
            values[1, ::2] = 0  # some gaps zero
            values[2] = rng.choice([-edge, edge], size=len(classes.reps))
            gammas = values[:, classes.of]
            gaps = np.roll(gammas, -1, axis=1) - gammas
            d0, gcds, _, quarter = _gap_columns(values, classes)
            assert (d0 == gaps[:, 0]).all(), (n, edge)
            assert gcds.tolist() == [math.gcd(*(row - row[0]).tolist()) for row in gaps], (n, edge)
            assert (quarter == unscreened_quarter(gammas)).all(), (n, edge)


def test_transfer_rows_refuses_what_the_verdicts_refuse():
    # a target = 0 (mod n) asks about periodicity, as in pst_feasible_pair;
    # an empty target list asks nothing
    spectrum = eigenvalues_closed_form(pst_case_i_graph())
    gammas, n = np.array([spectrum.gamma]), spectrum.n
    for b in (0, n):
        with pytest.raises(SamePair):
            pst_feasible_pair(spectrum, 0, b)
        with pytest.raises(SamePair):
            transfer_rows(gammas, [b])
    with pytest.raises(ValueError, match="at least one target"):
        transfer_rows(gammas, [])
    assert transfer_rows(gammas, [n // 2]).tolist() == [[True]] * 4
    assert (transfer_rows(gammas, [n + n // 2]) == transfer_rows(gammas, [n // 2])).all()


def test_transfer_rows_takes_class_weights_with_classes_only():
    # rows on classes are checked with their order's weight table, and
    # whole rows with none: either one alone is refused, not guessed at
    classes = index_classes(8)
    values = eigenvalues_closed_form(pst_case_iii_graph()).gamma
    values = np.array([values])[:, classes.reps]
    weights = _class_weights(classes, [4])
    with pytest.raises(ValueError, match="class weights go with classes"):
        transfer_rows(values, [4], classes)
    with pytest.raises(ValueError, match="class weights go with classes"):
        transfer_rows(values[:, classes.of], [4], None, weights)
    answers = transfer_rows(values, [4], classes, weights)
    assert answers[2, 0] and (answers == transfer_rows(values[:, classes.of], [4])).all()


def test_kernel_profiles_keep_their_own_rows():
    # a later write to the caller's matrix must not change the columns
    gammas = np.array([[0, 2, 0, 2]], dtype=np.int64)
    columns = _gap_columns(gammas)
    before = column_rows(np.array([[0, 2, 0, 2]]))
    gammas[0, 1] = 5
    assert list(zip(*(col.tolist() for col in columns))) == before
    assert before[0][:2] == (2, 4)


def test_kernel_refuses_what_int64_cannot_hold():
    # a float spectrum would be truncated by an int64 cast
    with pytest.raises(ValueError):
        _profile(Spectrum(2, (0.5, 1)))
    with pytest.raises(ValueError):
        _gap_columns(np.array([[0.0, 2.0]]))
    with pytest.raises(ValueError):
        _gap_columns(np.array([[True, False]]))
    # gaps of 2**62 would wrap: the exact gap gcd here is 2**63
    with pytest.raises(ValueError):
        _profile(Spectrum(4, (0, 2**62, 0, -(2**62))))
    with pytest.raises(ValueError):
        _profile(Spectrum(2, (0, 2**60)))
    with pytest.raises(ValueError):
        _profile(Spectrum(2, (-(2**60), 0)))
    with pytest.raises(ValueError):
        _profile(Spectrum(2, (0, 2**64)))
    with pytest.raises(ValueError):
        _gap_columns(np.array([[0, 2**63]], dtype=np.uint64))
    # only a (k, n) matrix with n >= 1 has cyclic gaps
    with pytest.raises(ValueError):
        _gap_columns(np.array([0, 2]))
    with pytest.raises(ValueError):
        _gap_columns(np.zeros((1, 0), dtype=np.int64))
    assert column_rows(np.zeros((0, 4), dtype=np.int64)) == []


def test_solvability_helper_equals_witness():
    # every chunk row with 4 | n <= 32 and every w: the array step on the
    # kernel's columns divides w exactly when the loop solve finds a time
    rows = feasible = 0
    for n in range(4, 33, 4):
        of = index_classes(n).of
        for _, _, values, _ in _judged_chunks(order_shapes(n), "pst"):
            d0, gcds, _, _ = _gap_columns(values[:, of])
            step = _step(n, d0, gcds)
            pairs = list(zip(d0.tolist(), gcds.tolist()))
            for w in range(1, n):
                got = (w % step == 0).tolist()
                assert got == [loop_witness(n, d, g, w) is not None for d, g in pairs], (n, w)
                feasible += sum(got)
            rows += len(pairs)
    assert rows == sum(count_specs(n) for n in range(4, 33, 4))
    assert feasible > 0


def test_solvability_helper_is_exact_at_the_int64_extremes():
    # w*g overflows int64 here; the step, on ints and on int64 arrays, must
    # divide w exactly when n*gcd(d0, g) | w*g on Python ints
    for n in (2**30, 3 * 2**28, 12):
        cases = [
            (d0, g, w)
            for d0 in (0, -1, 2**60 - 3, -(2**60) + 1, -(3 * 2**40))
            for g in (1, 2**59, 3 * 2**57, 2**60 - 2**30, 2**60 - 1)
            for w in (1, n // 4, n // 2, n - 1)
        ]
        exact = [w * g % (n * math.gcd(d0, g)) == 0 for d0, g, w in cases]
        assert 0 < sum(exact) < len(cases)
        assert [w % _step(n, d0, g) == 0 for d0, g, w in cases] == exact
        d0, g, w = (np.array(column, dtype=np.int64) for column in zip(*cases))
        assert (w % _step(n, d0, g) == 0).tolist() == exact
    # g = 0 has no witness, whatever d0: the step is n, and nothing divides by zero
    zero = np.zeros(3, dtype=np.int64)
    assert _step(8, np.array([0, -4, 4]), zero).tolist() == [8] * 3
    assert _step(8, 0, 0) == _step(8, -4, 0) == 8


# -------------------------------------------------------- valuation criteria

def test_antipodal_valuation_frozen_values():
    assert antipodal_pst_by_valuation(
        eigenvalues_closed_form(validate_spec(8, [4], [], {}))
    ) == 1
    assert antipodal_pst_by_valuation(eigenvalues_closed_form(pst_case_i_graph())) == 1
    assert antipodal_pst_by_valuation(eigenvalues_closed_form(pst_case_iii_graph())) == 2


def test_antipodal_valuation_none_on_zero_gap():
    # two four-cliques: spectrum has repeated neighbours
    sp = eigenvalues_closed_form(validate_spec(8, [2, 4], [], {}))
    assert 0 in loop_difference_profile(sp.gamma).deltas
    assert antipodal_pst_by_valuation(sp) is None


def test_antipodal_valuation_rejects_odd_order():
    with pytest.raises(ValueError):
        antipodal_pst_by_valuation(eigenvalues_closed_form(validate_spec(9, [3], [], {})))


def test_quarter_orbit_valuation_frozen_values():
    assert mst_by_valuation(eigenvalues_closed_form(mst_example_graph())) is True
    assert mst_by_valuation(eigenvalues_closed_form(validate_spec(8, [4], [], {}))) is False
    assert mst_by_valuation(eigenvalues_closed_form(pst_case_ii_graph())) is False
    with pytest.raises(ValueError):
        mst_by_valuation(eigenvalues_closed_form(validate_spec(6, [3], [], {})))


def test_valuation_verdicts_ignore_arc_orientation():
    # flipping any sigma value changes eigenvalues but not the verdicts
    for n in (8, 12, 16):
        groups = {}
        for spec in enumerate_specs(n):
            sp = eigenvalues_closed_form(spec)
            key = (tuple(sorted(spec.B)), tuple(sorted(spec.D)))
            verdict = (antipodal_pst_by_valuation(sp), mst_by_valuation(sp))
            groups.setdefault(key, set()).add(verdict)
        assert all(len(v) == 1 for v in groups.values())


# ----------------------------------------------------------------- classifiers

def test_classifier_case_tags():
    assert classify_pst(pst_case_i_graph()) == "i"
    assert classify_pst(pst_case_ii_graph()) == "ii"
    assert classify_pst(pst_case_iii_graph()) == "iii"
    assert classify_pst(two_arc_layer_graph()) is None
    assert classify_pst(validate_spec(8, [2, 4], [], {})) is None
    assert classify_pst(validate_spec(6, [3], [], {})) is None


def test_quarter_orbit_classifier_frozen_values():
    assert classify_mst(mst_example_graph()) is True
    # n/8 = 1 is an undirected class here, which also completes the orbit
    # (test_pair_restriction_frozen_values: 0 transfers to 2, 4 and 6); the
    # sufficient-only condition demands arcs at depth three and misses it
    assert classify_mst(pst_case_i_graph()) is True
    assert mst_sufficient_condition(pst_case_i_graph()) is False
    assert mst_sufficient_condition(mst_example_graph()) is True
    assert classify_mst(pst_case_iii_graph()) is False  # n/2 sits in B
    assert classify_mst(validate_spec(4, [], [1], {1: 1})) is False


def test_sufficient_condition_implies_classifier():
    # divisor-level only: every shape of every order up to 64, as matrix rows
    implied = 0
    for n in range(2, 65):
        shapes = order_shapes(n)
        sufficient = mst_sufficient_rows(n, shapes.B, shapes.D)
        assert classify_mst_rows(n, shapes.B, shapes.D)[sufficient].all(), n
        implied += int(sufficient.sum())
    assert implied > 0


def reference_classify_pst(spec):
    """The antipodal divisor-set test as one scalar pass over the spec's
    divisor layers: the reference for classify_pst_rows."""
    n = spec.n
    if n % 4:
        return None
    if not spec.scaled_chain(2):
        return None
    half, quarter = n // 2, n // 4
    d2 = spec.d_layer(2)
    if d2 == frozenset({quarter}):
        return "i" if half not in spec.B else None
    if d2:
        return None
    has_half = half in spec.B
    has_quarter = quarter in spec.B
    if has_half and has_quarter:
        if n % 8 == 0 and spec.d_layer(3) == frozenset({n // 8}) and spec.scaled_chain(3):
            return "iii"
        return None
    if has_half or has_quarter:
        return "ii"
    return None


def reference_quarter_orbit_shared(spec):
    """Whether the conditions shared by both quarter-orbit references hold."""
    n = spec.n
    if n % 8 or n // 2 in spec.B:
        return False
    return spec.scaled_chain(3) and spec.d_layer(2) == frozenset({n // 4})


def reference_classify_mst(spec):
    """Scalar reference for classify_mst_rows."""
    eighth = spec.n // 8
    return (
        reference_quarter_orbit_shared(spec)
        and spec.d_layer(3) <= {eighth}
        and eighth in spec.B | spec.D
    )


def reference_mst_sufficient_condition(spec):
    """Scalar reference for mst_sufficient_rows."""
    return reference_quarter_orbit_shared(spec) and spec.d_layer(3) == frozenset({spec.n // 8})


def row_classifier_disagreements(orders):
    """Shapes of the given orders on which a row classifier differs from its
    scalar reference, and the number of shapes compared.  The membership
    matrices are built here from the reference tuples, apart from harness."""
    bad, checked = [], 0
    for n in orders:
        tuples = list(reference_shapes(n))
        cols = divisors(n)[:-1]
        B, D = (
            np.array([[d in s for d in cols] for s in sets], dtype=bool).reshape(-1, len(cols))
            for sets in zip(*tuples)
        )
        rows = zip(
            classify_pst_rows(n, B, D).tolist(),
            classify_mst_rows(n, B, D).tolist(),
            mst_sufficient_rows(n, B, D).tolist(),
        )
        for (b, d), (pst, mst, sufficient) in zip(tuples, rows):
            spec = validate_spec(n, b, d, dict.fromkeys(d, 1))
            ref = (
                reference_classify_pst(spec),
                reference_classify_mst(spec),
                reference_mst_sufficient_condition(spec),
            )
            if (PST_CASES[pst], mst, sufficient) != ref:
                bad.append((n, b, d))
        checked += len(tuples)
    return bad, checked


def test_row_classifiers_equal_scalar_references():
    # every shape of every order up to 64, multiples of 4 and the rest
    bad, checked = row_classifier_disagreements(range(2, 65))
    assert bad == []
    assert checked > sum(1 for n in range(4, 65, 4) for _ in reference_shapes(n))


def test_special_case_criteria_frozen_values():
    assert undirected_pst_criterion(validate_spec(8, [4], [], {})) is True
    assert undirected_pst_criterion(validate_spec(8, [2], [], {})) is True
    # both distinguished divisors present: the general classifier routes
    # this to the deep-arc case, which an undirected graph cannot satisfy
    assert undirected_pst_criterion(validate_spec(8, [2, 4], [], {})) is False
    assert undirected_pst_criterion(validate_spec(6, [1], [], {})) is False
    with pytest.raises(ValueError):
        undirected_pst_criterion(pst_case_i_graph())

    assert oriented_pst_criterion(validate_spec(8, [], [2], {2: 1})) is True
    assert oriented_pst_criterion(validate_spec(8, [], [1], {1: 1})) is False
    assert oriented_pst_criterion(validate_spec(16, [], [4], {4: -1})) is True
    with pytest.raises(ValueError):
        oriented_pst_criterion(validate_spec(8, [4], [], {}))


# ----------------------------------------------------------------- feasibility

def test_feasible_pair_frozen_values():
    sp = eigenvalues_closed_form(pst_case_i_graph())
    assert pst_feasible_pair(sp, 0, 4) == Fraction(1, 4)
    assert pst_feasible_pair(sp, 0, 2) == Fraction(3, 8)

    sp16 = eigenvalues_closed_form(mst_example_graph())
    assert pst_feasible_pair(sp16, 0, 4) == Fraction(1, 8)
    assert pst_feasible_pair(sp16, 0, 8) == Fraction(1, 4)
    assert pst_feasible_pair(sp16, 0, 12) == Fraction(3, 8)


def test_feasible_pair_rejects_identical_vertices():
    sp = eigenvalues_closed_form(pst_case_i_graph())
    with pytest.raises(SamePair):
        pst_feasible_pair(sp, 3, 3)
    with pytest.raises(SamePair):
        pst_feasible_pair(sp, 0, 8)  # same vertex mod n


def test_feasible_pair_none_cases():
    # repeated-eigenvalue graph: no pair admits a witness
    sp = eigenvalues_closed_form(validate_spec(8, [2, 4], [], {}))
    for b in range(1, 8):
        assert pst_feasible_pair(sp, 0, b) is None
    # constant gaps force all-zero gaps around the cycle
    assert pst_feasible_pair(Spectrum(n=4, gamma=(2, 2, 2, 2)), 0, 2) is None


def test_feasible_pair_agrees_with_grid_scan():
    for spec in all_specs(range(2, 17)):
        n = spec.n
        sp = eigenvalues_closed_form(spec)
        for b in range(1, n):
            assert pst_feasible_pair(sp, 0, b) == grid_feasible(sp, 0, b)


def test_feasible_pair_agrees_with_divisor_loop():
    feasible = 0
    for spec in all_specs(range(2, 33)):
        sp = eigenvalues_closed_form(spec)
        for b in range(1, spec.n):
            t = pst_feasible_pair(sp, 0, b)
            assert t == divisor_loop_feasible(sp, 0, b), (spec, b)
            feasible += t is not None
    assert feasible > 0


def test_feasible_pair_depends_only_on_difference():
    sp = eigenvalues_closed_form(mst_example_graph())
    base = pst_feasible_pair(sp, 0, 4)
    for a in range(1, 16):
        assert pst_feasible_pair(sp, a, (a + 4) % 16) == base


def test_minimal_time_frozen_values():
    assert minimal_pst_time(
        eigenvalues_closed_form(validate_spec(8, [4], [], {})), 0, 4
    ) == Fraction(1, 4)
    assert minimal_pst_time(
        eigenvalues_closed_form(pst_case_iii_graph()), 0, 4
    ) == Fraction(1, 8)
    # minimal two-point example with gaps +2/-2 around the cycle
    assert minimal_pst_time(Spectrum(n=2, gamma=(0, 2)), 0, 1) == Fraction(1, 4)


def test_minimal_time_raises_when_absent():
    sp = eigenvalues_closed_form(validate_spec(8, [1], [], {}))
    with pytest.raises(NotFeasible):
        minimal_pst_time(sp, 0, 4)


def test_valuation_time_consistency():
    # a constant gap valuation m pins the antipodal witness to 1/2^(m+1)
    for spec in all_specs(range(2, 17)):
        n = spec.n
        if n % 2:
            continue
        sp = eigenvalues_closed_form(spec)
        m = antipodal_pst_by_valuation(sp)
        if m is None:
            continue
        assert minimal_pst_time(sp, 0, n // 2) == Fraction(1, 2 ** (m + 1))


# ------------------------------------------------------------- verification

def test_verify_numeric_at_witnesses():
    sp = eigenvalues_closed_form(mst_example_graph())
    for b in (4, 8, 12):
        ok, phase, residual = verify_numeric(sp, 0, b, minimal_pst_time(sp, 0, b))
        assert ok and residual < 1e-9
        assert abs(abs(phase) - 1) < 1e-12


def test_verify_numeric_fails_off_witness():
    sp = eigenvalues_closed_form(pst_case_i_graph())
    ok, _, residual = verify_numeric(sp, 0, 4, Fraction(1, 3))
    assert not ok and residual > 1e-3


def test_non_transfer_graph_stays_below_one():
    # dense grid scan: the octagon's antipodal amplitude never approaches 1
    sp = eigenvalues_closed_form(validate_spec(8, [1], [], {}))
    worst = max(abs(transition_amplitude(sp, 0, 4, k / 1000)) for k in range(1000))
    assert worst < 1 - 1e-3


def test_amplitudes_shift_invariant():
    sp = eigenvalues_closed_form(pst_case_i_graph())
    t = Fraction(1, 4)
    base = transition_amplitude(sp, 0, 4, t)
    for b in range(1, 8):
        assert transition_amplitude(sp, b, (b + 4) % 8, t) == pytest.approx(base)


def scalar_verify(gamma, a, b, t_prime):
    """Reference numeric check, one row at a time: the amplitude of one
    spectrum at one time as a Python complex, its modulus by Python's abs;
    (ok, residual)."""
    n = len(gamma)
    r = np.arange(n, dtype=float)
    phases = np.array(gamma, dtype=float) * float(t_prime) + r * ((a - b) % n) / n
    amp = complex(np.exp(2j * np.pi * phases).sum() / n)
    residual = abs(1.0 - abs(amp))
    return residual < 1e-9, residual


def swept_checks(monkeypatch, mode, step, quarters):
    """The sweep's verify_rows calls over 4 | n <= 48 (pst) or 8 | n <= 48
    (mst), each pinned to the rows the loop profile finds a witness for:
    one call per chunk holding such a row, none for the others, with those
    rows' values at the index classes' reps, the floats of their Fraction
    witnesses, the targets and the order's class weights.  Yields the
    targets, the call's arguments and result, and per witnessed row its
    class values, its whole spectrum and its witnesses."""
    import mixedcirc.transfer

    calls = []

    def recording(gammas, times, diffs, weights=None):
        result = verify_rows(gammas, times, diffs, weights)
        calls.append(((gammas, times, diffs, weights), result))
        return result

    monkeypatch.setattr(mixedcirc.transfer, "verify_rows", recording)
    for n in range(step, 49, step):
        targets, classes = [k * n // 4 for k in quarters], index_classes(n)
        weights = _class_weights(classes, targets)
        for _, _, values, _ in _judged_chunks(order_shapes(n), mode):
            gammas, witnessed = values[:, classes.of], []
            d0, gcds, _, _ = _gap_columns(gammas)
            columns = values.tolist(), gammas.tolist(), d0.tolist(), gcds.tolist()
            for row, gamma, d, g in zip(*columns):
                times = [loop_witness(n, d, g, b) for b in targets]
                if all(t is not None for t in times):
                    witnessed.append((row, gamma, times))
            if not witnessed:
                assert calls == [], n
                continue
            [(args, result)] = calls
            calls.clear()
            got, got_times, diffs, got_weights = args
            assert diffs == targets and (got_weights == weights).all(), n
            assert np.asarray(got).tolist() == [row for row, _, _ in witnessed], n
            floats = [[float(t) for t in times] for _, _, times in witnessed]
            assert np.asarray(got_times).tolist() == floats, n
            yield targets, args, result, witnessed


@SWEEP_MODES
def test_chunk_verification_equals_the_per_row_route(monkeypatch, mode, step, quarters):
    # every sweep row with a witness for every target goes through its
    # chunk's one verify_rows call on its class values, and gets the ok
    # flag, amplitude and residual, bit for bit, of the same class sum run
    # on that row alone
    rows = 0
    for _, (got, times, diffs, weights), checked, witnessed in swept_checks(
        monkeypatch, mode, step, quarters
    ):
        for i in range(len(witnessed)):
            alone = verify_rows(got[i : i + 1], times[i : i + 1], diffs, weights)
            for whole, one in zip(checked, alone):  # ok, amplitude, residual
                assert whole[i].tobytes() == one[0].tobytes(), got[i].tolist()
        rows += len(witnessed)
    assert rows == {"pst": 2806, "mst": 342}[mode]  # the sweep's positive counts


@SWEEP_MODES
def test_class_sum_check_equals_the_whole_row_check(monkeypatch, mode, step, quarters):
    # on every witnessed sweep row the class sum's ok flag is that of the
    # n-term sum over the whole spectrum, one row and one time at a time,
    # and the residuals differ by at most 1e-12
    worst, checks = 0.0, swept_checks(monkeypatch, mode, step, quarters)
    for targets, _, (ok, _, residuals), witnessed in checks:
        for i, (_, gamma, times) in enumerate(witnessed):
            for j, (b, t) in enumerate(zip(targets, times)):
                ref_ok, ref_residual = scalar_verify(gamma, 0, b, t)
                assert ok[i, j] == ref_ok, (gamma, b)
                worst = max(worst, abs(residuals[i, j] - ref_residual))
    assert worst <= 1e-12


def test_class_weights_equal_the_brute_class_sums():
    # every 4 | n <= 240, and 720 and 1024: the kernel table at every w in
    # 0..n-1 is the sum of exp(-2*pi*i*r*w/n) over the members r of each
    # index class, taken term by term
    entries = 0
    for n in [*range(4, 241, 4), 720, 1024]:
        classes = index_classes(n)
        r = np.arange(n)
        terms = np.exp(-2j * np.pi * (np.outer(r, r) % n) / n)
        brute = terms @ (classes.of[:, None] == np.arange(len(classes.reps)))
        table = n * _class_weights(classes, list(range(n)))
        assert np.abs(table - brute).max() <= 1e-9, n
        entries += table.size
    assert entries > 160_000


def test_class_weights_call_each_kernel_once_per_modulus_and_difference(monkeypatch):
    # the half classes of one gcd share m = n/g, and so do the targets that
    # agree modulo n: each kernel sees each (m, w) once, c_m at every
    # divisor m of n and s_m where 4 | m
    import mixedcirc.transfer

    for n, diffs in ((96, [24, 48, 72, 120]), (720, [180, 360, 540]), (240, [120])):
        classes = index_classes(n)
        calls = {"cos": [], "sin": []}
        for name, key in (("ramanujan_sum", "cos"), ("ramanujan_sine_sum", "sin")):
            real = getattr(mixedcirc.transfer, name)

            def counting(m, q, real=real, key=key):
                calls[key].append((m, q))
                return real(m, q)

            monkeypatch.setattr(mixedcirc.transfer, name, counting)
        _class_weights(classes, diffs)
        monkeypatch.undo()
        qs = {w % n for w in diffs}
        assert sorted(calls["cos"]) == sorted((m, q) for m in divisors(n) for q in qs), n
        assert sorted(calls["sin"]) == sorted(
            (m, q) for m in divisors(n) if m % 4 == 0 for q in qs
        ), n


# --------------------------------------------------------- pair restriction

def test_pair_restriction_frozen_values():
    # note: the case-i graph has transfer to BOTH quarter vertices as well as
    # the antipodal one (0 -> 2 at 3/8 with every phase landing on -1), so its
    # feasible set is the full quarter triple, not just the antipode
    assert pair_restriction_check(
        eigenvalues_closed_form(pst_case_i_graph())
    ) == {2, 4, 6}
    assert pair_restriction_check(
        eigenvalues_closed_form(pst_case_ii_graph())
    ) == {4}
    assert pair_restriction_check(
        eigenvalues_closed_form(pst_case_iii_graph())
    ) == {4}
    assert pair_restriction_check(
        eigenvalues_closed_form(mst_example_graph())
    ) == {4, 8, 12}
    with pytest.raises(ValueError):
        pair_restriction_check(eigenvalues_closed_form(validate_spec(6, [3], [], {})))


def test_pair_restriction_holds_on_every_sweep_row():
    # every spec with 4 | n <= 64, as the sweep's chunks hold them: the
    # feasible differences are the multiples of _step, so the restriction to
    # {n/4, n/2, 3n/4} is a step of n/4, n/2, or n where none is feasible
    rows, seen = 0, set()
    for n in range(4, 65, 4):
        of = index_classes(n).of
        for _, _, values, _ in _judged_chunks(order_shapes(n), "pst"):
            gammas = values[:, of]
            d0, gcds, _, _ = _gap_columns(gammas)
            ratio = n // _step(n, d0, gcds)
            outside = ~np.isin(ratio, (1, 2, 4))
            assert not outside.any(), (n, gammas[outside][:1].tolist())
            seen.update(ratio.tolist())
            rows += len(gammas)
    assert rows == sum(count_specs(n) for n in range(4, 65, 4))
    assert seen == {1, 2, 4}


# -------------------------------------------------------------- verdict API

def test_antipodal_verdict_positive():
    v = antipodal_verdict(pst_case_ii_graph())
    assert v.kind == "antipodal_pst"
    assert v.pair == (0, 4)
    assert v.m == 1
    assert v.t_prime == Fraction(1, 4)
    assert abs(abs(v.phase) - 1) < 1e-12
    assert v.residual < 1e-9


def test_antipodal_verdict_negative_and_degenerate():
    assert antipodal_verdict(validate_spec(8, [1], [], {})).kind == "none"
    assert antipodal_verdict(validate_spec(9, [3], [], {})).kind == "none"
    assert antipodal_verdict(validate_spec(8, [], [], {})).kind == "none"


def test_pair_verdict_quarter_kind():
    v = pair_verdict(pst_case_i_graph(), 0, 2)
    assert v.kind == "quarter_pst"
    assert v.t_prime == Fraction(3, 8)
    with pytest.raises(ValueError):
        pair_verdict(pst_case_i_graph(), 0, 9)


def test_mst_verdict_fields():
    v = mst_verdict(mst_example_graph())
    assert v.kind == "mst"
    assert v.pair == (0, 4, 8, 12)
    assert v.m == 1
    assert v.t_prime == Fraction(1, 8)
    assert v.residual < 1e-9

    assert mst_verdict(pst_case_ii_graph()).kind == "none"
    assert mst_verdict(validate_spec(6, [3], [], {})).kind == "none"


def reference_verdict(gamma, ref, targets, kind):
    """(kind, m, t', residual hex) of a verdict on transfer from 0 around
    targets, from the loop profile's witnesses and scalar_verify: t' is the
    first target's witness, the residual the worst; ("none", ...) when a
    target has no witness."""
    times = [ref.witness(b) for b in targets]
    if None in times:
        return "none", None, None, None
    checks = [scalar_verify(gamma, 0, b, t) for b, t in zip(targets, times)]
    assert all(ok for ok, _ in checks), (gamma, targets)
    return kind, ref.common_valuation(), times[0], max(r for _, r in checks).hex()


def verdict_fields(v):
    return v.kind, v.m, v.t_prime, None if v.residual is None else v.residual.hex()


def test_one_row_routes_equal_the_loop_references():
    # every spec with 4 | n <= 24: pair_restriction_check is the set of
    # differences the loop solve finds a witness for, and each verdict's
    # kind, m, t' and residual (bit for bit) are the references'
    kinds = set()
    for spec in all_specs(range(4, 25, 4)):
        n, sp = spec.n, eigenvalues_closed_form(spec)
        ref = loop_difference_profile(sp.gamma)
        feasible = {w for w in range(1, n) if ref.witness(w) is not None}
        assert pair_restriction_check(sp) == feasible, spec
        quarters = [n // 4, n // 2, 3 * n // 4]
        expected = reference_verdict(sp.gamma, ref, quarters, "mst")
        if not ref.quarter_orbit():
            expected = "none", None, None, None
        verdicts = [(mst_verdict(spec), expected)]
        for b in quarters:
            kind = "antipodal_pst" if b == n // 2 else "quarter_pst"
            verdicts.append((pair_verdict(spec, 0, b), reference_verdict(sp.gamma, ref, [b], kind)))
        verdicts.append((antipodal_verdict(spec), verdicts[2][1]))  # as pair (0, n/2)
        for v, expected in verdicts:
            assert verdict_fields(v) == expected, (spec, v.pair)
            kinds.add(v.kind)
    assert kinds == {"none", "antipodal_pst", "quarter_pst", "mst"}


def test_mst_verdict_reads_the_first_phase_and_the_worst_residual(monkeypatch):
    # real witnesses check with residual 0.0 at every order tried, so a
    # stand-in check fixes distinct amplitudes and residuals per target
    import mixedcirc.transfer

    def passing(gammas, times, diffs, weights=None):
        shape = np.shape(times)
        amps = np.broadcast_to(np.array([1j, -1, 1]), shape)
        residuals = np.broadcast_to(np.array([1e-12, 3e-12, 2e-12]), shape)
        return np.ones(shape, dtype=bool), amps, residuals

    monkeypatch.setattr(mixedcirc.transfer, "verify_rows", passing)
    v = mst_verdict(mst_example_graph())
    assert (v.kind, v.t_prime, v.phase, v.residual) == ("mst", Fraction(1, 8), 1j, 3e-12)


@pytest.mark.parametrize(
    "decide",
    [
        lambda: antipodal_verdict(pst_case_i_graph()),
        lambda: pair_verdict(mst_example_graph(), 0, 4),
        lambda: mst_verdict(mst_example_graph()),
    ],
    ids=["antipodal_verdict", "pair_verdict", "mst_verdict"],
)
def test_failed_witness_check_is_a_consistency_error(monkeypatch, decide):
    # an exact witness whose amplitude misses 1 is a bug in a decider, so the
    # verdicts raise instead of reporting either answer
    import mixedcirc.transfer

    monkeypatch.setattr(mixedcirc.transfer, "verify_rows", failing_verify_rows)
    with pytest.raises(ConsistencyError):
        decide()
    # no witness, nothing to check: these stay "none"
    assert antipodal_verdict(validate_spec(8, [1], [], {})).kind == "none"
    assert mst_verdict(pst_case_ii_graph()).kind == "none"


# ------------------------------------------------- one gap profile per spectrum

@pytest.fixture
def kernel_rows(monkeypatch):
    """Count the rows the gap kernel reads, which only transfer calls: those
    _potentials profiles, one per spectrum whether it comes alone or in a
    chunk matrix, and those _gap_gcds folds the exact gap gcd over."""
    import mixedcirc.transfer

    real_potentials, real_fold = mixedcirc.transfer._potentials, mixedcirc.transfer._gap_gcds
    rows = {"profiled": [], "folded": []}

    def potentials(values, *classes):
        rows["profiled"].append(len(values))
        return real_potentials(values, *classes)

    def fold(d0, potential, cycle):
        rows["folded"].append(len(d0))
        return real_fold(d0, potential, cycle)

    monkeypatch.setattr(mixedcirc.transfer, "_potentials", potentials)
    monkeypatch.setattr(mixedcirc.transfer, "_gap_gcds", fold)
    return rows


def test_pair_restriction_builds_one_profile(kernel_rows):
    sp = eigenvalues_closed_form(mst_example_graph())
    assert pair_restriction_check(sp) == {4, 8, 12}
    assert kernel_rows == {"profiled": [1], "folded": [1]}


def test_verdicts_build_one_profile(kernel_rows):
    # a whole row folds its exact gap gcd, feasible or not
    for decide, spec, kind in (
        (mst_verdict, mst_example_graph(), "mst"),
        (mst_verdict, pst_case_ii_graph(), "none"),
        (antipodal_verdict, pst_case_ii_graph(), "antipodal_pst"),
        (antipodal_verdict, validate_spec(8, [1], [], {}), "none"),
    ):
        for calls in kernel_rows.values():
            calls.clear()
        assert decide(spec).kind == kind
        assert kernel_rows == {"profiled": [1], "folded": [1]}, (decide.__name__, spec)


@pytest.mark.parametrize("mode", ["pst", "mst"])
def test_crosscheck_builds_one_profile_per_spec(kernel_rows, mode):
    # every spec is profiled once; the exact gap gcd is folded only over the
    # feasible rows, which in a clean sweep are the transfer-positive specs
    report = crosscheck(16, mode)
    positive = getattr(report, f"{mode}_positive")
    assert report.specs_checked > 0 and report.mismatches == []
    assert sum(kernel_rows["profiled"]) == report.specs_checked
    assert 0 < sum(kernel_rows["folded"]) == positive < report.specs_checked
