"""Transfer deciders: amplitudes, valuations, classifiers, feasibility."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    all_specs,
    mst_example_graph,
    pst_case_i_graph,
    pst_case_ii_graph,
    pst_case_iii_graph,
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
    difference_profile,
    eigenvalues_closed_form,
    enumerate_specs,
    gap_profiles,
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
from mixedcirc.numthy import divisors


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
        g = self.gap_gcd
        if g == 0:
            return None
        n = len(self.deltas)
        d0 = self.deltas[0]
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


def assert_profiles_agree(prof, ref, label):
    n = len(ref.deltas)
    assert prof.n == n, label
    assert prof.d0 == ref.deltas[0], label
    assert prof.gap_gcd == ref.gap_gcd, label
    assert prof.m == ref.common_valuation(), label
    assert prof.quarter is ref.quarter_orbit(), label
    for w in range(1, n):
        assert prof.witness(w) == ref.witness(w), (label, w)


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


# ------------------------------------------------------- difference profiles

def test_profile_flags_zero_gaps():
    # every gap zero: no gap gcd, no common valuation, off the quarter orbit
    prof = difference_profile(Spectrum(n=4, gamma=(5, 5, 5, 5)))
    assert (prof.d0, prof.gap_gcd, prof.m, prof.quarter) == (0, 0, None, False)
    # some gaps zero (gaps -4, 0, 0, 4 repeated): a gap gcd but no valuation
    prof = difference_profile(eigenvalues_closed_form(validate_spec(8, [2, 4], [], {})))
    assert (prof.d0, prof.gap_gcd, prof.m, prof.quarter) == (-4, 4, None, False)


def test_profile_frozen_values():
    prof = difference_profile(eigenvalues_closed_form(validate_spec(8, [4], [], {})))
    assert (prof.n, prof.d0, prof.gap_gcd, prof.m, prof.quarter) == (8, -2, 4, 1, False)

    prof = difference_profile(Spectrum(n=4, gamma=(0, 1, 0, 1)))
    assert (prof.n, prof.d0, prof.gap_gcd, prof.m, prof.quarter) == (4, 1, 2, 0, False)


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
        assert difference_profile(eigenvalues_closed_form(spec)).gap_gcd == g, spec
    assert difference_profile(Spectrum(n=2, gamma=(0, 2))).gap_gcd == 4
    assert difference_profile(Spectrum(n=4, gamma=(5, 5, 5, 5))).gap_gcd == 0


def test_kernel_equals_loop_reference():
    # every spec with n <= 40, one stacked matrix per order through the
    # kernel, every field and every witness against the one-pass loop
    checked = quarter = common = 0
    for n in range(2, 41):
        spectra = [eigenvalues_closed_form(spec).gamma for spec in enumerate_specs(n)]
        profiles = gap_profiles(np.array(spectra, dtype=np.int64))
        assert len(profiles) == len(spectra)
        for gamma, prof in zip(spectra, profiles):
            assert_profiles_agree(prof, loop_difference_profile(gamma), gamma)
            checked += 1
            quarter += prof.quarter
            common += prof.m is not None
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
    single = difference_profile(Spectrum(len(gamma), gamma))
    assert_profiles_agree(single, ref, gamma)
    (prof,) = gap_profiles(np.array([gamma]))
    assert_profiles_agree(prof, ref, gamma)
    # profiles are values: equal fields mean equal profiles and equal hashes
    assert prof == single
    assert hash(prof) == hash(single)


def test_kernel_profiles_keep_their_own_rows():
    # a later write to the caller's matrix must not change a profile
    gammas = np.array([[0, 2, 0, 2]], dtype=np.int64)
    (prof,) = gap_profiles(gammas)
    before = difference_profile(Spectrum(4, (0, 2, 0, 2)))
    gammas[0, 1] = 5
    assert prof == before
    assert (prof.d0, prof.gap_gcd) == (2, 4)


def test_kernel_refuses_what_int64_cannot_hold():
    # a float spectrum would be truncated by an int64 cast
    with pytest.raises(ValueError):
        difference_profile(Spectrum(2, (0.5, 1)))
    with pytest.raises(ValueError):
        gap_profiles(np.array([[0.0, 2.0]]))
    with pytest.raises(ValueError):
        gap_profiles(np.array([[True, False]]))
    # gaps of 2**62 would wrap: the exact gap gcd here is 2**63
    with pytest.raises(ValueError):
        difference_profile(Spectrum(4, (0, 2**62, 0, -(2**62))))
    with pytest.raises(ValueError):
        difference_profile(Spectrum(2, (0, 2**60)))
    with pytest.raises(ValueError):
        difference_profile(Spectrum(2, (-(2**60), 0)))
    with pytest.raises(ValueError):
        difference_profile(Spectrum(2, (0, 2**64)))
    with pytest.raises(ValueError):
        gap_profiles(np.array([[0, 2**63]], dtype=np.uint64))
    # only a (k, n) matrix with n >= 1 has cyclic gaps
    with pytest.raises(ValueError):
        gap_profiles(np.array([0, 2]))
    with pytest.raises(ValueError):
        gap_profiles(np.zeros((1, 0), dtype=np.int64))
    assert gap_profiles(np.zeros((0, 4), dtype=np.int64)) == []


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
    # divisor-level only: no spectra, so every order up to 64 is cheap
    implied = 0
    for spec in all_specs(range(2, 65)):
        if mst_sufficient_condition(spec):
            assert classify_mst(spec), spec
            implied += 1
    assert implied > 0


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

    monkeypatch.setattr(
        mixedcirc.transfer, "verify_numeric", lambda *args: (False, 1 + 0j, 0.5)
    )
    with pytest.raises(ConsistencyError):
        decide()
    # no witness, nothing to check: these stay "none"
    assert antipodal_verdict(validate_spec(8, [1], [], {})).kind == "none"
    assert mst_verdict(pst_case_ii_graph()).kind == "none"


# ------------------------------------------------- one gap profile per spectrum

@pytest.fixture
def profile_calls(monkeypatch):
    """Count the rows profiled by gap_profiles through transfer and harness:
    one per spectrum, whether it comes alone or in a chunk matrix."""
    import mixedcirc.harness
    import mixedcirc.transfer

    real = mixedcirc.transfer.gap_profiles
    calls = []

    def counting(gammas):
        calls.extend(len(row) for row in gammas)
        return real(gammas)

    monkeypatch.setattr(mixedcirc.transfer, "gap_profiles", counting)
    monkeypatch.setattr(mixedcirc.harness, "gap_profiles", counting)
    return calls


def test_pair_restriction_builds_one_profile(profile_calls):
    sp = eigenvalues_closed_form(mst_example_graph())
    assert pair_restriction_check(sp) == {4, 8, 12}
    assert len(profile_calls) == 1


def test_verdicts_build_one_profile(profile_calls):
    for decide, spec, kind in (
        (mst_verdict, mst_example_graph(), "mst"),
        (mst_verdict, pst_case_ii_graph(), "none"),
        (antipodal_verdict, pst_case_ii_graph(), "antipodal_pst"),
        (antipodal_verdict, validate_spec(8, [1], [], {}), "none"),
    ):
        profile_calls.clear()
        assert decide(spec).kind == kind
        assert len(profile_calls) == 1, (decide.__name__, spec)


@pytest.mark.parametrize("mode", ["pst", "mst"])
def test_crosscheck_builds_one_profile_per_spec(profile_calls, mode):
    report = crosscheck(16, mode)
    assert report.specs_checked > 0
    assert len(profile_calls) == report.specs_checked
