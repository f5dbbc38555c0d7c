"""Spectra: frozen eigenvalue tuples, route agreement, auxiliary terms."""

import hashlib
import math
import random

import numpy as np
import pytest

import mixedcirc.harness
from conftest import (
    all_specs,
    mst_example_graph,
    pst_case_i_graph,
    pst_case_ii_graph,
    pst_case_iii_graph,
    two_arc_layer_graph,
)
from mixedcirc import (
    HypothesesNotMet,
    NonIntegerResidual,
    Spectrum,
    WrongResidueClass,
    classify_pst,
    delta,
    eigenvalues_by_class,
    eigenvalues_closed_form,
    eigenvalues_oracle,
    enumerate_specs,
    lambda1,
    lambda2,
    lambda3,
    reduced_eigenvalues,
    spectrum_of,
    undirected_degree,
    validate_spec,
)
from mixedcirc.circulant import hermitian_adjacency, index_classes
from mixedcirc.harness import _class_table, _pools
from mixedcirc.numthy import divisors
from mixedcirc.spectrum import _oracle_spectra


def scaled(s, k):
    return frozenset(k * d for d in s)


# ------------------------------------------------------------ frozen spectra

def test_frozen_spectra():
    assert eigenvalues_closed_form(validate_spec(8, [4], [], {})).gamma == (
        1, -1, 1, -1, 1, -1, 1, -1,
    )
    assert eigenvalues_closed_form(two_arc_layer_graph()).gamma == (
        1, 1, -3, -3, 1, 1, 5, -3,
    )
    assert eigenvalues_closed_form(pst_case_i_graph()).gamma == (
        4, 2, 0, -2, -4, 2, 0, -2,
    )
    assert eigenvalues_closed_form(pst_case_ii_graph()).gamma == (
        2, 0, -6, 0, 2, 0, 2, 0,
    )
    assert eigenvalues_closed_form(pst_case_iii_graph()).gamma == (
        3, -1, 3, -1, 3, -1, -5, -1,
    )
    assert eigenvalues_closed_form(mst_example_graph()).gamma == (
        8, 2, -4, -2, 0, 2, 4, -2, -8, 2, -4, -2, 0, 2, 4, -2,
    )


def test_spectrum_container_checks_length():
    with pytest.raises(ValueError):
        Spectrum(n=3, gamma=(1, 2))
    Spectrum(n=2, gamma=(1, -1))  # a matching length is accepted


@pytest.mark.parametrize("bad", [True, 2.0, 2.5], ids=repr)
def test_spectrum_container_refuses_bools_and_floats(bad):
    # the integer rule holds before any reader sees the entries: an int64
    # cast would turn True into 1 and 2.0 into 2
    with pytest.raises(ValueError):
        Spectrum(n=2, gamma=(0, bad))
    with pytest.raises(ValueError):
        Spectrum(n=2, gamma=(bad, 1))
    # and so does the order, even where the length would match it
    with pytest.raises(ValueError):
        Spectrum(n=bad, gamma=tuple(range(int(bad))))


@pytest.mark.parametrize("n", [0, -1, -4])
def test_spectrum_container_refuses_orders_below_one(n):
    # an empty spectrum has no gaps and no 1/n: refused before any reader
    with pytest.raises(ValueError, match="order"):
        Spectrum(n=n, gamma=())


def test_spectrum_of_is_the_closed_form():
    spec = pst_case_ii_graph()
    assert spectrum_of(spec).gamma == eigenvalues_closed_form(spec).gamma


# -------------------------------------------------------- global invariants

def test_degree_and_trace_everywhere():
    for spec in all_specs(range(2, 17)):
        sp = eigenvalues_closed_form(spec)
        row = hermitian_adjacency(spec)
        assert sp.gamma[0] == row.count(1) == undirected_degree(spec)
        assert sum(sp.gamma) == 0


# ------------------------------------------------------------- route accord

def test_three_routes_agree_exhaustively():
    for n in (4, 8, 12, 16):
        for spec in enumerate_specs(n):
            closed = eigenvalues_closed_form(spec).gamma
            by_class = eigenvalues_by_class(spec).gamma
            oracle = eigenvalues_oracle(spec).gamma
            assert closed == by_class == oracle


def test_closed_form_matches_oracle_for_odd_orders():
    for n in (3, 5, 9, 15):
        for spec in enumerate_specs(n):
            closed = eigenvalues_closed_form(spec).gamma
            oracle = eigenvalues_oracle(spec).gamma
            assert closed == oracle


def test_by_class_rejects_odd_orders():
    with pytest.raises(ValueError):
        eigenvalues_by_class(validate_spec(9, [3], [], {}))


def test_routes_agree_on_random_large_specs():
    rng = random.Random(20260815)
    for _ in range(40):
        n = rng.randrange(4, 97)
        proper = [d for d in divisors(n) if d < n]
        b = frozenset(d for d in proper if rng.random() < 0.4)
        d_pool = [d for d in divisors(n // 4) if d not in b] if n % 4 == 0 else []
        d = frozenset(x for x in d_pool if rng.random() < 0.4)
        spec = validate_spec(n, b, d, {x: rng.choice((1, -1)) for x in d})
        closed = eigenvalues_closed_form(spec).gamma
        assert closed == eigenvalues_oracle(spec).gamma
        if n % 2 == 0:
            assert closed == eigenvalues_by_class(spec).gamma


def test_all_routes_agree_at_orders_32_and_64():
    # every spec of order 32, and every order-64 spec with all signs +1
    specs = list(enumerate_specs(32)) + [
        s for s in enumerate_specs(64) if all(v == 1 for v in s.sigma.values())
    ]
    reduced = 0
    for spec in specs:
        closed = eigenvalues_closed_form(spec).gamma
        assert eigenvalues_by_class(spec).gamma == closed
        assert eigenvalues_oracle(spec).gamma == closed
        try:
            assert reduced_eigenvalues(spec).gamma == closed
            reduced += 1
        except HypothesesNotMet:
            pass
    assert len(specs) == 512 + 486 and reduced > 0


def test_closed_form_equals_class_table_on_every_single_class_spec():
    # every order 2..256: each row of the oracle class table (the class
    # G_n(d) of each proper d, then the +1 half class of each d | n/4) is the
    # closed form of that one-class spec, and minus the +1 row is the -1 half
    # class's; the term skips fire at composite orders, the odd-square one on
    # a D term first at n = 36
    checked = 0
    for n in range(2, 257):
        table = _class_table(index_classes(n), *_pools(n)).astype(np.int64).reshape(2, -1, n)
        proper = divisors(n)[:-1]
        for c, d in enumerate(proper):
            specs = [(0, 1, validate_spec(n, [d]))]
            if n % 4 == 0 and (n // 4) % d == 0:
                specs += [(1, s, validate_spec(n, [], [d], {d: s})) for s in (1, -1)]
            for k, s, spec in specs:
                want = tuple((s * table[k, c]).tolist())
                assert eigenvalues_closed_form(spec).gamma == want, spec
                checked += 1
    assert checked == 1770


def test_class_table_rows_are_the_single_class_specs_rows(monkeypatch):
    # every order 2..256: the rows _class_table hands to the oracle are the
    # Hermitian rows of the validated single-class specs (zero where d does
    # not divide n/4), and its spectra are their oracle spectra; the -1 half
    # class's row and spectrum are the +1 half class's negated
    seen = []

    def recording(rows):
        seen.append(rows.copy())
        return _oracle_spectra(rows)

    monkeypatch.setattr(mixedcirc.harness, "_oracle_spectra", recording)
    checked = 0
    for n in range(2, 257):
        table = _class_table(index_classes(n), *_pools(n)).reshape(2, -1, n)
        rows = seen.pop().reshape(2, -1, n)
        for c, d in enumerate(divisors(n)[:-1]):
            specs = [(0, 1, validate_spec(n, [d]))]
            if n % 4 == 0 and (n // 4) % d == 0:
                specs += [(1, s, validate_spec(n, [], [d], {d: s})) for s in (1, -1)]
            else:
                assert not rows[1, c].any() and not table[1, c].any(), (n, d)
            for k, s, spec in specs:
                assert tuple((s * rows[k, c]).tolist()) == hermitian_adjacency(spec), spec
                assert tuple((s * table[k, c]).tolist()) == eigenvalues_oracle(spec).gamma, spec
                checked += 1
    assert checked == 1770


# ------------------------------------------------------------ index classes

def test_class_table_is_constant_on_every_index_class():
    # every order 2..256: each single-class spectrum, so by linearity every
    # spectrum, takes one value on each index class, and there are at most
    # 2*tau(n) classes, each with reps[c] its first member; there and at
    # 720720 and 2**20, cycle = gcd(n, 4) is the gcd of n and every distance
    # between two indices of one class, the step the gap kernel reads
    def cycle_holds(n, classes):
        distances = np.arange(n) - classes.reps[classes.of]
        return classes.cycle == np.gcd.reduce(distances, initial=n) == math.gcd(n, 4)

    counts = {}
    for n in range(2, 257):
        classes = index_classes(n)
        of, reps = classes.of, classes.reps
        table = _class_table(classes, *_pools(n))
        assert (table == table[:, reps][:, of]).all(), n
        assert (of[reps] == np.arange(len(reps))).all(), n
        assert all(of[j] not in of[:j] for j in reps.tolist()), n
        assert len(reps) <= 2 * len(divisors(n)), n
        assert cycle_holds(n, classes), n
        counts[n] = len(reps)
    assert counts[48] == 16
    assert counts[240] == 32
    assert counts[256] == 16  # g = 1..64 split by j/g (mod 4), then g = 128, 256
    for n in (720720, 2**20):
        assert cycle_holds(n, index_classes(n)), n
    # order 1 has no gaps, and one class {0}
    of, reps, cycle, g, turn = index_classes(1)
    assert of.tolist() == [0] and reps.tolist() == [0] and cycle == 1
    assert g.tolist() == [1] and turn.tolist() == [0]


def test_oracle_equals_closed_form_at_large_orders():
    # the CI's spectrum specs, far above every swept order
    for spec in (
        validate_spec(65536, [8192], [16384], {16384: 1}),
        validate_spec(45360, [1, 9, 27, 35, 2835], [4, 45], {4: 1, 45: -1}),
        validate_spec(840, [3, 6, 12, 24], [105, 210], {105: 1, 210: -1}),
    ):
        assert eigenvalues_oracle(spec) == eigenvalues_closed_form(spec), spec.n


def test_oracle_rejects_non_integral_graph():
    # a single unpaired arc on a triangle has non-integer character sums; no
    # spec builds it, so its row is written out
    with pytest.raises(NonIntegerResidual):
        _oracle_spectra(np.array([(0, 1j, -1j)]))


def test_one_non_integral_row_fails_a_batched_oracle_pass():
    # one rounding and one residual check serve a whole stack of rows: the
    # class rows of order 12 pass, and the undirected pair {1, 11}, not a
    # union of divisor classes (gamma_1 = 2*cos(pi/6) = sqrt(3)), placed
    # among them raises NonIntegerResidual naming its row
    n = 12
    rows = [hermitian_adjacency(validate_spec(n, [d])) for d in divisors(n)[:-1]]
    spectra = _oracle_spectra(np.array(rows))
    assert spectra.tolist() == [
        list(eigenvalues_oracle(validate_spec(n, [d])).gamma) for d in divisors(n)[:-1]
    ]
    bad = tuple(1 if c in (1, 11) else 0 for c in range(n))
    with pytest.raises(NonIntegerResidual, match="row 2: gamma"):
        _oracle_spectra(np.array(rows[:2] + [bad] + rows[2:]))


# ----------------------------------------------------------- auxiliary sums

def test_lambda1_vanishes_without_layer_two_arcs():
    spec = pst_case_ii_graph()  # direction layer is at depth 3
    for j in (1, 3, 5, 7):
        assert lambda1(spec, j) == 0


def test_lambda2_frozen_value():
    assert lambda2(mst_example_graph(), 2) == -1


def test_delta_vanishes_without_deep_layers():
    spec = pst_case_ii_graph()  # B = {2}: starred layer 2 empty, no layer 3+
    assert delta(spec, 4) == 0
    assert delta(spec, 0) == 0


def test_lambda3_zero_below_depth_four():
    assert lambda3(pst_case_i_graph(), 4) == 0
    assert lambda3(mst_example_graph(), 4) == 0


# nonzero auxiliary terms over a whole period, frozen before the terms were
# rewritten with the numthy kernels: lambda1 on odd j, lambda2 on
# j = 2 (mod 4), lambda3 and delta on j = 0 (mod 4), each from the least j
AUX_FROZEN = [
    (
        (64, [1, 2], [8], {8: -1}),
        (0,) * 32,
        (1, -1) * 8,
        (6, 0, 0, 0) + (-2, 0, 0, 0) * 3,
        (12, 0, 0, 0) + (-4, 0, 0, 0) * 3,
    ),
    (
        (48, [], [4, 12], {4: 1, 12: -1}),
        (0, -3, 0, 0, 3, 0) * 4,
        (0,) * 12,
        (0,) * 12,
        (0,) * 12,
    ),
    (
        (96, [1, 3, 6], [2, 8, 12], {2: -1, 8: 1, 12: 1}),
        (-1, -2, -1, 1, 2, 1) * 8,
        (-1, 1) * 12,
        (7, 1, -1, 2, 1, 1, -1, -1, 1, -2, -1, -1,
         -5, 1, -1, 2, 1, 1, -1, -1, 1, -2, -1, -1),
        (14, 2, -2, 4, 2, 2, -2, -2, 2, -4, -2, -2,
         -10, 2, -2, 4, 2, 2, -2, -2, 2, -4, -2, -2),
    ),
    (
        (64, [], [1, 2, 4, 16], {1: 1, 2: -1, 4: 1, 16: -1}),
        (1, -1) * 16,
        (0,) * 16,
        (0, -1, 2, 1, -4, -1, -2, 1, 0, -1, 2, 1, 4, -1, -2, 1),
        (0, -2, 4, 2, -8, -2, -4, 2, 0, -2, 4, 2, 8, -2, -4, 2),
    ),
]


@pytest.mark.parametrize("args, l1, l2, l3, dl", AUX_FROZEN)
def test_aux_terms_frozen_values(args, l1, l2, l3, dl):
    spec = validate_spec(*args)
    n = spec.n
    assert tuple(lambda1(spec, j) for j in range(1, n, 2)) == l1
    assert tuple(lambda2(spec, j) for j in range(2, n, 4)) == l2
    assert tuple(lambda3(spec, j) for j in range(0, n, 4)) == l3
    assert tuple(delta(spec, j) for j in range(0, n, 4)) == dl


def test_aux_terms_and_paper_routes_digest_through_order_24():
    # every spec with 4 | n <= 24: each auxiliary term at every j < n of its
    # class, the by-class gammas and the reduced gammas (None where the
    # hypotheses fail), one repr per spec; the sha256 is pinned
    digest = hashlib.sha256()
    count = 0
    for n in range(4, 25, 4):
        for spec in enumerate_specs(n):
            try:
                reduced = reduced_eigenvalues(spec).gamma
            except HypothesesNotMet:
                reduced = None
            digest.update(repr((
                tuple(lambda1(spec, j) for j in range(1, n, 2)),
                tuple(lambda2(spec, j) for j in range(2, n, 4)),
                tuple(lambda3(spec, j) for j in range(0, n, 4)),
                tuple(delta(spec, j) for j in range(0, n, 4)),
                eigenvalues_by_class(spec).gamma,
                reduced,
            )).encode())
            count += 1
    assert count == 2472
    assert digest.hexdigest()[:16] == "dc995e67bef3935c"


@pytest.mark.parametrize("term, j", [(lambda1, 1), (lambda2, 2), (lambda3, 4), (delta, 4)])
@pytest.mark.parametrize("bad", [True, 2.0, 2.5], ids=repr)
def test_aux_terms_refuse_bools_and_floats(term, j, bad):
    # B = {1} has no directed layer, so no kernel would ever see a bad j
    spec = validate_spec(16, [1])
    term(spec, j)
    with pytest.raises(ValueError):
        term(spec, bad)


def test_aux_terms_respect_residue_classes():
    spec = mst_example_graph()
    with pytest.raises(WrongResidueClass):
        lambda1(spec, 2)
    with pytest.raises(WrongResidueClass):
        lambda2(spec, 4)
    with pytest.raises(WrongResidueClass):
        lambda3(spec, 2)
    with pytest.raises(WrongResidueClass):
        delta(spec, 1)


# --------------------------------------------------------------- parity laws

def test_odd_index_parity_iff_layer_chain():
    # constant parity of eigenvalues at odd indices over a full period
    # exactly characterizes B0 = 2*B1star
    for spec in all_specs(range(2, 17)):
        n = spec.n
        g = eigenvalues_closed_form(spec).gamma
        parities = {g[j % n] & 1 for j in range(1, 2 * n, 2)}
        chain = spec.b_layer(0) == scaled(spec.b_star(1), 2)
        assert (len(parities) == 1) == chain


def test_transfer_positive_specs_have_uniform_parity():
    for spec in all_specs(range(2, 17)):
        if classify_pst(spec) is None:
            continue
        g = eigenvalues_closed_form(spec).gamma
        parities = {x & 1 for x in g}
        assert len(parities) == 1
        assert parities == ({1} if spec.n // 2 in spec.B else {0})


def test_quarter_term_parity_iff_deep_chain():
    # constant parity of the aggregate quarter-class term characterizes
    # B2star = 2*B3star among specs meeting the reduced-form hypotheses
    for n in range(4, 33, 4):
        for spec in enumerate_specs(n):
            try:
                reduced_eigenvalues(spec)
            except HypothesesNotMet:
                continue
            vals = {delta(spec, j) & 1 for j in range(0, 4 * n, 4)}
            chain = spec.b_star(2) == scaled(spec.b_star(3), 2)
            assert (len(vals) == 1) == chain


# ------------------------------------------------------------- reduced form

def test_reduced_form_frozen_values():
    sp = reduced_eigenvalues(pst_case_i_graph())
    assert sp.gamma == eigenvalues_closed_form(pst_case_i_graph()).gamma
    for j in range(1, 8):
        if j % 4 == 1:
            assert sp.gamma[j] == 2
        elif j % 4 == 3:
            assert sp.gamma[j] == -2


def test_reduced_form_requires_hypotheses():
    with pytest.raises(HypothesesNotMet):
        reduced_eigenvalues(validate_spec(6, [1], [], {}))
    with pytest.raises(HypothesesNotMet):
        # directed layer 2 holds a divisor other than n/4
        reduced_eigenvalues(validate_spec(24, [], [2], {2: 1}))
    with pytest.raises(HypothesesNotMet):
        # undirected layer 0 nonempty while starred layer 1 is empty
        reduced_eigenvalues(validate_spec(12, [4], [], {}))


def test_reduced_form_matches_closed_form_on_qualifying_specs():
    qualifying = 0
    for n in range(4, 25, 4):
        for spec in enumerate_specs(n):
            try:
                sp = reduced_eigenvalues(spec)
            except HypothesesNotMet:
                continue
            qualifying += 1
            assert sp.gamma == eigenvalues_closed_form(spec).gamma
    assert qualifying > 100


def test_quarter_case_formula_extends_to_index_zero():
    # with the conventions for the j = 0 corner the quarter-class case
    # formula reproduces the degree
    for n in range(4, 25, 4):
        for spec in enumerate_specs(n):
            try:
                reduced_eigenvalues(spec)
            except HypothesesNotMet:
                continue
            half = 1 if n // 2 in spec.B else 0
            quarter = 1 if n // 4 in spec.B else 0
            assert half + 2 * quarter + 4 * delta(spec, 0) == undirected_degree(spec)
