"""Graph construction: gcd classes, validation, adjacency, serialization."""

import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    all_specs,
    mst_example_graph,
    pst_case_i_graph,
    pst_case_ii_graph,
    pst_case_iii_graph,
    two_arc_layer_graph,
)
from mixedcirc import (
    BadDivisor,
    BadModulus,
    GraphSpec,
    Overlap,
    SigmaDomainMismatch,
    SpecError,
    UnknownFormat,
    eigenvalues_closed_form,
    eigenvalues_oracle,
    enumerate_specs,
    export_graph,
    gcd_class,
    gcd_class_mod4,
    hermitian_adjacency,
    parse_spec,
    spec_to_dict,
    spec_to_json,
    validate_spec,
)
from mixedcirc.circulant import index_classes
from mixedcirc.numthy import MAX_N, divisors


# ------------------------------------------------------------- gcd classes

def test_gcd_class_frozen_values():
    assert gcd_class(8, 4) == {4}
    assert gcd_class(8, 2) == {2, 6}
    for p in (3, 5, 7, 11):
        assert gcd_class(p, 1) == set(range(1, p))


def test_gcd_class_rejects_non_divisors():
    with pytest.raises(ValueError):
        gcd_class(8, 3)
    with pytest.raises(ValueError):
        gcd_class(8, 16)
    assert gcd_class(8, 8) == frozenset()  # tolerated, empty


def test_gcd_classes_partition_residues():
    for n in range(2, 65):
        union = set()
        for d in divisors(n):
            if d == n:
                continue
            cls = gcd_class(n, d)
            assert not (union & cls)
            union |= cls
        assert union == set(range(1, n))


def test_gcd_class_mod4_frozen_values():
    assert gcd_class_mod4(8, 1, 1) == {1, 5}
    assert gcd_class_mod4(8, 2, 3) == {6}
    assert gcd_class_mod4(16, 4, 3) == {12}


def test_gcd_class_mod4_rejects_bad_inputs():
    with pytest.raises(ValueError):
        gcd_class_mod4(8, 1, 2)
    with pytest.raises(BadDivisor):
        gcd_class_mod4(8, 4, 1)  # 4 does not divide 8/4
    with pytest.raises(BadModulus):
        gcd_class_mod4(6, 1, 1)


def test_half_classes_split_the_full_class():
    for n in range(4, 65, 4):
        for d in divisors(n // 4):
            one = gcd_class_mod4(n, d, 1)
            three = gcd_class_mod4(n, d, 3)
            assert not (one & three)
            assert one | three == gcd_class(n, d)


# ------------------------------------------------------------ index classes

def test_index_classes_are_the_gcd_and_half_classes():
    # in order: G_n(g) for each proper divisor g, split into G_n^1(g) and
    # G_n^3(g) where 4 | n/g, then {0}; so tau(n) + tau(n/4) of them
    for n in range(1, 513):
        expected = []
        for g in divisors(n)[:-1]:
            if (n // g) % 4:
                expected.append(gcd_class(n, g))
            else:
                expected += [gcd_class_mod4(n, g, 1), gcd_class_mod4(n, g, 3)]
        expected.append({0})
        of = index_classes(n).of
        assert [set(np.flatnonzero(of == c).tolist()) for c in range(len(expected))] == expected, n
        assert len(expected) == len(divisors(n)) + (len(divisors(n // 4)) if n % 4 == 0 else 0), n


def test_index_classes_equal_the_per_index_gcd_build():
    # the sieve against a build from gcd(j, n) at every index: keys 4g + rho,
    # numbered in ascending order, each class's first index its rep; each
    # class's g is gcd(rep, n), and its turn is +1 or -1 where 4 | n/g and
    # rep/g = +1 or -1 (mod 4), else 0
    def per_index(n):
        j = np.arange(n)
        g = np.gcd(j, n)
        key = 4 * g + (j // g % 4) * (n // g % 4 == 0)
        _, first, of = np.unique(key, return_index=True, return_inverse=True)
        return of, first

    for n in [*range(2, 4097), 720720, 2**20]:
        of, reps = per_index(n)
        classes = index_classes(n)
        assert (classes.of == of).all() and (classes.reps == reps).all(), n
        g = np.gcd(reps, n)
        turn = np.where(n // g % 4 == 0, 2 - reps // g % 4, 0)
        assert (classes.g == g).all() and (classes.turn == turn).all(), n
        assert set(turn.tolist()) <= {-1, 0, 1}, n


# -------------------------------------------------------------- validation

def test_validate_accepts_the_named_graphs():
    spec = two_arc_layer_graph()
    assert spec.n == 8 and spec.B == {4} and spec.D == {1, 2}
    assert spec.sigma == {1: 1, 2: -1}


def test_validate_rejects_directed_without_mod4():
    with pytest.raises(BadModulus):
        validate_spec(6, [], [1], {1: 1})


def test_validate_rejects_overlap():
    with pytest.raises(Overlap):
        validate_spec(8, [2], [2], {2: 1})


def test_validate_rejects_bad_divisors():
    with pytest.raises(BadDivisor):
        validate_spec(8, [3], [], {})
    with pytest.raises(BadDivisor):
        validate_spec(8, [8], [], {})
    with pytest.raises(BadDivisor):
        validate_spec(16, [], [3], {3: 1})  # 3 does not divide 16/4


def test_validate_rejects_sigma_mismatches():
    with pytest.raises(SigmaDomainMismatch):
        validate_spec(8, [], [1], {})
    with pytest.raises(SigmaDomainMismatch):
        validate_spec(8, [], [1], {1: 1, 2: -1})
    with pytest.raises(SigmaDomainMismatch):
        validate_spec(8, [], [1], {1: 0})


def test_validate_rejects_bad_order():
    with pytest.raises(BadModulus):
        validate_spec(0, [], [], {})
    with pytest.raises(BadModulus):
        validate_spec(MAX_N + 1, [], [], {})


def test_validate_rejects_booleans():
    # True == 1 in Python, but a JSON boolean is not an order or a divisor
    with pytest.raises(BadModulus):
        parse_spec('{"n": true}')
    with pytest.raises(BadModulus):
        validate_spec(True, [], [], {})
    with pytest.raises(BadDivisor):
        parse_spec('{"n":8,"B":[true,4]}')
    with pytest.raises(BadDivisor):
        validate_spec(8, [1, True], [], {})  # a set would merge True into 1
    with pytest.raises(BadDivisor):
        validate_spec(8, [], [True], {True: 1})
    with pytest.raises(SigmaDomainMismatch):
        parse_spec('{"n":8,"D":[2],"sigma":{"2":true}}')
    with pytest.raises(SigmaDomainMismatch):
        validate_spec(8, [], [1], {True: 1})


def test_sigma_is_read_only():
    # a stored spec is final: writing to sigma raises, where it once changed
    # the spectrum of a validated spec
    s = validate_spec(8, [1], [2], {2: -1})
    with pytest.raises(TypeError):
        s.sigma[2] = 7
    assert s.sigma == {2: -1}
    assert s == validate_spec(8, [1], [2], {2: -1})
    assert s != validate_spec(8, [1], [2], {2: 1})
    assert parse_spec(spec_to_json(s)) == s
    assert spec_to_dict(s) == {"n": 8, "B": [1], "D": [2], "sigma": {"2": -1}}
    assert eigenvalues_closed_form(s).gamma == (4, 2, 0, -2, -4, 2, 0, -2)


def test_validate_rejects_non_integer_members_without_crashing():
    # mixed or unhashable members are input errors, not TypeErrors
    for text in (
        '{"n":8,"B":["a",2]}',
        '{"n":8,"B":[[1]]}',
        '{"n":8,"D":[2],"sigma":{"2":1.0}}',
    ):
        with pytest.raises(SpecError):
            parse_spec(text)


def test_raw_construction_is_validated():
    # GraphSpec runs the rules itself, so no unchecked spec can exist
    with pytest.raises(BadDivisor):
        GraphSpec(8, frozenset({3}), frozenset())
    cases = [
        ((8, [3], [], {}), BadDivisor),
        ((8, [2], [2], {2: 1}), Overlap),
        ((8, [], [1], {1: 1, 2: -1}), SigmaDomainMismatch),
        ((True, [], [], {}), BadModulus),
    ]
    for (n, B, D, sigma), error in cases:
        with pytest.raises(error):
            validate_spec(n, B, D, sigma)
        with pytest.raises(error):
            GraphSpec(n, frozenset(B), frozenset(D), sigma)


def test_raw_construction_freezes_its_fields():
    spec = GraphSpec(8, [1], (2,), {2: -1})
    assert spec == pst_case_i_graph()
    assert isinstance(spec.B, frozenset) and isinstance(spec.D, frozenset)


# --------------------------------------------------------- connection sets

def _residues(row, value):
    """The residues c whose row entry is value."""
    return {c for c, entry in enumerate(row) if entry == value}


def test_connection_sets_match_printed_examples():
    # the printed set is the undirected residues and the arc heads; the arc
    # tails hold -i
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
    for spec, full, directed in cases:
        row = hermitian_adjacency(spec)
        assert _residues(row, 1) | _residues(row, 1j) == full
        assert _residues(row, 1j) == directed
        assert _residues(row, -1j) == {spec.n - c for c in directed}


def test_connection_set_invariants_hold_everywhere():
    for spec in all_specs(range(2, 17)):
        n = spec.n
        row = hermitian_adjacency(spec)
        undirected, arcs = _residues(row, 1), _residues(row, 1j)
        assert not (undirected & arcs)
        for c in undirected:
            assert (-c) % n in undirected
        for c in arcs:
            assert (-c) % n not in arcs
            assert (-c) % n not in undirected


# ---------------------------------------------------------------- adjacency

def test_empty_connection_set_gives_zero_matrix():
    row = hermitian_adjacency(validate_spec(5))
    assert row == (0,) * 5


def test_adjacency_frozen_entries():
    # row[c] is the entry at (u, u + c)
    undirected = hermitian_adjacency(validate_spec(8, [4], [], {}))
    assert undirected[4] == 1

    arcs = hermitian_adjacency(validate_spec(8, [], [1], {1: 1}))
    assert arcs[1] == 1j
    assert arcs[7] == -1j

    assert hermitian_adjacency(validate_spec(4, [2], [1], {1: 1})) == (0, 1j, 1, -1j)


def test_adjacency_hermitian_and_circulant():
    # the entry at (u, u + c) is row[c], so the matrix is circulant by
    # construction; it is Hermitian with a zero diagonal exactly when
    # row[0] = 0 and row[-c] is the conjugate of row[c]
    for spec in all_specs(range(2, 17)):
        n = spec.n
        row = hermitian_adjacency(spec)
        assert len(row) == n and row[0] == 0
        for c in range(n):
            assert row[(n - c) % n] == row[c].conjugate()
            assert row[c] in (0, 1, 1j, -1j)


def scanned_adjacency(spec):
    """The Hermitian row written class by class from the scanned sets
    gcd_class and gcd_class_mod4."""
    n = spec.n
    row = [complex(0)] * n
    for b in spec.B:
        for c in gcd_class(n, b):
            row[c] = complex(1)
    for d in spec.D:
        for c in gcd_class_mod4(n, d, 1 if spec.sigma[d] == 1 else 3):
            row[c], row[n - c] = 1j, -1j
    return tuple(row)


def test_adjacency_equals_the_per_class_scan():
    # one gcd pass builds the row; it equals the class-by-class scan on every
    # spec through order 40 and on 50 seeded specs each at 840 and 7560,
    # whose odd primes 3, 5, 7 split classes that powers of two cannot
    specs = [validate_spec(1), *all_specs(range(2, 41))]
    rng = random.Random(27)
    for n in (840, 7560):
        proper, pool = divisors(n)[:-1], divisors(n // 4)
        for _ in range(50):
            D = [d for d in pool if rng.random() < 0.3]
            B = [b for b in proper if b not in D and rng.random() < 0.4]
            specs.append(validate_spec(n, B, D, {d: rng.choice((1, -1)) for d in D}))
    for spec in specs:
        assert hermitian_adjacency(spec) == scanned_adjacency(spec), spec_to_json(spec)
    assert len(specs) == 7505 + 100


def test_adjacency_refuses_sets_no_spec_builds():
    # hermitian_adjacency takes a GraphSpec, so the refusal is at construction:
    # at n = 4 these would put a class outside 1..3, give an arc to c = n/2 = 2,
    # or lay an arc over an undirected edge, and no spec is built from them
    bad = [
        ([0], [], {}), ([4], [], {}), ([-1], [], {}), ([], [2], {2: 1}),
        ([], [4], {4: 1}), ([], [-1], {-1: 1}), ([1], [1], {1: 1}),
        ([2], [1], {}), ([], [1], {1: 2}),
    ]
    for B, D, sigma in bad:
        with pytest.raises(SpecError):
            validate_spec(4, B, D, sigma)
    # every spec that builds writes each entry once: the nonzero count is the
    # sum of its class sizes, arcs counted with their reverses
    for spec in all_specs(range(2, 17)):
        n = spec.n
        row = hermitian_adjacency(spec)
        size = sum(len(gcd_class(n, b)) for b in spec.B)
        size += sum(2 * len(gcd_class_mod4(n, d, 1)) for d in spec.D)
        assert sum(1 for x in row if x != 0) == size
    ok = validate_spec(4, [2], [1], {1: 1})
    assert hermitian_adjacency(ok) == (0, 1j, 1, -1j)


# ---------------------------------------------------------------- partition

def test_partition_frozen_layerings():
    spec = mst_example_graph()
    assert spec.b_layer(4) == {1}
    assert spec.d_layer(3) == {2}
    assert spec.d_layer(2) == {4}

    spec = validate_spec(8, [2, 4], [1], {1: 1})
    assert spec.b_layer(2) == {2}
    assert spec.b_layer(1) == {4}
    assert spec.d_layer(3) == {1}


def test_partition_reunites_to_inputs():
    for spec in all_specs(range(2, 17)):
        depths = range(spec.n.bit_length())  # v2(n/d) < bit_length(n)
        b_layers = [spec.b_layer(i) for i in depths]
        d_layers = [spec.d_layer(i) for i in depths]
        assert frozenset().union(*b_layers) == spec.B
        assert frozenset().union(*d_layers) == spec.D
        # layers are disjoint by construction of the valuation key
        assert sum(len(v) for v in b_layers) == len(spec.B)
        assert sum(len(v) for v in d_layers) == len(spec.D)


def test_starred_layers_drop_distinguished_divisor():
    spec = validate_spec(16, [8, 4, 2], [], {})
    assert spec.b_layer(1) == {8}
    assert spec.b_star(1) == frozenset()  # 16/2 = 8 removed
    assert spec.b_layer(2) == {4}
    assert spec.b_star(2) == frozenset()
    assert spec.b_star(3) == frozenset()
    with pytest.raises(ValueError):
        spec.b_star(0)


def test_empty_divisor_sets_make_empty_layers():
    spec = validate_spec(12, [], [], {})
    assert all(not spec.b_layer(i) and not spec.d_layer(i) for i in range(4))
    assert spec.b_star(1) == spec.b_star(3) == frozenset()


# ------------------------------------------------------------ serialization

def test_canonical_json_golden():
    assert spec_to_json(mst_example_graph()) == (
        '{"B":[1],"D":[2,4],"n":16,"sigma":{"2":1,"4":-1}}'
    )


def test_json_round_trip_everywhere():
    for spec in all_specs(range(2, 17)):
        text = spec_to_json(spec)
        back = parse_spec(text)
        assert back == spec
        assert spec_to_json(back) == text
        # the canonical object is what the JSON text holds, key for key
        assert spec_to_dict(spec) == json.loads(text)


def test_parse_rejects_malformed_input():
    for bad in (
        "not json",
        "[1,2]",
        '{"B":[]}',
        '{"n":8,"extra":1}',
        '{"n":8,"B":5}',
        '{"n":8,"B":[],"D":{}}',
        '{"n":8,"B":[],"D":[1],"sigma":[1]}',
        '{"n":8,"B":[],"D":[1],"sigma":{"x":1}}',
        # a repeated name, and sigma keys other than the canonical str(d)
        '{"n":8,"n":16,"B":[1]}',
        '{"n":8,"D":[2],"sigma":{"2":1,"2":-1}}',
        '{"n":8,"D":[2],"sigma":{"2":1,"02":-1}}',
        '{"n":8,"D":[2],"sigma":{"02":1}}',
        '{"n":8,"D":[2],"sigma":{" +2 ":1}}',
        '{"n":40,"D":[10],"sigma":{"1_0":1}}',
        '{"n":8,"D":[2],"sigma":{"\u0662":1}}',
    ):
        with pytest.raises(SpecError):
            parse_spec(bad)


def test_parse_rejects_numbers_json_cannot_convert():
    # json raises a plain ValueError past Python's integer digit limit
    with pytest.raises(SpecError):
        parse_spec('{"n": ' + "9" * 5000 + "}")


_JUNK = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(-3, 0),
    st.integers(129, 10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.integers(1, 8), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-1, 1), max_size=2),
)


def _sometimes_junk(draw, value, rarity=5):
    # the well-formed value, or now and then a malformed one
    return draw(_JUNK) if draw(st.integers(1, rarity)) == rarity else value


@st.composite
def spec_texts(draw):
    n = draw(st.one_of(st.integers(1, 128), st.integers(1, 32).map(lambda k: 4 * k)))
    proper = [d for d in range(1, n) if n % d == 0]
    arcs = [d for d in proper if n % (4 * d) == 0]
    B = draw(st.lists(st.sampled_from(proper), max_size=3)) if proper else []
    D = draw(st.lists(st.sampled_from(arcs), max_size=3)) if arcs else []
    B = [_sometimes_junk(draw, b, 10) for b in B]
    D = [_sometimes_junk(draw, d, 10) for d in D]
    sigma = {str(d): _sometimes_junk(draw, draw(st.sampled_from((1, -1))), 10) for d in D}
    if draw(st.integers(1, 20)) == 20:
        sigma[draw(st.text(max_size=3))] = 1
    obj = {"n": _sometimes_junk(draw, n, 20)}
    for key, value in (("B", B), ("D", D), ("sigma", sigma)):
        if value or draw(st.booleans()):
            obj[key] = _sometimes_junk(draw, value, 20)
    if draw(st.integers(1, 40)) == 40:
        obj["extra"] = 1
    text = json.dumps(obj)
    if draw(st.integers(1, 20)) == 20:
        text = text[: draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(spec_texts())
def test_parse_spec_fuzz(text):
    # any JSON text is either an input error or a spec whose exact
    # spectrum the FFT oracle confirms
    try:
        spec = parse_spec(text)
    except SpecError:
        return
    oracle = eigenvalues_oracle(spec)
    assert eigenvalues_closed_form(spec).gamma == oracle.gamma


def test_parse_applies_validation():
    with pytest.raises(Overlap):
        parse_spec('{"n":8,"B":[2],"D":[2],"sigma":{"2":1}}')


# ------------------------------------------------------------------- export

DOT_GOLDEN = """digraph mixedcirc_8 {
  0;
  1;
  2;
  3;
  4;
  5;
  6;
  7;
  0 -> 4 [dir=none];
  1 -> 5 [dir=none];
  2 -> 6 [dir=none];
  3 -> 7 [dir=none];
}
"""


def test_dot_export_golden():
    assert export_graph(validate_spec(8, [4], [], {}), "dot") == DOT_GOLDEN


def test_dot_export_digest_through_order_24():
    # every spec of orders 2..24, directed and mixed ones included: the
    # sha256 of the concatenated DOT texts is pinned
    digest = hashlib.sha256()
    count = 0
    for n in range(2, 25):
        for spec in enumerate_specs(n):
            digest.update(export_graph(spec, "dot").encode())
            count += 1
    assert count == 2574
    assert digest.hexdigest()[:16] == "6691cb43397978ab"


def test_dot_export_shapes():
    # the two-arc-layer graph: 4 undirected antipodal edges, 3 arcs per vertex
    text = export_graph(two_arc_layer_graph(), "dot")
    lines = text.splitlines()
    assert sum(1 for x in lines if x.endswith("[dir=none];")) == 4
    assert sum(1 for x in lines if x.endswith(";") and "->" in x and "dir" not in x) == 24


def test_dot_export_empty_graph_is_isolated_nodes():
    text = export_graph(validate_spec(8, [], [], {}), "dot")
    assert "->" not in text
    assert sum(1 for x in text.splitlines() if x.strip().rstrip(";").isdigit()) == 8


def test_json_export_round_trips():
    for spec in all_specs((8, 12)):
        assert parse_spec(export_graph(spec, "json")) == spec


def test_unknown_format_rejected():
    with pytest.raises(UnknownFormat):
        export_graph(two_arc_layer_graph(), "graphml")
