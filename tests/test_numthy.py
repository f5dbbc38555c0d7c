"""Number-theory kernel: frozen values, closed-form vs oracle, properties."""

import math

import pytest
from hypothesis import given, settings, strategies as st

import mixedcirc.numthy
from mixedcirc import (
    NonIntegerResidual,
    divisors,
    euler_phi,
    factorize,
    gcd_class,
    gcd_class_mod4,
    ramanujan_sine_sum,
    ramanujan_sine_sum_oracle,
    ramanujan_sum,
    ramanujan_sum_oracle,
    ramanujan_sum_two_adic,
    two_adic_valuation,
)
from mixedcirc.numthy import MAX_N


# ---------------------------------------------------------- integer arguments

# every integer argument of the public numthy functions and the gcd classes,
# with a valid call to start from: a bool or a float in any one position is
# refused, although True == 1 and 2.0 == 2 in Python
_VALID_CALLS = [
    (two_adic_valuation, (8,)), (factorize, (8,)), (euler_phi, (8,)),
    (divisors, (8,)), (ramanujan_sum, (8, 2)),
    (ramanujan_sum_oracle, (8, 2)), (ramanujan_sum_two_adic, (8, 2)),
    (ramanujan_sine_sum, (8, 2)), (ramanujan_sine_sum_oracle, (8, 2)),
    (gcd_class, (8, 2)), (gcd_class_mod4, (8, 1, 1)),
]
_NOT_INTEGERS = [True, 2.0, 2.5]


@pytest.mark.parametrize(
    "fn, args",
    [
        (fn, args[:i] + (bad,) + args[i + 1:])
        for fn, args in _VALID_CALLS
        for i in range(len(args))
        for bad in _NOT_INTEGERS
    ],
    ids=lambda x: x.__name__ if callable(x) else repr(x),
)
def test_integer_arguments_refuse_bools_and_floats(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


def test_the_refused_calls_are_valid_with_integers():
    for fn, args in _VALID_CALLS:
        fn(*args)


# ---------------------------------------------------------------- valuation

def test_valuation_frozen_values():
    assert two_adic_valuation(8) == 3
    assert two_adic_valuation(1) == 0
    assert two_adic_valuation(12) == 2
    assert two_adic_valuation(-12) == 2
    assert two_adic_valuation(-1) == 0


def test_valuation_rejects_zero():
    with pytest.raises(ValueError):
        two_adic_valuation(0)


@given(st.integers(min_value=1, max_value=10**9))
def test_valuation_divides_exactly(n):
    v = two_adic_valuation(n)
    assert n % (1 << v) == 0
    assert (n >> v) % 2 == 1


# ------------------------------------------------------------------ totient

def test_euler_phi_frozen_values():
    assert euler_phi(1) == 1
    assert euler_phi(9) == 6
    for p in (2, 3, 5, 7, 11, 13, 31):
        assert euler_phi(p) == p - 1


@given(st.integers(min_value=1, max_value=2000))
def test_euler_phi_counts_coprimes(n):
    assert euler_phi(n) == sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def test_factorize_reassembles():
    for n in range(1, 500):
        prod = 1
        for p, e in factorize(n).items():
            prod *= p**e
        assert prod == n


# ------------------------------------------------------------------ divisors

def test_divisors_frozen_values():
    assert divisors(8) == [1, 2, 4, 8]
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]


@given(st.integers(min_value=1, max_value=5000))
def test_divisors_complete_and_sorted(n):
    ds = divisors(n)
    assert ds == sorted(set(ds))
    assert ds == [d for d in range(1, n + 1) if n % d == 0]


def test_modulus_cap_enforced():
    with pytest.raises(ValueError):
        divisors(MAX_N + 1)
    with pytest.raises(ValueError):
        ramanujan_sum(MAX_N + 1, 1)


# ------------------------------------------------------------ Ramanujan sums

def test_ramanujan_sum_frozen_values():
    for q in (1, 2, 7, 100):
        assert ramanujan_sum(1, q) == 1
    assert ramanujan_sum(4, 2) == -2
    assert ramanujan_sum(6, 1) == 1


def test_ramanujan_sum_oracle_frozen_values():
    assert ramanujan_sum_oracle(1, 1) == 1
    assert ramanujan_sum_oracle(4, 2) == -2


def test_ramanujan_sum_prime_cases():
    # prime p: p-1 when p | q, else -1
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for q in range(1, 201):
            expect = p - 1 if q % p == 0 else -1
            assert ramanujan_sum(p, q) == expect


def test_ramanujan_sum_prime_power_cases():
    # p^k: phi(p^k) when p^k | q; -p^(k-1) when exactly p^(k-1) | q; else 0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for k in range(2, 5):
            pk = p**k
            for q in range(1, 201):
                if q % pk == 0:
                    expect = euler_phi(pk)
                elif q % (pk // p) == 0:
                    expect = -(pk // p)
                else:
                    expect = 0
                assert ramanujan_sum(pk, q) == expect


@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=100),
)
def test_ramanujan_sum_multiplicative(m, n, q):
    if math.gcd(m, n) != 1:
        return
    assert ramanujan_sum(m, q) * ramanujan_sum(n, q) == ramanujan_sum(m * n, q)


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=300))
def test_ramanujan_sum_periodic_in_q(n, q):
    assert ramanujan_sum(n, q) == ramanujan_sum(n, q + n)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=150), st.integers(min_value=1, max_value=150))
def test_ramanujan_sum_matches_oracle(n, q):
    assert ramanujan_sum(n, q) == ramanujan_sum_oracle(n, q)


def test_ramanujan_sum_equals_hoelder_form():
    # mu(k) * phi(n) / phi(k) with k = n / gcd(n, q), mu(k) read off factorize:
    # 0 on a square factor, else -1 to the number of primes
    def mu(k):
        exponents = factorize(k).values()
        return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)

    for n in range(1, 401):
        phi_n = euler_phi(n)
        for q in range(1, 2 * n + 1):
            k = n // math.gcd(n, q)
            assert ramanujan_sum(n, q) == mu(k) * phi_n // euler_phi(k), (n, q)


def _rad(m):
    return math.prod(factorize(m))


def test_ramanujan_sum_vanishes_off_multiples_of_m_over_rad_m():
    for m in range(1, 401):
        step = m // _rad(m)
        for j in range(1, 2 * m):
            if j % step:
                assert ramanujan_sum(m, j) == 0, (m, j)


def test_sine_sum_vanishes_off_its_progression():
    # s_m(j) can be nonzero only at j = q * r * (odd), q = 2**(v2(m)-2) and
    # r = m_odd / rad(m_odd): the progression the closed form walks
    for m in range(4, 401, 4):
        q = 1 << (two_adic_valuation(m) - 2)
        m_odd = m // (4 * q)
        step = q * (m_odd // _rad(m_odd))
        for j in range(1, 2 * m):
            if j % step or (j // step) % 2 == 0:
                assert ramanujan_sine_sum(m, j) == 0, (m, j)


# -------------------------------------------------------------- 2-adic split

def test_two_adic_split_frozen_values():
    assert ramanujan_sum_two_adic(4, 2) == -2
    assert ramanujan_sum_two_adic(8, 1) == 0
    assert ramanujan_sum_two_adic(8, 4) == -4
    assert ramanujan_sum_two_adic(8, 4) == ramanujan_sum_oracle(8, 4)


def test_two_adic_split_rejects_odd_modulus():
    with pytest.raises(ValueError):
        ramanujan_sum_two_adic(9, 1)


def test_two_adic_split_equals_closed_form():
    for n in range(2, 257, 2):
        for q in range(1, 257):
            assert ramanujan_sum_two_adic(n, q) == ramanujan_sum(n, q)


# ----------------------------------------------------------------- sine sums

def test_sine_sum_frozen_values():
    assert ramanujan_sine_sum(4, 1) == -2
    assert ramanujan_sine_sum(8, 2) == -4
    assert ramanujan_sine_sum(8, 4) == 0  # even quotient kills the indicator


def test_sine_sum_oracle_frozen_values():
    assert ramanujan_sine_sum_oracle(4, 1) == -2
    assert ramanujan_sine_sum_oracle(8, 2) == -4


def test_sine_sum_rejects_bad_modulus():
    for fn in (ramanujan_sine_sum, ramanujan_sine_sum_oracle):
        with pytest.raises(ValueError):
            fn(6, 1)
        with pytest.raises(ValueError):
            fn(9, 1)


def test_sine_sum_matches_oracle():
    for n in range(4, 129, 4):
        for q in range(1, 129):
            assert ramanujan_sine_sum(n, q) == ramanujan_sine_sum_oracle(n, q)


def test_oracle_flags_rounding_residual(monkeypatch):
    # each literal sum lands ~1e-14 off its integer: the default tolerance
    # rounds it, and one below that must trip the residual check of either
    # oracle
    cases = [(ramanujan_sum_oracle, 199, 1, -1, "c_199"),
             (ramanujan_sine_sum_oracle, 388, 3, -2, "s_388")]
    for oracle, n, q, exact, _ in cases:
        assert oracle(n, q) == exact
    monkeypatch.setattr(mixedcirc.numthy, "ORACLE_TOL", 1e-15)
    for oracle, n, q, _, name in cases:
        with pytest.raises(NonIntegerResidual, match=name):
            oracle(n, q)
