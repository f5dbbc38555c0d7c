"""Number-theory kernel: frozen values, closed-form vs oracle, properties."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from mixedcirc import (
    NonIntegerResidual,
    divisors,
    euler_phi,
    factorize,
    moebius,
    ramanujan_sine_sum,
    ramanujan_sine_sum_oracle,
    ramanujan_sum,
    ramanujan_sum_oracle,
    ramanujan_sum_two_adic,
    two_adic_valuation,
)
from mixedcirc.numthy import MAX_N


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


# ------------------------------------------------------- totient and moebius

def test_euler_phi_frozen_values():
    assert euler_phi(1) == 1
    assert euler_phi(9) == 6
    for p in (2, 3, 5, 7, 11, 13, 31):
        assert euler_phi(p) == p - 1


@given(st.integers(min_value=1, max_value=2000))
def test_euler_phi_counts_coprimes(n):
    assert euler_phi(n) == sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def test_moebius_frozen_values():
    assert moebius(1) == 1
    assert moebius(12) == 0
    assert moebius(6) == 1


@given(st.integers(min_value=1, max_value=2000))
def test_moebius_by_definition(n):
    fac = factorize(n)
    if any(e > 1 for e in fac.values()):
        assert moebius(n) == 0
    else:
        assert moebius(n) == (-1) ** len(fac)


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


def test_oracle_flags_rounding_residual():
    # the sum over 198 cosines lands ~1e-14 off the integer; a tolerance
    # below that must trip the residual check
    with pytest.raises(NonIntegerResidual):
        ramanujan_sum_oracle(199, 1, tol=1e-15)
    assert ramanujan_sum_oracle(199, 1) == -1
