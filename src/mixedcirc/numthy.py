"""Exact number-theoretic kernels: totient, Moebius, divisors, Ramanujan sums.

Every closed form here returns a plain Python int.  The *_oracle companions
evaluate the defining trigonometric sums in floating point and round, raising
NonIntegerResidual when the result is not within tolerance of an integer; they
exist so tests can check the closed forms against an independent route.
"""

from __future__ import annotations

import math

import numpy as np

# Inputs beyond this are refused: keeps trial division and the brute sums at
# desk scale.  Python ints are exact at any size, so this is a usage cap, not
# an overflow guard.
MAX_N = 1 << 30

ORACLE_TOL = 1e-6


class NonIntegerResidual(ArithmeticError):
    """A floating-point character sum failed to land on an integer."""


def _check_modulus(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"modulus must be a positive integer, got {n!r}")
    if n > MAX_N:
        raise ValueError(f"modulus {n} exceeds supported cap {MAX_N}")


def two_adic_valuation(n: int) -> int:
    """Largest e with 2**e dividing n (0 for odd n).  Undefined for n = 0."""
    if not isinstance(n, int) or n == 0:
        raise ValueError(f"2-adic valuation needs a nonzero integer, got {n!r}")
    return (n & -n).bit_length() - 1  # n & -n is the lowest set bit for either sign


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, {p: exponent}."""
    _check_modulus(n)
    out: dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def euler_phi(n: int) -> int:
    """Count of 1 <= k <= n coprime to n."""
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def moebius(n: int) -> int:
    """Moebius function: 0 on square factors, else (-1)**(number of primes)."""
    fac = factorize(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    _check_modulus(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def ramanujan_sum(n: int, q: int) -> int:
    """Sum of q-th powers of primitive n-th roots of unity (an integer).

    Closed form: mu(n/g) * phi(n) / phi(n/g) with g = gcd(n, q).
    """
    _check_modulus(n)
    if not isinstance(q, int) or q < 1:
        raise ValueError(f"argument must be a positive integer, got {q!r}")
    g = math.gcd(n, q)
    k = n // g
    mu = moebius(k)
    if mu == 0:
        return 0
    return mu * (euler_phi(n) // euler_phi(k))


def ramanujan_sum_oracle(n: int, q: int, tol: float = ORACLE_TOL) -> int:
    """Literal cosine sum over residues coprime to n, rounded to an integer."""
    _check_modulus(n)
    if q < 1:
        raise ValueError(f"argument must be a positive integer, got {q!r}")
    a = np.array([x for x in range(1, n + 1) if math.gcd(x, n) == 1], dtype=float)
    total = float(np.cos(2.0 * np.pi * a * q / n).sum())
    nearest = round(total)
    if abs(total - nearest) >= tol:
        raise NonIntegerResidual(
            f"c_{n}({q}) evaluated to {total}, residual {abs(total - nearest):.3e}"
        )
    return nearest


def ramanujan_sum_two_adic(n: int, q: int) -> int:
    """Ramanujan sum for even n via the 2-power/odd-part split.

    With n = 2**t * m (m odd, t >= 1) the sum vanishes unless 2**(t-1) | q,
    and otherwise equals (-1)**(q/2**(t-1)) * 2**(t-1) * c_m(q') where
    q' = q / 2**v2(q).
    """
    _check_modulus(n)
    if q < 1:
        raise ValueError(f"argument must be a positive integer, got {q!r}")
    t = two_adic_valuation(n)
    if t == 0:
        raise ValueError(f"even modulus required, got {n}")
    m = n >> t
    step = 1 << (t - 1)
    if q % step:
        return 0
    e = q // step
    q_odd = q >> two_adic_valuation(q)
    return (-1) ** (e & 1) * step * ramanujan_sum(m, q_odd)


def ramanujan_sine_sum(n: int, q: int) -> int:
    """Signed sine analogue of the Ramanujan sum, defined for 4 | n.

    With n = 2**t * m (m odd, t >= 2) and q' = q / 2**(t-2): zero unless q' is
    an odd integer, else (-1)**((m-1)/2) * (-1)**((q'+1)/2) * 2**(t-1) * c_m(q').
    """
    _check_modulus(n)
    if q < 1:
        raise ValueError(f"argument must be a positive integer, got {q!r}")
    if n % 4:
        raise ValueError(f"modulus divisible by 4 required, got {n}")
    t = two_adic_valuation(n)
    m = n >> t
    quarter = 1 << (t - 2)
    if q % quarter:
        return 0
    qp = q // quarter
    if qp % 2 == 0:
        return 0
    sign = (-1) ** (((m - 1) // 2) & 1) * (-1) ** (((qp + 1) // 2) & 1)
    return sign * (1 << (t - 1)) * ramanujan_sum(m, qp)


def ramanujan_sine_sum_oracle(n: int, q: int, tol: float = ORACLE_TOL) -> int:
    """Literal sum -2*sin(2*pi*a*q/n) over coprime residues a = 1 (mod 4)."""
    _check_modulus(n)
    if q < 1:
        raise ValueError(f"argument must be a positive integer, got {q!r}")
    if n % 4:
        raise ValueError(f"modulus divisible by 4 required, got {n}")
    a = np.array(
        [x for x in range(1, n) if math.gcd(x, n) == 1 and x % 4 == 1], dtype=float
    )
    total = float((-2.0 * np.sin(2.0 * np.pi * a * q / n)).sum())
    nearest = round(total)
    if abs(total - nearest) >= tol:
        raise NonIntegerResidual(
            f"s_{n}({q}) evaluated to {total}, residual {abs(total - nearest):.3e}"
        )
    return nearest
