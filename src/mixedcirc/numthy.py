"""Exact number-theoretic kernels: totient, divisors, Ramanujan sums.

Every closed form here returns a plain Python int, and every integer argument
must obey _is_int.  The *_oracle companions evaluate the defining trigonometric
sums in floating point and round them by _round_checked; they exist so tests can
check the closed forms against an independent route.
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


def _is_int(x) -> bool:
    """The package's integer rule: an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_ints(*xs) -> None:
    """ValueError unless every x obeys _is_int: vertex and index arguments."""
    for x in xs:
        if not _is_int(x):
            raise ValueError(f"expected an integer, got {x!r}")


def _check_modulus(n: int) -> None:
    """ValueError unless n obeys _is_int and 1 <= n <= MAX_N."""
    # type(n) is int first: a kernel call runs this several times
    if not (type(n) is int or _is_int(n)) or n < 1:
        raise ValueError(f"modulus must be a positive integer, got {n!r}")
    if n > MAX_N:
        raise ValueError(f"modulus {n} exceeds supported cap {MAX_N}")


def _check_kernel(n: int, q: int) -> None:
    """A kernel's arguments: a modulus n and a positive integer q."""
    _check_modulus(n)
    if not (type(q) is int or _is_int(q)) or q < 1:
        raise ValueError(f"argument must be a positive integer, got {q!r}")


def _round_checked(vals: np.ndarray, label: str) -> np.ndarray:
    """vals (real or complex, any shape) rounded to integers, as floats: the one
    ORACLE_TOL check.  NonIntegerResidual if an entry lies ORACLE_TOL or more
    from its integer, naming the furthest as label.format(*its index)."""
    rounded = np.rint(vals.real)
    resid = np.abs(vals - rounded)
    at = np.unravel_index(resid.argmax(), resid.shape)
    if resid[at] >= ORACLE_TOL:
        raise NonIntegerResidual(f"{label.format(*at)} = {vals[at]} is {resid[at]:.3e} off")
    return rounded


def two_adic_valuation(n: int) -> int:
    """Largest e with 2**e dividing n (0 for odd n).  Undefined for n = 0."""
    if not (type(n) is int or _is_int(n)) or n == 0:
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

    Hoelder's mu(n/g) * phi(n) / phi(n/g), g = gcd(n, q), taken as a product
    over p**a exactly dividing n from one factorization: phi(p**a) when
    p**a | q, -p**(a-1) when p**(a-1) divides q exactly, and otherwise the
    sum is 0.  So c_n(q) = 0 unless (n / rad n) | q.
    """
    _check_kernel(n, q)
    total = 1
    for p, a in factorize(n).items():
        low = p ** (a - 1)
        if q % low:
            return 0
        total *= low * (p - 1) if q % (low * p) == 0 else -low
    return total


def ramanujan_sum_oracle(n: int, q: int) -> int:
    """Literal cosine sum over residues coprime to n, rounded to an integer."""
    _check_kernel(n, q)
    a = np.array([x for x in range(1, n + 1) if math.gcd(x, n) == 1], dtype=float)
    return int(_round_checked(np.cos(2.0 * np.pi * a * q / n).sum(), f"c_{n}({q})"))


def ramanujan_sum_two_adic(n: int, q: int) -> int:
    """Ramanujan sum for even n via the 2-power/odd-part split.

    With n = 2**t * m (m odd, t >= 1) the sum vanishes unless 2**(t-1) | q,
    and otherwise equals (-1)**(q/2**(t-1)) * 2**(t-1) * c_m(q') where
    q' = q / 2**v2(q).
    """
    _check_kernel(n, q)
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
    _check_kernel(n, q)
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


def ramanujan_sine_sum_oracle(n: int, q: int) -> int:
    """Literal sum -2*sin(2*pi*a*q/n) over coprime residues a = 1 (mod 4)."""
    _check_kernel(n, q)
    if n % 4:
        raise ValueError(f"modulus divisible by 4 required, got {n}")
    a = np.array(
        [x for x in range(1, n) if math.gcd(x, n) == 1 and x % 4 == 1], dtype=float
    )
    return int(_round_checked((-2.0 * np.sin(2.0 * np.pi * a * q / n)).sum(), f"s_{n}({q})"))
