"""Perfect and multiple state transfer detection.

Times are measured in turns: t_prime = t / (2*pi).  Because the spectra are
integral, the evolution is 1-periodic in turns, and transfer questions reduce
to congruences on the cyclic eigenvalue gaps.  Three independent deciders
exist: the divisor-set classifier, the gap-valuation test, and exact
feasibility plus numeric verification of the witness time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .circulant import DivisorPartition, GraphSpec, _scaled, partition_divisors
from .spectrum import Spectrum, eigenvalues_closed_form

NUMERIC_TOL = 1e-9
GAMMA_BOUND = 2**60  # |gamma| bound under which the gap kernel is exact in int64


class SamePair(ValueError):
    """a = b asks about periodicity, not transfer; reported separately."""


class NotFeasible(ValueError):
    """No rational time achieves transfer for the requested pair."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


@dataclass(frozen=True)
class DifferenceProfile:
    """Gap data of one spectrum, as gap_profiles reads it from a matrix row.

    n is the order; d0 = gamma[1] - gamma[0] is the first cyclic gap;
    gap_gcd is g = gcd of delta_j - delta_0 over all j (0 when every gap is
    equal); m is the 2-adic valuation shared by every gap (None on a zero
    gap or a disagreement); quarter says every gap has valuation 1 and every
    double gap valuation 2.  A profile is a plain value: two profiles with
    the same fields are equal and hash alike.

    A time t' = s/q in lowest terms of transfer across the vertex difference
    w must have q | g, since delta_j * t' - w/n is integral for every j only
    if each (delta_j - delta_0) * s/q is.  So every witness is k/g for some
    k, the gap congruences collapse to the one at delta_0, and witness()
    solves that one with a modular inverse.  Build a profile once per
    spectrum and read it as often as needed.
    """

    n: int
    d0: int
    gap_gcd: int
    m: Optional[int]
    quarter: bool

    def witness(self, w: int) -> Optional[Fraction]:
        """Least time t' in (0, 1] of transfer a -> b, where w = (b - a) mod n
        is nonzero: every delta_j * t' - w/n must be an integer.

        Writing t' = k/g with g = gap_gcd, the condition is the congruence
        n*delta_0*k = w*g (mod n*g).  It is solvable iff c = n*gcd(delta_0, g)
        divides w*g, and then k is fixed modulo m = g/gcd(delta_0, g), so the
        least positive k is (w*g/c) * (n*delta_0/c)^-1 mod m.  Returns None
        when g = 0 (every gap equal, hence zero) or the congruence has no
        solution.
        """
        g = self.gap_gcd
        if g == 0:
            return None
        d0 = self.d0
        c = self.n * math.gcd(d0, g)
        if (w * g) % c:
            return None
        m = self.n * g // c
        # w/n is not an integer, so the residue is never 0 and k lies in 1..m-1
        k = (w * g // c) * pow(self.n * d0 // c, -1, m) % m
        return Fraction(k, g)


@dataclass(frozen=True)
class TransferVerdict:
    """Decision record for one transfer question."""

    kind: str  # "none" | "antipodal_pst" | "quarter_pst" | "mst"
    pair: tuple[int, ...]
    m: Optional[int] = None
    t_prime: Optional[Fraction] = None
    phase: Optional[complex] = None
    residual: Optional[float] = None


def transition_amplitude(spectrum: Spectrum, a: int, b: int, t_prime) -> complex:
    """U(t)_{ab} = (1/n) * sum_r exp(2*pi*i*(gamma_r * t' + r*(a-b)/n))."""
    n = spectrum.n
    gamma = np.array(spectrum.gamma, dtype=float)
    r = np.arange(n, dtype=float)
    phases = gamma * float(t_prime) + r * ((a - b) % n) / n
    return complex(np.exp(2j * np.pi * phases).sum() / n)


def _gaps(gammas: np.ndarray, step: int) -> np.ndarray:
    """Cyclic differences gamma[j+step] - gamma[j] along the last axis."""
    return np.concatenate((gammas[..., step:], gammas[..., :step]), axis=-1) - gammas


def gap_profiles(gammas: np.ndarray) -> list[DifferenceProfile]:
    """Gap profile of every row of a (k, n) integer matrix of spectra.

    The whole matrix goes through a handful of array operations: the cyclic
    gaps and double gaps by rotation and subtraction, the gap gcd by
    np.gcd.reduce of delta_j - delta_0, and the lowest set bit d & -d of
    each gap.  A row has a common valuation when its lowest bits are all
    equal and nonzero; it lies on the quarter orbit when every gap is 2
    (mod 4) and every double gap 4 (mod 8), which is v2 = 1 and v2 = 2 for
    either sign and fails on zero.

    Entries must be integers with |gamma| < 2**60, so that gaps, double
    gaps and delta_j - delta_0 stay exact in int64; anything else raises
    ValueError rather than being truncated or wrapped.  Profiles keep no
    reference to the matrix, so an int64 one is read in place.
    """
    gammas = np.asarray(gammas)
    if not (
        gammas.dtype.kind in "iu"
        and gammas.ndim == 2
        and gammas.shape[1] > 0
        and (
            gammas.size == 0
            or -GAMMA_BOUND < int(gammas.min()) <= int(gammas.max()) < GAMMA_BOUND
        )
    ):
        raise ValueError(
            "spectra must form a (k, n) integer matrix with n >= 1 and every "
            f"|gamma| < 2**60, got dtype {gammas.dtype} and shape {gammas.shape}"
        )
    gammas = gammas.astype(np.int64, copy=False)
    deltas = _gaps(gammas, 1)
    d0 = deltas[:, 0]
    gcds = np.gcd.reduce(deltas - d0[:, None], axis=1)
    low = deltas & -deltas
    common = (low[:, 0] != 0) & (low == low[:, :1]).all(axis=1)
    quarter = ((deltas & 3) == 2).all(axis=1) & ((_gaps(gammas, 2) & 7) == 4).all(axis=1)
    return [
        DifferenceProfile(gammas.shape[1], d, g, bit.bit_length() - 1 if c else None, q)
        for d, g, bit, c, q in zip(
            d0.tolist(),
            gcds.tolist(),
            low[:, 0].tolist(),
            common.tolist(),
            quarter.tolist(),
        )
    ]


def difference_profile(spectrum: Spectrum) -> DifferenceProfile:
    """Gap profile of one spectrum: gap_profiles on a one-row matrix."""
    return gap_profiles(np.array([spectrum.gamma]))[0]


def _difference(n: int, a: int, b: int) -> int:
    """(b - a) mod n for a transfer question; SamePair when a = b mod n."""
    if a % n == b % n:
        raise SamePair(f"a = b = {a % n} asks about periodicity, not transfer")
    return (b - a) % n


def antipodal_pst_by_valuation(spectrum: Spectrum) -> Optional[int]:
    """Common 2-adic valuation m of all cyclic gaps, or None.

    A constant valuation certifies transfer between antipodal vertices at
    t' = 1/2**(m+1); any zero gap or disagreement returns None.
    """
    if spectrum.n % 2:
        raise ValueError(f"antipodal pair needs even n, got {spectrum.n}")
    return difference_profile(spectrum).m


def mst_by_valuation(spectrum: Spectrum) -> bool:
    """Gap valuations all 1 and double-gap valuations all 2 (cyclically)."""
    if spectrum.n % 4:
        raise ValueError(f"quarter orbit needs 4 | n, got {spectrum.n}")
    return difference_profile(spectrum).quarter


def classify_pst(spec: GraphSpec) -> Optional[str]:
    """Divisor-set test for antipodal transfer; returns the case tag or None.

    Cases share the chain B0 = 2*B1star = 4*B2star and split on which of the
    distinguished divisors n/4, n/2 appear:
      i:   directed layer 2 is exactly {n/4} and n/2 not in B,
      ii:  directed layer 2 empty and exactly one of n/4, n/2 in B,
      iii: directed layer 2 empty, both n/4 and n/2 in B, 8 | n, directed
           layer 3 exactly {n/8}, and the chain goes on to 8*B3star.
    """
    n = spec.n
    if n % 4:
        return None
    dp = partition_divisors(spec)
    if not dp.scaled_chain(2):
        return None
    half, quarter = n // 2, n // 4
    d2 = dp.d_layer(2)
    if d2 == frozenset({quarter}):
        return "i" if half not in spec.B else None
    if d2:
        return None
    has_half = half in spec.B
    has_quarter = quarter in spec.B
    if has_half and has_quarter:
        if (
            n % 8 == 0
            and dp.d_layer(3) == frozenset({n // 8})
            and dp.scaled_chain(3)
        ):
            return "iii"
        return None
    if has_half or has_quarter:
        return "ii"
    return None


def _quarter_orbit_layers(spec: GraphSpec) -> Optional[DivisorPartition]:
    """Partition of spec when the conditions shared by both quarter-orbit
    tests hold (8 | n, B0 = 2*B1star = 4*B2star = 8*B3star, directed layer 2
    exactly {n/4}, n/2 not in B); None otherwise."""
    n = spec.n
    if n % 8 or n // 2 in spec.B:
        return None
    dp = partition_divisors(spec)
    return dp if dp.scaled_chain(3) and dp.d_layer(2) == frozenset({n // 4}) else None


def classify_mst(spec: GraphSpec) -> bool:
    """Divisor-set test for transfer around the whole quarter orbit.

    Necessary and sufficient: the shared conditions of
    _quarter_orbit_layers, directed layer 3 contained in {n/8}, and n/8 in
    B or D.  The n/8 class may be undirected or directed because either
    kind puts the needed +-4 into the spectrum: the whole undirected class
    adds +-4 to gamma_j for j = 0 (mod 4) (at n = 8, B = {1} gives
    (4, 0, 0, 0, -4, 0, 0, 0)), and the directed half-class adds +-4 for
    j = 2 (mod 4).  Either term makes the double gaps at even j equal 4
    (mod 8), which mst_by_valuation requires.  mst_sufficient_condition is
    the narrower test that demands the directed half-class.
    """
    dp = _quarter_orbit_layers(spec)
    eighth = spec.n // 8
    return dp is not None and dp.d_layer(3) <= {eighth} and eighth in spec.B | spec.D


def mst_sufficient_condition(spec: GraphSpec) -> bool:
    """Quarter-orbit test with directed layer 3 exactly {n/8}: sufficient only.

    It implies classify_mst but rejects the specs whose n/8 class is
    undirected, the smallest being n = 8, B = {1}, D = {2}, which does
    transfer around the quarter orbit.
    """
    dp = _quarter_orbit_layers(spec)
    return dp is not None and dp.d_layer(3) == frozenset({spec.n // 8})


def undirected_pst_criterion(spec: GraphSpec) -> bool:
    """Transfer test specialized to purely undirected graphs (D empty).

    Equivalent to classify_pst on such specs: the scaled-set chain plus
    exactly one of n/4, n/2 in B.  (With both present the full classifier
    demands a directed layer-3 class, impossible here.)
    """
    if spec.D:
        raise ValueError("undirected criterion is defined for D empty only")
    n = spec.n
    if n % 4:
        return False
    dp = partition_divisors(spec)
    if not (
        dp.b_star(1) == _scaled(dp.b_star(2), 2)
        and dp.b_layer(0) == _scaled(dp.b_star(2), 4)
    ):
        return False
    return (n // 4 in spec.B) != (n // 2 in spec.B)


def oriented_pst_criterion(spec: GraphSpec) -> bool:
    """Transfer test specialized to purely directed graphs (B empty)."""
    if spec.B:
        raise ValueError("oriented criterion is defined for B empty only")
    n = spec.n
    if n % 4:
        return False
    dp = partition_divisors(spec)
    return dp.d_layer(2) == frozenset({n // 4})


def pst_feasible_pair(spectrum: Spectrum, a: int, b: int) -> Optional[Fraction]:
    """Minimal t' in (0, 1] with gamma_j * t' + (a-b)/n integral across gaps.

    Transfer a -> b happens at some time iff a single rational t' clears
    every cyclic gap congruence delta_j * t' + (a-b)/n in Z.  Every witness
    is k/g with g the gap gcd, so the congruences reduce to one linear
    congruence in k, solved with a modular inverse (DifferenceProfile.witness).
    Returns the minimal witness, or None.
    """
    return difference_profile(spectrum).witness(_difference(spectrum.n, a, b))


def minimal_pst_time(spectrum: Spectrum, a: int, b: int) -> Fraction:
    """Witness time from pst_feasible_pair; raises NotFeasible when absent."""
    t = pst_feasible_pair(spectrum, a, b)
    if t is None:
        raise NotFeasible(f"no transfer time exists for pair ({a}, {b})")
    return t


def verify_numeric(
    spectrum: Spectrum, a: int, b: int, t_prime, tol: float = NUMERIC_TOL
) -> tuple[bool, complex, float]:
    """Evaluate |U_ab| at t_prime: (ok, unit phase, |1 - |U||)."""
    amp = transition_amplitude(spectrum, a, b, t_prime)
    mod = abs(amp)
    residual = abs(1.0 - mod)
    phase = amp / mod if mod > 0 else complex(0)
    return residual < tol, phase, residual


def pair_restriction_check(spectrum: Spectrum) -> frozenset[int]:
    """Differences w with transfer 0 -> w feasible; theory confines these
    to {n/4, n/2, 3n/4}.  One gap profile serves every w, so this is linear
    in n."""
    n = spectrum.n
    if n % 4:
        raise ValueError(f"quarter-point differences need 4 | n, got {n}")
    prof = difference_profile(spectrum)
    return frozenset(w for w in range(1, n) if prof.witness(w) is not None)


def _verified_witness(spectrum, prof, a, b, tol):
    """(t', unit phase, residual) of the witness of a -> b read off prof, or
    None without one; a witness failing verify_numeric is a ConsistencyError."""
    t = prof.witness((b - a) % prof.n)
    if t is None:
        return None
    ok, phase, residual = verify_numeric(spectrum, a, b, t, tol)
    if not ok:
        raise ConsistencyError(
            f"witness t'={t} for ({a},{b}) failed numeric check: residual {residual}"
        )
    return t, phase, residual


def _decide_pair(spectrum: Spectrum, a: int, b: int, tol: float) -> TransferVerdict:
    n = spectrum.n
    w = _difference(n, a, b)
    pair = (a % n, b % n)
    prof = difference_profile(spectrum)
    found = _verified_witness(spectrum, prof, a, b, tol)
    if found is None:
        return TransferVerdict(kind="none", pair=pair)
    t, phase, residual = found
    if 2 * w % n == 0:
        kind = "antipodal_pst"
    elif n % 4 == 0 and w in (n // 4, 3 * n // 4):
        kind = "quarter_pst"
    else:
        raise ConsistencyError(f"feasible difference {w} outside quarter points")
    return TransferVerdict(
        kind=kind, pair=pair, m=prof.m, t_prime=t, phase=phase, residual=residual
    )


def antipodal_verdict(spec: GraphSpec, tol: float = NUMERIC_TOL) -> TransferVerdict:
    """Decide transfer between 0 and n/2 from the exact spectrum."""
    n = spec.n
    if n % 2 or n < 2:
        return TransferVerdict(kind="none", pair=())
    return _decide_pair(eigenvalues_closed_form(spec), 0, n // 2, tol)


def pair_verdict(
    spec: GraphSpec, a: int, b: int, tol: float = NUMERIC_TOL
) -> TransferVerdict:
    """Decide transfer between an arbitrary distinct pair."""
    n = spec.n
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError(f"vertices must lie in 0..{n - 1}, got {a}, {b}")
    return _decide_pair(eigenvalues_closed_form(spec), a, b, tol)


def mst_verdict(spec: GraphSpec, tol: float = NUMERIC_TOL) -> TransferVerdict:
    """Decide transfer around the orbit (0, n/4, n/2, 3n/4)."""
    n = spec.n
    if n % 4:
        return TransferVerdict(kind="none", pair=())
    spectrum = eigenvalues_closed_form(spec)
    prof = difference_profile(spectrum)
    orbit = (0, n // 4, n // 2, 3 * n // 4)
    if not prof.quarter:
        return TransferVerdict(kind="none", pair=orbit)
    found = []
    for b in orbit[1:]:
        step = _verified_witness(spectrum, prof, 0, b, tol)
        if step is None:
            return TransferVerdict(kind="none", pair=orbit)
        found.append(step)
    (t, phase, _), worst = found[0], max(residual for _, _, residual in found)
    return TransferVerdict(
        kind="mst", pair=orbit, m=prof.m, t_prime=t, phase=phase, residual=worst
    )
