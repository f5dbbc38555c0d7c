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
PHASE_TOL = 1e-12


class SamePair(ValueError):
    """a = b asks about periodicity, not transfer; reported separately."""


class NotFeasible(ValueError):
    """No rational time achieves transfer for the requested pair."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


@dataclass(frozen=True)
class DifferenceProfile:
    """Cyclic first and second differences of a spectrum, with 2-adic data.

    gap_gcd is g = gcd of delta_j - delta_0 over all j (0 when every gap is
    equal).  A time t' = s/q in lowest terms of transfer across the vertex
    difference w must have q | g, since delta_j * t' - w/n is integral for
    every j only if each (delta_j - delta_0) * s/q is.  So every witness is
    k/g for some k, the gap congruences collapse to the one at delta_0, and
    witness() solves that one with a modular inverse.  Build a profile once
    per spectrum with difference_profile and read it as often as needed.
    """

    deltas: tuple[int, ...]
    step2: tuple[int, ...]
    valuations: tuple[Optional[int], ...]  # None marks a zero gap
    gap_gcd: int

    def common_valuation(self) -> Optional[int]:
        """The 2-adic valuation shared by every gap, or None (zero gap or
        disagreement)."""
        vals = set(self.valuations)
        if None in vals or len(vals) != 1:
            return None
        return vals.pop()

    def quarter_orbit(self) -> bool:
        """Every gap has valuation 1 and every double gap valuation 2.

        d & 7 == 4 holds exactly when v2(d) = 2, for either sign of d, and
        fails for d = 0.
        """
        return all(v == 1 for v in self.valuations) and all(
            d & 7 == 4 for d in self.step2
        )

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
        n = len(self.deltas)
        d0 = self.deltas[0]
        c = n * math.gcd(d0, g)
        if (w * g) % c:
            return None
        m = n * g // c
        # w/n is not an integer, so the residue is never 0 and k lies in 1..m-1
        k = (w * g // c) * pow(n * d0 // c, -1, m) % m
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


def difference_profile(spectrum: Spectrum) -> DifferenceProfile:
    """Gap data of a spectrum in one pass: cyclic gaps gamma[j+1]-gamma[j],
    double gaps gamma[j+2]-gamma[j], the gap valuations and the gap gcd."""
    ext = spectrum.gamma + spectrum.gamma[:2]
    d0 = ext[1] - ext[0]
    deltas, step2, vals = [], [], []
    g = 0
    for x, y, z in zip(ext, ext[1:], ext[2:]):
        d = y - x
        deltas.append(d)
        step2.append(z - x)
        vals.append((d & -d).bit_length() - 1 if d else None)
        g = math.gcd(g, d - d0)
    return DifferenceProfile(
        deltas=tuple(deltas), step2=tuple(step2), valuations=tuple(vals), gap_gcd=g
    )


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
    return difference_profile(spectrum).common_valuation()


def mst_by_valuation(spectrum: Spectrum) -> bool:
    """Gap valuations all 1 and double-gap valuations all 2 (cyclically)."""
    if spectrum.n % 4:
        raise ValueError(f"quarter orbit needs 4 | n, got {spectrum.n}")
    return difference_profile(spectrum).quarter_orbit()


def classify_pst(spec: GraphSpec) -> Optional[str]:
    """Divisor-set test for antipodal transfer; returns the case tag or None.

    Cases share the chain B0 = 2*B1star = 4*B2star and split on which of the
    distinguished divisors n/4, n/2 appear:
      i:   directed layer 2 is exactly {n/4} and n/2 not in B,
      ii:  directed layer 2 empty and exactly one of n/4, n/2 in B,
      iii: directed layer 2 empty, both n/4 and n/2 in B, 8 | n, directed
           layer 3 exactly {n/8}, and B2star = 2*B3star.
    """
    n = spec.n
    if n % 4:
        return None
    dp = partition_divisors(spec)
    if not (dp.b_layer(0) == _scaled(dp.b_star(1), 2) == _scaled(dp.b_star(2), 4)):
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
            and dp.b_star(2) == _scaled(dp.b_star(3), 2)
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
    if not (
        dp.b_layer(0)
        == _scaled(dp.b_star(1), 2)
        == _scaled(dp.b_star(2), 4)
        == _scaled(dp.b_star(3), 8)
    ):
        return None
    return dp if dp.d_layer(2) == frozenset({n // 4}) else None


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


def _decide_pair(
    spectrum: Spectrum, a: int, b: int, tol: float = NUMERIC_TOL
) -> TransferVerdict:
    n = spectrum.n
    prof = difference_profile(spectrum)
    t = prof.witness(_difference(n, a, b))
    if t is None:
        return TransferVerdict(kind="none", pair=(a % n, b % n))
    ok, phase, residual = verify_numeric(spectrum, a, b, t, tol)
    if not ok:
        raise ConsistencyError(
            f"witness t'={t} for ({a},{b}) failed numeric check: residual {residual}"
        )
    w = (b - a) % n
    if 2 * w % n == 0:
        kind = "antipodal_pst"
    elif n % 4 == 0 and w in (n // 4, 3 * n // 4):
        kind = "quarter_pst"
    else:
        raise ConsistencyError(f"feasible difference {w} outside quarter points")
    m = prof.common_valuation() if n % 2 == 0 else None
    return TransferVerdict(
        kind=kind, pair=(a % n, b % n), m=m, t_prime=t, phase=phase, residual=residual
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
    if not prof.quarter_orbit():
        return TransferVerdict(kind="none", pair=orbit)
    times = []
    worst = 0.0
    for b in orbit[1:]:
        t = prof.witness(b)
        if t is None:
            return TransferVerdict(kind="none", pair=orbit)
        ok, phase, residual = verify_numeric(spectrum, 0, b, t, tol)
        if not ok:
            raise ConsistencyError(f"orbit witness ({0},{b}) residual {residual}")
        times.append((t, phase))
        worst = max(worst, residual)
    return TransferVerdict(
        kind="mst",
        pair=orbit,
        m=prof.common_valuation(),
        t_prime=times[0][0],
        phase=times[0][1],
        residual=worst,
    )
