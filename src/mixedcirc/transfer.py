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

from .circulant import GraphSpec
from .numthy import _check_ints, divisors, two_adic_valuation
from .spectrum import IndexClasses, Spectrum, eigenvalues_closed_form

NUMERIC_TOL = 1e-9
GAMMA_BOUND = 2**60  # |gamma| bound under which the gap kernel is exact in int64


class SamePair(ValueError):
    """a = b asks about periodicity, not transfer; reported separately."""


class NotFeasible(ValueError):
    """No rational time achieves transfer for the requested pair."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


def _witness_ks(n: int, d0: int, g: int, diffs: list[int]) -> list[int]:
    """Numerators k of the least witness times k/g in (0, 1] of transfer
    across each nonzero difference w in diffs, for a spectrum with first gap
    d0 and gap gcd g (_gap_columns) whose _step(n, d0, g) divides each w.
    A time s/q in lowest terms makes every delta_j * s/q - w/n integral only
    if each (delta_j - delta_0) * s/q is, so q | g; the gap congruences then
    collapse to the one at delta_0, n*d0*k = w*g (mod n*g), solvable iff
    n*h | w*g, h = gcd(d0, g); then k = (w*g/(n*h)) * (d0/h)^-1 mod g/h,
    never 0 since w/n is not an integer."""
    h = math.gcd(d0, g)
    m = g // h
    inverse = pow(d0 // h, -1, m)
    return [w * g // (n * h) * inverse % m for w in diffs]


def _step(n, d0, g):
    """The step s of the feasible differences of a spectrum with first gap d0
    and gap gcd g, on ints or int64 arrays alike: there is a witness across w
    (_witness_ks) iff n*h | w*g, h = gcd(d0, g), that is iff s = n / gcd(n,
    g/h) divides w; s = n where g = 0, so that no w in 1..n-1 has one."""
    zero = g == 0  # h | 1 and g/h | 1 where g = 0: no division by zero, gcd 1
    return n // np.gcd(n, g // (np.gcd(d0, g) | zero) | zero)


@dataclass(frozen=True)
class TransferVerdict:
    """Decision record for one transfer question."""

    kind: str  # "none" | "antipodal_pst" | "quarter_pst" | "mst"
    pair: tuple[int, ...]
    m: Optional[int] = None
    t_prime: Optional[Fraction] = None
    phase: Optional[complex] = None
    residual: Optional[float] = None


def _verify_one(spectrum: Spectrum, a: int, b: int, t_prime) -> tuple:
    """verify_rows' (ok, amplitude, residual) on one spectrum, pair and time,
    as Python values; ValueError on a time that is not finite."""
    if not math.isfinite(t_prime):
        raise ValueError(f"time must be finite, got {t_prime!r}")
    rows = verify_rows(spectrum.gamma, [[float(t_prime)]], [_offset(spectrum.n, a, b)])
    return tuple(x.item() for x in rows)


def transition_amplitude(spectrum: Spectrum, a: int, b: int, t_prime) -> complex:
    """U(t)_{ab} = (1/n) * sum_r exp(2*pi*i*(gamma_r * t' + r*(a-b)/n)), the
    amplitude of verify_rows on one row and one time."""
    return _verify_one(spectrum, a, b, t_prime)[1]


def _differences(values: np.ndarray, pairs: Optional[np.ndarray], step: int) -> np.ndarray:
    """values[:, b] - values[:, a] for each class pair (a, b) of pairs, or
    where pairs is None, every index being its own class, the cyclic
    differences gamma[j+step] - gamma[j] for every j, taken by slicing."""
    if pairs is None:
        return np.concatenate((values[:, step:], values[:, :step]), axis=1) - values
    return values[:, pairs[1]] - values[:, pairs[0]]


def _gap_columns(
    values: np.ndarray, classes: Optional[IndexClasses] = None
) -> tuple[np.ndarray, ...]:
    """Columns of the gap data of each row of a (k, C) matrix of spectra held
    as values on the index classes (spectrum.IndexClasses), a row being
    gamma[reps], or of a (k, n) matrix of whole spectra where classes is
    None, the singleton partition: d0, the gap gcd (np.gcd.reduce of
    delta_j - delta_0), whether the lowest set bits d & -d of all gaps are
    equal and nonzero (a common valuation, that of d0), and whether every
    gap is 2 (mod 4) and every double gap 4 (mod 8): v2 = 1 and v2 = 2 for
    either sign, false on 0 (double gaps are formed only on rows whose
    common valuation is d0's, 1).  Each gap and double gap is formed once
    per distinct class pair: the gcd, the equality and the residues over the
    pairs are those over every j.  Entries must be integers with
    |gamma| < 2**60, so that gaps, double gaps and delta_j - delta_0 stay
    exact in int64; anything else raises ValueError rather than being
    truncated or wrapped.  The columns are new arrays, so a later write to
    the matrix leaves them as they are.
    """
    values = np.asarray(values)
    shaped = (
        values.dtype.kind in "iu"
        and values.ndim == 2
        and values.shape[1] > 0
        and (classes is None or values.shape[1] == len(classes.reps))
    )
    top = max(-int(values.min()), int(values.max())) if shaped and values.size else 0
    if not shaped or top >= GAMMA_BOUND:
        raise ValueError(
            "spectra must form a (k, C) integer matrix with C >= 1 classes and "
            f"every |gamma| < 2**60, got dtype {values.dtype} and shape {values.shape}"
        )
    # every difference formed below is under 4 * top: int32 holds it where top < 2**29
    values = values.astype(np.int32 if top < 2**29 else np.int64, copy=False)
    gaps, doubles = (None, None) if classes is None else (classes.gaps, classes.doubles)
    deltas = _differences(values, gaps, 1)
    d0 = deltas[:, 0]
    gcds = np.gcd.reduce(deltas - d0[:, None], axis=1)
    low = deltas & -deltas
    common = (low[:, 0] != 0) & (low == low[:, :1]).all(axis=1)
    quarter = common & (d0 & 3 == 2)  # every gap 2 (mod 4): the rows worth a double-gap test
    quarter[quarter] = ((_differences(values[quarter], doubles, 2) & 7) == 4).all(axis=1)
    return d0, gcds, common, quarter


def _row_values(columns) -> tuple[int, int, Optional[int], bool]:
    """One-row gap columns as Python values: d0, the gap gcd g, the 2-adic
    valuation m of d0 where every gap shares it (else None), the quarter flag."""
    d, g, common, quarter = (c.item() for c in columns)
    return d, g, (d & -d).bit_length() - 1 if common else None, quarter


def _profile(spectrum: Spectrum) -> tuple[int, int, Optional[int], bool]:
    """_row_values of the gap columns of one spectrum."""
    return _row_values(_gap_columns(np.array([spectrum.gamma])))


def _offset(n: int, a: int, b: int) -> int:
    """(b - a) mod n for vertices a and b; ValueError unless both obey numthy._is_int."""
    _check_ints(a, b)
    return (b - a) % n


def _difference(n: int, a: int, b: int) -> int:
    """_offset for a transfer question; SamePair when a = b mod n."""
    w = _offset(n, a, b)
    if w == 0:
        raise SamePair(f"a = b = {a % n} asks about periodicity, not transfer")
    return w


def antipodal_pst_by_valuation(spectrum: Spectrum) -> Optional[int]:
    """Common 2-adic valuation m of all cyclic gaps, or None.

    A constant valuation certifies transfer between antipodal vertices at
    t' = 1/2**(m+1); any zero gap or disagreement returns None.
    """
    if spectrum.n % 2:
        raise ValueError(f"antipodal pair needs even n, got {spectrum.n}")
    return _profile(spectrum)[2]


def mst_by_valuation(spectrum: Spectrum) -> bool:
    """Gap valuations all 1 and double-gap valuations all 2 (cyclically)."""
    if spectrum.n % 4:
        raise ValueError(f"quarter orbit needs 4 | n, got {spectrum.n}")
    return _profile(spectrum)[3]


PST_CASES = (None, "i", "ii", "iii")  # the case tags classify_pst_rows indexes


def _divisor_columns(n: int) -> tuple[np.ndarray, ...]:
    """The proper divisors of n, ascending, as the row classifiers' columns;
    the layer v2(n/d) of each; the layer-0 columns; and in row i - 1 their
    images d/2**i, for 2**i | n and i <= 3."""
    cols = np.array(divisors(n)[:-1], dtype=np.int64)
    layer = np.array([two_adic_valuation(n // d) for d in cols.tolist()], dtype=np.int64)
    top, depth = np.flatnonzero(layer == 0), min(3, two_adic_valuation(n))
    image = np.searchsorted(cols, cols[top] >> np.arange(1, depth + 1)[:, None])
    return cols, layer, top, image


def _layer_is(cols, layer, members: np.ndarray, i: int, d: int) -> np.ndarray:
    """Rows of a membership matrix whose layer i is exactly {d}."""
    return (members[:, layer == i] == (cols[layer == i] == d)).all(axis=1)


def _chain(top, image, B: np.ndarray, depth: int) -> np.ndarray:
    """Rows of B with B0 = 2*B1star = ... = 2**depth * B_depth star: d -> d/2**i
    maps layer 0 onto layer i less n/2**i, whose double, n, is no column."""
    return (B[:, None, top] == B[:, image[:depth]]).all(axis=(1, 2))


def classify_pst_rows(n: int, B: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Divisor-set test for antipodal transfer on every row of B and D, boolean
    membership matrices over the proper divisors of n in ascending order;
    returns int8 indices into PST_CASES, 0 where there is no transfer.

    Cases share the chain B0 = 2*B1star = 4*B2star and split on which of the
    distinguished divisors n/4, n/2 appear:
      i:   directed layer 2 is exactly {n/4} and n/2 not in B,
      ii:  directed layer 2 empty and exactly one of n/4, n/2 in B,
      iii: directed layer 2 empty, both n/4 and n/2 in B, 8 | n, directed
           layer 3 exactly {n/8}, and the chain goes on to 8*B3star.
    """
    cases = np.zeros(len(B), dtype=np.int8)
    if n % 4:
        return cases
    cols, layer, top, image = _divisor_columns(n)
    half, quarter = (B[:, np.searchsorted(cols, n // k)] for k in (2, 4))
    chain = _chain(top, image, B, 2)
    open2 = chain & ~D[:, layer == 2].any(axis=1)
    cases[chain & _layer_is(cols, layer, D, 2, n // 4) & ~half] = 1
    cases[open2 & (half != quarter)] = 2
    if n % 8 == 0:
        deep = _layer_is(cols, layer, D, 3, n // 8) & _chain(top, image, B, 3)
        cases[open2 & half & quarter & deep] = 3
    return cases


def classify_mst_rows(n: int, B: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Divisor-set test for transfer around the whole quarter orbit, on every
    row of B and D membership matrices as classify_pst_rows reads them.

    Necessary and sufficient: mst_sufficient_rows with the n/8 class either
    undirected or directed.  The whole undirected class adds +-4 to gamma_j
    for j = 0 (mod 4) (at n = 8, B = {1} gives (4, 0, 0, 0, -4, 0, 0, 0)),
    the directed half-class adds +-4 for j = 2 (mod 4), and either term
    makes the double gaps at even j 4 (mod 8), as mst_by_valuation requires.
    """
    eighth = _divisor_columns(n)[0] == n // 8
    return mst_sufficient_rows(n, B, D | B & eighth)  # the chain never reads B at n/8


def mst_sufficient_rows(n: int, B: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Quarter-orbit test on every row of B and D membership matrices: 8 | n,
    B0 = 2*B1star = 4*B2star = 8*B3star, directed layers 2 and 3 exactly {n/4}
    and {n/8}, and n/2 not in B.  Sufficient only: it rejects the rows whose
    n/8 class is undirected, the smallest being n = 8, B = {1}, D = {2}, which
    does transfer around the quarter orbit (classify_mst_rows)."""
    if n % 8:
        return np.zeros(len(B), dtype=bool)
    cols, layer, top, image = _divisor_columns(n)
    layers = _layer_is(cols, layer, D, 2, n // 4) & _layer_is(cols, layer, D, 3, n // 8)
    return layers & _chain(top, image, B, 3) & ~B[:, np.searchsorted(cols, n // 2)]


def _one_row(spec: GraphSpec) -> tuple[int, np.ndarray, np.ndarray]:
    """spec's order and its B and D as one-row membership matrices."""
    cols = _divisor_columns(spec.n)[0].tolist()
    rows = np.array([[d in s for d in cols] for s in (spec.B, spec.D)], dtype=bool)
    return spec.n, rows[:1], rows[1:]


def classify_pst(spec: GraphSpec) -> Optional[str]:
    """classify_pst_rows on spec: its case tag "i", "ii" or "iii", or None."""
    return PST_CASES[classify_pst_rows(*_one_row(spec))[0]]


def classify_mst(spec: GraphSpec) -> bool:
    """classify_mst_rows on spec: transfer around the whole quarter orbit."""
    return bool(classify_mst_rows(*_one_row(spec))[0])


def mst_sufficient_condition(spec: GraphSpec) -> bool:
    """mst_sufficient_rows on spec: sufficient only, see classify_mst_rows."""
    return bool(mst_sufficient_rows(*_one_row(spec))[0])


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
    if not spec.scaled_chain(2):
        return False
    return (n // 4 in spec.B) != (n // 2 in spec.B)


def oriented_pst_criterion(spec: GraphSpec) -> bool:
    """Transfer test specialized to purely directed graphs (B empty)."""
    if spec.B:
        raise ValueError("oriented criterion is defined for B empty only")
    n = spec.n
    if n % 4:
        return False
    return spec.d_layer(2) == frozenset({n // 4})


def pst_feasible_pair(spectrum: Spectrum, a: int, b: int) -> Optional[Fraction]:
    """Minimal t' in (0, 1] with every delta_j * t' + (a-b)/n integral, read
    off the spectrum's gap columns (_witness_ks), or None where the spectrum's
    _step does not divide the difference.
    """
    n, (d0, g, _, _) = spectrum.n, _profile(spectrum)
    w = _difference(n, a, b)
    if w % _step(n, d0, g):
        return None
    return Fraction(_witness_ks(n, d0, g, [w])[0], g)


def minimal_pst_time(spectrum: Spectrum, a: int, b: int) -> Fraction:
    """Witness time from pst_feasible_pair; raises NotFeasible when absent."""
    t = pst_feasible_pair(spectrum, a, b)
    if t is None:
        raise NotFeasible(f"no transfer time exists for pair ({a}, {b})")
    return t


def verify_rows(gammas, times, diffs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The numeric transfer check on each row of a (k, n) matrix of spectra (or
    one spectrum), at times t' in a (k, T) matrix, across vertex differences
    diffs[j] = (b - a) mod n: (k, T) arrays of ok (residual below NUMERIC_TOL),
    amplitude U_ab and residual |1 - |U||, np.hypot being as exact as abs().
    It holds k*T*n terms: the sweep passes chunks, the verdicts one time each;
    a float matrix or row is read in place, not copied."""
    gammas = np.atleast_2d(np.asarray(gammas, dtype=float))
    n = gammas.shape[1]
    offsets = np.arange(n, dtype=float) * (-np.asarray(diffs) % n)[:, None] / n
    phases = gammas[:, None] * np.asarray(times, dtype=float)[..., None] + offsets
    amps = np.exp(2j * np.pi * phases).sum(axis=2) / n
    residuals = np.abs(1.0 - np.hypot(amps.real, amps.imag))
    return residuals < NUMERIC_TOL, amps, residuals


def verify_numeric(spectrum: Spectrum, a: int, b: int, t_prime) -> tuple[bool, complex, float]:
    """Evaluate |U_ab| at t_prime: (ok, unit phase, |1 - |U||), ok when the
    residual is below NUMERIC_TOL (verify_rows on one row and one time)."""
    ok, amp, residual = _verify_one(spectrum, a, b, t_prime)
    return ok, amp / abs(amp) if amp else complex(0), residual


def pair_restriction_check(spectrum: Spectrum) -> frozenset[int]:
    """Differences w with transfer 0 -> w feasible: the multiples below n of
    the spectrum's _step, which theory confines to {n/4, n/2, 3n/4}."""
    n = spectrum.n
    if n % 4:
        raise ValueError(f"quarter-point differences need 4 | n, got {n}")
    d0, g, _, _ = _profile(spectrum)
    s = _step(n, d0, g)
    return frozenset(range(s, n, s))


def _witnesses(values: np.ndarray, targets: list[int], classes: Optional[IndexClasses] = None):
    """The one route from spectra to checked witnesses of transfer from
    vertex 0 to every one of targets, on a matrix of spectra held on classes
    as _gap_columns reads it (the singleton partition where classes is
    None): its gap columns; the order n/s of each row's group of feasible
    differences, s its _step; the indices of the rows whose step divides
    every target's difference; their numerators k, one list per row, each
    time being k/g with g the row's gap gcd (_witness_ks); and verify_rows'
    (ok, amplitude, residual) arrays on those rows, expanded to all n
    indices by classes.of, at those times, None when no row has one.  An
    empty target list is a ValueError, a target = 0 (mod n) SamePair."""
    values = np.asarray(values)
    columns = d0, gcds, _, _ = _gap_columns(values, classes)
    n = values.shape[1] if classes is None else len(classes.of)
    if not targets:
        raise ValueError("transfer needs at least one target")
    diffs = [_difference(n, 0, b) for b in targets]
    step = _step(n, d0, gcds)
    feasible = np.flatnonzero(np.logical_and.reduce([w % step == 0 for w in diffs]))
    rows = list(zip(d0[feasible].tolist(), gcds[feasible].tolist()))
    ks = [_witness_ks(n, d, g, diffs) for d, g in rows]
    times = [[k / g for k in row] for row, (_, g) in zip(ks, rows)]
    # expanded by one gather in C order: verify_rows then sums each row as
    # it would a full-width matrix's, residual bits included
    full = values[feasible] if classes is None else values[feasible[:, None], classes.of]
    checked = verify_rows(full, times, diffs) if ks else None
    return columns, n // step, feasible, ks, checked


def transfer_rows(
    values: np.ndarray, targets: list[int], classes: Optional[IndexClasses] = None
) -> np.ndarray:
    """A (4, k) bool matrix of answers on transfer from vertex 0 to every one
    of targets, for each row of a matrix of spectra held on classes as
    _gap_columns reads it: the common-valuation flag, the quarter flag and
    the numeric answer, read off _witnesses, a failed check being a numeric
    False for the caller; and whether the row keeps to the pair restriction,
    its feasible differences and 0 forming a group of order 1, 2 or 4, so
    that each is a quarter point."""
    (_, _, common, quarter), order, feasible, _, checked = _witnesses(values, targets, classes)
    numeric = np.zeros_like(common)
    if checked is not None:
        numeric[feasible] = checked[0].all(axis=1)
    return np.array([common, quarter, numeric, 4 % order == 0])


def _verdict(spectrum: Spectrum, orbit: tuple[int, ...]) -> TransferVerdict:
    """Transfer from orbit[0] to every later vertex of orbit, read off
    _witnesses on one spectrum.  A 4-vertex orbit is "mst" where the quarter
    flag holds; one target is "antipodal_pst" at 2w = 0 and "quarter_pst" at
    4w = 0 (mod n), w its difference; else "none".  A witness that fails the
    numeric check, or one to a single target off the quarter points, is a
    ConsistencyError."""
    n = spectrum.n
    diffs = [_difference(n, orbit[0], b) for b in orbit[1:]]
    columns, _, _, ks, checked = _witnesses(np.array([spectrum.gamma]), diffs)
    _, g, m, quarter = _row_values(columns)
    if checked is None:
        return TransferVerdict(kind="none", pair=orbit)
    ok, amps, residuals = checked
    t, worst = Fraction(ks[0][0], g), residuals.max().item()
    if not ok.all():
        raise ConsistencyError(
            f"witness t'={t} to {diffs} failed numeric check: residual {worst}"
        )
    if len(orbit) == 4:
        if not quarter:
            return TransferVerdict(kind="none", pair=orbit)
        kind = "mst"
    elif 2 * diffs[0] % n == 0:
        kind = "antipodal_pst"
    elif 4 * diffs[0] % n == 0:
        kind = "quarter_pst"
    else:
        raise ConsistencyError(f"feasible difference {diffs[0]} outside quarter points")
    amp = amps[0, 0].item()  # ok, so |amp| is near 1
    return TransferVerdict(
        kind=kind, pair=orbit, m=m, t_prime=t, phase=amp / abs(amp), residual=worst
    )


def antipodal_verdict(spec: GraphSpec) -> TransferVerdict:
    """Decide transfer between 0 and n/2 from the exact spectrum."""
    n = spec.n
    if n % 2:
        return TransferVerdict(kind="none", pair=())
    return _verdict(eigenvalues_closed_form(spec), (0, n // 2))


def pair_verdict(spec: GraphSpec, a: int, b: int) -> TransferVerdict:
    """Decide transfer between an arbitrary distinct pair; the vertices are
    checked before the closed form is built."""
    _check_ints(a, b)
    n = spec.n
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError(f"vertices must lie in 0..{n - 1}, got {a}, {b}")
    return _verdict(eigenvalues_closed_form(spec), (a, b))


def mst_verdict(spec: GraphSpec) -> TransferVerdict:
    """Decide transfer around the orbit (0, n/4, n/2, 3n/4)."""
    n = spec.n
    if n % 4:
        return TransferVerdict(kind="none", pair=())
    return _verdict(eigenvalues_closed_form(spec), (0, n // 4, n // 2, 3 * n // 4))
