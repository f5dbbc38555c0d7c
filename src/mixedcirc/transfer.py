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
from numbers import Real
from typing import Optional

import numpy as np

from .circulant import GraphSpec, IndexClasses
from .numthy import _check_ints, divisors, ramanujan_sine_sum, ramanujan_sum, two_adic_valuation
from .spectrum import Spectrum, eigenvalues_closed_form

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
    never 0 since w/n is not an integer.  The solver of whole rows (the
    verdicts, pst_feasible_pair), where g/h may be any divisor of n; rows
    held on classes, where g/h divides 4, take _witnesses' closed form."""
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
    as Python values; ValueError on a time that is a bool, not a real number
    or not finite."""
    if isinstance(t_prime, bool) or not isinstance(t_prime, Real) or not math.isfinite(t_prime):
        raise ValueError(f"time must be a finite real number, got {t_prime!r}")
    rows = verify_rows(spectrum.gamma, [[float(t_prime)]], [_offset(spectrum.n, a, b)])
    return tuple(x.item() for x in rows)


def transition_amplitude(spectrum: Spectrum, a: int, b: int, t_prime) -> complex:
    """U(t)_{ab} = (1/n) * sum_r exp(2*pi*i*(gamma_r * t' + r*(a-b)/n)), the
    amplitude of verify_rows on one row and one time."""
    return _verify_one(spectrum, a, b, t_prime)[1]


def _potentials(
    values: np.ndarray, classes: Optional[IndexClasses] = None
) -> tuple[np.ndarray, np.ndarray, int]:
    """The gap kernel's inputs for each row of a (k, C) matrix of spectra held
    as values on the index classes (circulant.IndexClasses), a row being
    gamma[reps], or of a (k, n) matrix of whole spectra where classes is
    None, the singleton partition: d0, the potential columns and the cycle
    k, the gap gcd g (that of every delta_j - delta_0) being that of the
    potentials and k * d0 (_gap_gcds).  On classes the potentials are
    gamma_C - gamma_of[0] - (reps[C] mod k) * d0, k = classes.cycle
    (IndexClasses proves it); on whole spectra they are every gap less d0,
    taken by slicing, where j * d0 could overflow, and k = 0.  Entries must
    be integers with |gamma| < 2**60, so that every value formed, under 8 *
    max|gamma|, stays exact in int64; anything else raises ValueError rather
    than being truncated or wrapped.  The arrays are new, so a later write to
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
    # every value formed below is under 8 * top: int32 holds it where top < 2**28
    values = values.astype(np.int32 if top < 2**28 else np.int64, copy=False)
    if classes is None:
        deltas = np.concatenate((values[:, 1:], values[:, :1]), axis=1) - values
        return deltas[:, 0], deltas[:, 1:] - deltas[:, :1], 0
    # one class a row: a fold then takes a whole class into every row's
    # running value at once, faster than along each row
    of, cycle = classes.of, classes.cycle
    potential = values.T.copy()
    d0 = potential[of[1]] - potential[of[0]]
    potential -= potential[of[:1]]
    potential -= (classes.reps % cycle).astype(values.dtype)[:, None] * d0
    return d0, potential.T, cycle


def _gap_gcds(d0: np.ndarray, potential: np.ndarray, cycle: int) -> np.ndarray:
    """The exact gap gcd g of each row of _potentials' output: the gcd of its
    potentials and cycle * d0."""
    spread = np.gcd.reduce(potential, axis=1)
    # gcd(spread, cycle * d0) as h * gcd(spread / h, cycle), h = gcd(spread, d0):
    # no product exceeds the gap gcd, whatever cycle is
    h = np.gcd(spread, d0)
    return h * np.gcd(spread // (h | (h == 0)), cycle)


def _flags(d0: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether all gaps share d0's 2-adic valuation v, and whether every gap
    is 2 (mod 4) and every double gap 4 (mod 8): v2 = 1 and v2 = 2 for
    either sign, false on 0, for rows with first gap d0 and gap gcd g.  Each
    gap is d0 plus a multiple of g, so the valuation is common iff d0 != 0
    and 2**(v+1) divides g.  The quarter flag holds iff d0 = 2 (mod 4) and
    8 | g: every gap is 2 (mod 4) iff d0 is and 4 | g; then delta_j = d0 +
    4*a_j, a_0 = 0, and each double gap delta_j + delta_{j+1} = 4 + 4*(a_j +
    a_{j+1}) (mod 8), so all are 4 (mod 8) iff every a_j has a_0's parity,
    that is iff 8 | g.  Both read only the bits of g below 2 * lowbit(d0)
    and below 8."""
    low = d0 & -d0
    return (low != 0) & (g & (2 * low - 1) == 0), (d0 & 3 == 2) & (g & 7 == 0)


def _gap_columns(
    values: np.ndarray, classes: Optional[IndexClasses] = None
) -> tuple[np.ndarray, ...]:
    """Columns of the gap data of each row of a matrix of spectra, whole or
    held on classes as _potentials reads it: d0, the exact gap gcd g
    (_gap_gcds), and the common-valuation and quarter flags (_flags)."""
    d0, potential, cycle = _potentials(values, classes)
    gcds = _gap_gcds(d0, potential, cycle)
    return (d0, gcds, *_flags(d0, gcds))


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
    """Gap valuations all 1 and double-gap valuations all 2 (cyclically),
    read as d0 = 2 (mod 4) and 8 | g (_flags proves it)."""
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
    return _quarter_orbit_rows(n, B, D, undirected_eighth=True)


def mst_sufficient_rows(n: int, B: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Quarter-orbit test on every row of B and D membership matrices: 8 | n,
    B0 = 2*B1star = 4*B2star = 8*B3star, directed layers 2 and 3 exactly {n/4}
    and {n/8}, and n/2 not in B.  Sufficient only: it rejects the rows whose
    n/8 class is undirected, the smallest being n = 8, B = {1}, D = {2}, which
    does transfer around the quarter orbit (classify_mst_rows)."""
    return _quarter_orbit_rows(n, B, D, undirected_eighth=False)


def _quarter_orbit_rows(n: int, B: np.ndarray, D: np.ndarray, undirected_eighth: bool):
    """mst_sufficient_rows, where undirected_eighth holds (classify_mst_rows)
    also passing the rows whose layer 3 of D | (B at n/8) is {n/8}: B and D
    being disjoint, those with D's layer 3 empty and n/8 in B."""
    if n % 8:
        return np.zeros(len(B), dtype=bool)
    cols, layer, top, image = _divisor_columns(n)
    third = _layer_is(cols, layer, D, 3, n // 8)
    if undirected_eighth:
        third |= _layer_is(cols, layer, D, 3, 0) & B[:, np.searchsorted(cols, n // 8)]
    layers = _layer_is(cols, layer, D, 2, n // 4) & third
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


def verify_rows(gammas, times, diffs, weights=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The numeric transfer check on each row of a (k, n) matrix of spectra (or
    one spectrum), at times t' in a (k, T) matrix, across vertex differences
    diffs[j] = (b - a) mod n: (k, T) arrays of ok (residual below NUMERIC_TOL),
    amplitude U_ab and residual |1 - |U||, np.hypot being as exact as abs().
    Whole rows sum the k*T*n terms exp(2*pi*i*(gamma_r*t' - r*w/n)) / n, the
    verdicts one time each; a float matrix or row is read in place, not
    copied.  Where weights is given, the rows are (k, C) values on index
    classes (circulant.IndexClasses), a row being gamma[reps], and weights the
    (T, C) table _class_weights(classes, diffs): the same sum taken
    class by class, U = sum over C of weights[j, C] * exp(2*pi*i*gamma_C*t'),
    in k*T*C terms, the table standing in for diffs."""
    gammas = np.atleast_2d(np.asarray(gammas, dtype=float))
    times = np.asarray(times, dtype=float)[..., None]
    if weights is None:
        n = gammas.shape[1]
        offsets = np.arange(n, dtype=float) * (-np.asarray(diffs) % n)[:, None] / n
        amps = np.exp(2j * np.pi * (gammas[:, None] * times + offsets)).sum(axis=2) / n
    else:
        amps = (np.exp(2j * np.pi * (gammas[:, None] * times)) * weights).sum(axis=2)
    residuals = np.abs(1.0 - np.hypot(amps.real, amps.imag))
    return residuals < NUMERIC_TOL, amps, residuals


def _class_weights(classes: IndexClasses, diffs: list[int]) -> np.ndarray:
    """The (T, C) complex table of W_C(w) / n, W_C(w) the sum of
    exp(-2*pi*i*r*w/n) over the indices r of class C, for each w in diffs
    and each index class C of classes, n = len(classes.of), from the
    Ramanujan kernels at m = n/g, g the class's gcd: c_m(w) where its turn
    is 0 (a whole gcd class, 4 not dividing m), and (c_m(w) + turn *
    i*s_m(w))/2 on the half classes, which share c_m's cosine terms and
    split s_m's sine terms.  Every W_C(w) is an integer or half of one,
    exact in floats; the kernels take Python ints, once per distinct (m, w),
    the half classes sharing theirs."""
    n = len(classes.of)
    ms, turns = (n // classes.g).tolist(), classes.turn.tolist()
    qs = [w % n or n for w in diffs]  # w = 0 (mod n): c_m(n) = phi(m), s_m(n) = 0
    cos = {(m, q): ramanujan_sum(m, q) for m in set(ms) for q in set(qs)}
    sin = {(m, q): ramanujan_sine_sum(m, q) for m in set(ms) if m % 4 == 0 for q in set(qs)}
    table = [[complex(cos[m, q], t * sin[m, q]) / 2 if t else cos[m, q] for m, t in zip(ms, turns)]
             for q in qs]
    return np.array(table, dtype=complex).reshape(len(qs), len(ms)) / n


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


def _witnesses(
    values: np.ndarray, targets: list[int], classes: Optional[IndexClasses] = None, weights=None
):
    """The one route from spectra to checked witnesses of transfer from
    vertex 0 to every one of targets, on a matrix of spectra held on classes
    as _potentials reads it (the singleton partition where classes is None):
    its gap columns; the order n/s of each row's group of feasible
    differences, s its _step; the indices of the rows whose step divides
    every target's difference, that is their gcd; their numerators k as a
    (rows, targets) array, each time being k/g with g the row's gap gcd,
    solved once per distinct (d0, g) among them on whole rows
    (_witness_ks) and as one array formula on rows held on classes (below);
    and verify_rows' (ok, amplitude, residual) arrays on those rows at
    those times, None when no row has one.

    Whole rows fold the exact g on every row: there g divides only n * d0,
    so the order n/s may be any divisor of n, and the pair restriction
    (transfer_rows) is a real check.  Rows held on classes are judged on low
    = 2**v2(g), the lowest set bit of the OR of their potentials and cycle *
    d0 (0 exactly where all are 0, that is where g = 0), and the exact g is
    folded over the feasible rows only; the gap column holds g there and low
    elsewhere.  low gives what g gives: g divides k * d0, k = cycle | 4, so
    with h = gcd(d0, g), g/h divides k * (d0/h) and is prime to d0/h, hence
    divides k and is a power of 2; then g/h = 2**(v2(g) - min(v2(d0),
    v2(g))) = low / gcd(d0, low), both 1 where d0 = 0, and _step reads g
    only through g/h (and g = 0); _flags read only the bits of g below 2 *
    lowbit(d0) and below 8, which are low's.  So on classes the order n/s =
    gcd(n, g/h) divides 4 and the restriction holds by construction, once
    the class table passes its constancy check (harness._candidate_chunks),
    which stays the real guard there.  The same reading decides which class
    rows are feasible for targets whose gcd is n / 2**e, e >= 1 with 2**e |
    n: s divides n / 2**e exactly when 2**e divides g/h, that is, with v =
    v2(d0), when d0 != 0 and 2**(v+e) divides g, every potential and cycle
    * d0; where d0 = 0, g/h = 1 or g = 0 and no row is feasible.  The sweep
    forms and judges only the rows that test may leave (harness._candidates).
    On those feasible class rows _witness_ks' k = (w*g/(n*h)) * (d0/h)^-1
    mod m, m = g/h, is solved in closed form: d0/h is prime to m, which
    divides 4, and every unit modulo 1, 2 or 4 is its own inverse, so
    (d0/h)^-1 = d0/h (mod m); and w*g/(n*h) = w*m/n, an integer below m
    since w < n.  So k = (w*m // n) * (d0/h mod m) mod m, both factors
    below 4 and their product below 16, exact in any integer dtype whatever
    |gamma| is.

    Rows held on classes are checked on their class values with weights,
    the _class_weights table of the targets, which goes with classes and
    only with them.  A row with an entry of 2**29 or more is checked modulo
    g: each phase gamma*k/g moves by an integer and stays below k, where
    float(gamma)*k/g would lose its fraction; smaller entries are read as
    they are, so graph spectra keep their float phases bit for bit.  An
    empty target list is a ValueError, a target = 0 (mod n) SamePair."""
    values = np.asarray(values)
    d0, potential, cycle = _potentials(values, classes)
    n = values.shape[1] if classes is None else len(classes.of)
    if not targets:
        raise ValueError("transfer needs at least one target")
    if (classes is None) != (weights is None):
        raise ValueError("class weights go with classes, and classes with weights")
    diffs = [_difference(n, 0, b) for b in targets]
    if classes is None:
        gcds = _gap_gcds(d0, potential, cycle)
    else:
        gcds = np.bitwise_or.reduce(potential, axis=1) | cycle * d0
        gcds &= -gcds
    step = _step(n, d0, gcds)
    feasible = np.flatnonzero(math.gcd(*diffs) % step == 0)
    if classes is not None and feasible.size:
        gcds[feasible] = _gap_gcds(d0[feasible], potential[feasible], cycle)
    spectra, g = values[feasible], gcds[feasible, None]
    if classes is None:
        rows = list(zip(d0[feasible].tolist(), gcds[feasible].tolist()))
        solved = {row: _witness_ks(n, *row, diffs) for row in set(rows)}
        ks = np.array([solved[row] for row in rows], dtype=np.int64).reshape(len(rows), len(diffs))
    else:  # g/h divides 4, so d0/h is its own inverse modulo g/h
        d = d0[feasible, None]
        h = np.gcd(d, g)
        m = g // h
        ks = np.array(diffs) * m // n * (d // h % m) % m
    if feasible.size and (spectra.max() >= 2**29 or spectra.min() <= -(2**29)):
        spectra = spectra.astype(np.int64)
        large = (np.abs(spectra) >= 2**29).any(axis=1)
        spectra[large] %= g[large]
    checked = verify_rows(spectra, ks / g, diffs, weights) if feasible.size else None
    return (d0, gcds, *_flags(d0, gcds)), n // step, feasible, ks, checked


def transfer_rows(
    values: np.ndarray, targets: list[int], classes: Optional[IndexClasses] = None, weights=None
) -> np.ndarray:
    """A (4, k) bool matrix of answers on transfer from vertex 0 to every one
    of targets, for each row of a matrix of spectra held on classes as
    _potentials reads it: the common-valuation flag, the quarter flag and
    the numeric answer, read off _witnesses (with classes, their weights
    table, which a caller holding many chunks of one order builds once, and
    witness times solved as arrays, with no per-row Python), a
    failed check being a numeric False for the caller; and whether the row
    keeps to the pair restriction, its feasible differences and 0 forming a
    group of order 1, 2 or 4, so that each is a quarter point.  On whole
    rows that is a real check; on rows held on classes it holds by
    construction (_witnesses proves it), and the class table's constancy
    check (harness._candidate_chunks) is the real guard.  The sweep calls it
    on the rows its join leaves only (harness._candidates)."""
    witnesses = _witnesses(values, targets, classes, weights)
    (_, _, common, quarter), order, feasible, _, checked = witnesses
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
    t, worst = Fraction(ks[0, 0].item(), g), residuals.max().item()
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
