"""Exhaustive enumeration and cross-validation sweeps.

Every valid spec at a given order can be enumerated deterministically; the
crosscheck runs the three independent transfer deciders against each other
over whole families and reports any disagreement.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .circulant import GraphSpec, SpecError, _class_rows, spec_to_json, validate_spec
from .numthy import divisors
from .spectrum import _oracle_spectra, index_classes
from .transfer import ConsistencyError, _class_weights, classify_mst_rows, classify_pst_rows
from .transfer import transfer_rows

DEFAULT_BUDGET = 10**6


class BudgetExceeded(RuntimeError):
    """The requested sweep would enumerate more specs than the cap allows."""


@dataclass
class SweepReport:
    """Outcome of one crosscheck sweep."""

    mode: str
    n_range: list[int]
    specs_checked: int = 0
    mismatches: list[dict] = field(default_factory=list)
    pst_positive: int = 0
    mst_positive: int = 0
    wall_time: float = 0.0


def _mode(mode: str) -> tuple:
    """Order step, vertex-0 targets in quarters of n, divisor-set leg (on shape
    matrices) and gap-valuation leg (the row of transfer_rows holding the
    common-valuation or the quarter flag) of a mode; read per call, so patched
    classifiers count."""
    if mode == "pst":
        return 4, (2,), lambda n, B, D: classify_pst_rows(n, B, D) != 0, 0
    if mode == "mst":
        return 8, (1, 2, 3), classify_mst_rows, 1
    raise ValueError(f"mode must be 'pst' or 'mst', got {mode!r}")


def _pools(n: int) -> tuple[list[int], list[int]]:
    """Divisors order n offers: its proper divisors for B, those of n/4 for D."""
    if n < 2:
        raise SpecError(f"enumeration needs n >= 2, got {n}")
    validate_spec(n)  # refuses an order over MAX_N as an input error
    return divisors(n)[:-1], divisors(n // 4) if n % 4 == 0 else []


def _count(proper: list[int], d_pool: list[int]) -> int:
    """Closed-form spec count of an order's _pools: 4 per divisor of n/4, 2 per
    other proper divisor (every divisor of n/4 is a proper divisor of n)."""
    return 2 ** (len(proper) - len(d_pool)) * 4 ** len(d_pool)


def _budgeted(orders: Sequence[int], budget: int) -> dict[int, tuple[list[int], list[int]]]:
    """Each order's _pools, the one call per order, or BudgetExceeded at the
    first order whose running spec count passes budget; orders after it are
    never counted."""
    total, pools = 0, {}
    for n in orders:
        pools[n] = _pools(n)
        total += _count(*pools[n])
        if total > budget:
            raise BudgetExceeded(f"{total} specs through order {n} exceed budget {budget}")
    return pools


class _Shapes(NamedTuple):
    """The divisor shapes (B, D) of order n as bool B and D membership matrices
    over the proper divisors cols, one row per shape.  Shape s owns the
    enumeration rows ends[s] - 2**|D_s| up to ends[s], one per sign choice;
    its row ends[s] - k is row tails[D_s @ key] - k of signed, the int8 sigma
    table over cols, which holds for each k in turn the sign choices of the
    D-set whose members are k's bits (key gives n/4's divisors the bits 1, 2,
    4, ...): sigma(d) = +1 or -1 on the D-set, 0 elsewhere."""

    n: int
    cols: tuple[int, ...]
    B: np.ndarray
    D: np.ndarray
    ends: np.ndarray
    key: np.ndarray
    tails: np.ndarray
    signed: np.ndarray

    def specs(self, shape: np.ndarray, signed: np.ndarray) -> Iterator[GraphSpec]:
        """The validated spec of each row given by its shape, which holds its B,
        and its sigma-table row, which holds its D and sigma."""
        for b_on, row in zip(self.B[shape].tolist(), self.signed[signed].tolist()):
            sigma = {d: s for d, s in zip(self.cols, row) if s}
            yield validate_spec(self.n, list(compress(self.cols, b_on)), list(sigma), sigma)


def _subsets(k: int) -> np.ndarray:
    """The 2**k subsets of k items as a bool matrix over the items, one row
    each, in lexicographic order as ascending tuples: the empty set, those
    holding the first item, then the nonempty ones without it.  With item x
    at bit k-1-x of a mask m, the sets before m are its popcount(m) proper
    prefixes and, for each item x not in m ahead of m's last item, the
    2**(k-1-x) sets that leave m at x; so m's row is popcount(m) plus the
    mask of those items, (2**k - 1) & ~m & -2*lowbit(m).  The masks are
    int32, exact for any k whose table fits in memory, so that the shifted
    (2**k, k) matrix is half the size of an int64 one."""
    masks = np.arange(1 << k, dtype=np.int32)
    bits = (masks[:, None] >> np.arange(k - 1, -1, -1, dtype=np.int32) & 1).astype(bool)
    sets = np.empty_like(bits)
    sets[bits.sum(axis=1) + ((1 << k) - 1 & ~masks & -2 * (masks & -masks))] = bits
    return sets


def _shapes(n: int, proper: list[int], d_pool: list[int]) -> _Shapes:
    """The shapes of order n, whose _pools are proper and d_pool, in the
    frozen order: B over the subsets of the proper divisors, then D over
    those of n/4's divisors not in B, each in
    the order of _subsets.  Filtering keeps the order, so the (B set, D set)
    pairs whose bitmasks over n/4's divisors, in the narrowest dtype, share
    no bit list every shape, each with 2**popcount(D set) sign rows.  The
    sigma table grows the same way, one divisor of n/4 at a time in
    ascending order: the blocks so far, then each of their rows with the new
    divisor at +1 and at -1, so every block is in product order, +1 before -1
    and the smallest divisor slowest.  Its 3**|divisors of n/4| rows never
    outnumber the shapes, and it adds nothing per shape."""
    sets = _subsets(len(proper))
    pool = np.array([d in d_pool for d in proper])
    d_sets = sets[~sets[:, ~pool].any(axis=1)]
    bits = 1 << np.arange(len(d_pool), dtype=np.min_scalar_type((1 << len(d_pool)) - 1))
    b_of, d_of = np.nonzero((sets[:, pool] @ bits)[:, None] & (d_sets[:, pool] @ bits) == 0)
    D = d_sets[d_of]
    key = np.where(pool, 1 << np.cumsum(pool) - 1, 0)
    tails, signed = np.ones(1, dtype=np.int64), np.zeros((1, len(proper)), dtype=np.int8)
    for c in np.flatnonzero(pool):
        grown = np.repeat(signed, 2, axis=0)
        grown[0::2, c], grown[1::2, c] = 1, -1
        tails, signed = np.concatenate([tails, tails[-1] + 2 * tails]), np.vstack([signed, grown])
    ends = np.cumsum((1 << d_sets.sum(axis=1))[d_of])
    return _Shapes(n, tuple(proper), sets[b_of], D, ends, key, tails, signed)


# rows per chunk times the entries of a row: n where rows become specs, the
# class count for the sweep, which holds and verifies each row on the index
# classes, so crosscheck memory stays flat
CHUNK_ENTRIES = 2**14


def _rows(shapes: _Shapes, width: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Shape index and sigma-table row of each row of an order,
    max(1, CHUNK_ENTRIES // width) rows at a time: a chunk's rows have about
    CHUNK_ENTRIES entries at any order, the specs of enumerate_specs and
    search at width n, values on the index classes at the sweep's class
    count.  A chunk's shapes are one run, so one product of their D rows
    with key finds their blocks."""
    total, size = int(shapes.ends[-1]), max(1, CHUNK_ENTRIES // width)
    for start in range(0, total, size):
        rows = np.arange(start, min(start + size, total))
        shape = shapes.ends.searchsorted(rows, side="right")
        first = shape[0]
        tails = shapes.tails[shapes.D[first:shape[-1] + 1] @ shapes.key]
        yield shape, tails.take(shape - first) - (shapes.ends[shape] - rows)


def enumerate_specs(n: int) -> Iterator[GraphSpec]:
    """Yield every valid spec of order n, ordered by (B, D, sigma): each shape
    of _shapes with every sign choice, +1 before -1 per divisor (_rows at
    width n).  The order is frozen: golden outputs depend on it."""
    shapes = _shapes(n, *_pools(n))
    for rows in _rows(shapes, n):
        yield from shapes.specs(*rows)


def count_specs(n: int) -> int:
    """Closed-form spec count of order n (_count)."""
    return _count(*_pools(n))


def _class_table(n: int, proper: list[int], d_pool: list[int]) -> np.ndarray:
    """Oracle spectra of the single-class specs of order n, whose _pools are
    proper and d_pool, in two blocks of rows over the proper divisors: the
    class G_n(d) of each, then the +1 half class of each d | n/4 (zero rows
    elsewhere), all _class_rows of one table
    valuing each class 1 or i, as a spec's row is; one pass of _oracle_spectra
    transforms, rounds and checks them: integer floats.  A -1 half class's row
    is the +1 one's negated, and the FFT and rounding are odd, so its
    spectrum is exactly block 1's row negated: sigma weighs block 1."""
    values = np.zeros((2, len(proper), n + 1), dtype=complex)
    values[0, range(len(proper)), proper] = 1
    values[1, np.searchsorted(proper, d_pool), d_pool] = 1j  # d_pool is in proper
    return _oracle_spectra(_class_rows(n, values).reshape(-1, n))


def _judged_chunks(shapes: _Shapes, mode: str) -> Iterator[tuple[np.ndarray, ...]]:
    """_rows at class width (each row's shape and sigma-table index), with
    the rows' int32 oracle spectra held on the order's index classes
    (spectrum.index_classes), a row being gamma[reps], and a (4, rows) bool
    matrix of their classifier, valuation and numeric answers and whether
    each keeps to the pair restriction.  The DFT is linear and the classes
    of a valid spec are disjoint, so a spectrum is B @ G + sigma @ H, G and
    H the class table's two blocks, whose representative columns are all it
    needs once the table is checked constant on every class:
    ConsistencyError where it is not.  That check is the real guard of the
    pair restriction leg, which holds by construction on class rows
    (transfer._witnesses).  So a row's values are its shape's B
    part's plus its sigma row's, in int32 (sums stay below n), once per
    order for the sigma table and per chunk for the B rows of its run of
    shapes (no table over all 2**|cols| B-sets), then gathered and added.  The classifier reads B and D only, so it runs once
    per order; the other legs are transfer_rows on each chunk of
    CHUNK_ENTRIES // C rows, C the class count, which judges each row on
    the 2-adic part of its gap gcd, read off its C class values, folds the
    exact gcd over the rows with a witness and verifies those on them, with
    the order's (targets, C) table of class weights built beside the table."""
    n, split = shapes.n, len(shapes.cols)  # the table's B rows, then its sigma rows
    _, quarters, classifier, valuation = _mode(mode)
    targets = [k * n // 4 for k in quarters]
    full = _class_table(n, list(shapes.cols), list(compress(shapes.cols, shapes.key)))
    judged, classes = classifier(n, shapes.B, shapes.D), index_classes(n)
    table = full[:, classes.reps]
    if not (full == table[:, classes.of]).all():
        raise ConsistencyError(f"class table of order {n} not constant on its index classes")
    table, weights = table.astype(np.int32), _class_weights(n, classes, targets)
    b_table, signed_values = table[:split], shapes.signed @ table[split:]
    for shape, signed in _rows(shapes, len(classes.reps)):
        first = shape[0]
        values = shapes.B[first:shape[-1] + 1] @ b_table
        values = values.take(shape - first, axis=0) + signed_values.take(signed, axis=0)
        legs = transfer_rows(values, targets, classes, weights)
        votes = np.array([judged[shape], legs[valuation], *legs[2:]])
        yield shape, signed, values, votes


def crosscheck(n_max: int, mode: str = "pst", budget: int = DEFAULT_BUDGET) -> SweepReport:
    """Run all three deciders over every valid spec with order up to n_max:
    the multiples of 4 for transfer 0 -> n/2 ("pst"), or of 8 for 0 -> n/4,
    n/2, 3n/4 ("mst").  Raises BudgetExceeded before building any spec, and
    SpecError where n_max is below the mode's first order, 4 or 8.

    Legs per spec: the divisor-set classifier, the gap-valuation test on the
    oracle (FFT) spectrum, and exact witness feasibility verified
    numerically at the fixed NUMERIC_TOL (transfer_rows).  Any disagreement,
    a witness failing the numeric check included, is recorded, and so is a
    spec whose feasible differences stray from the quarter points (the
    "restriction" key).  Orders are checked as arrays (_judged_chunks): only
    a mismatch reads its sigma row and gets a GraphSpec.  After each order
    one progress line goes to stderr: the order, the specs and mismatches so
    far, and specs/s."""
    step = _mode(mode)[0]
    if n_max < step:  # an empty sweep would read as a clean one
        raise SpecError(f"{mode} crosscheck starts at order {step}, got n_max {n_max}")
    pools = _budgeted(range(step, n_max + 1, step), budget)
    report = SweepReport(mode=mode, n_range=list(pools))
    positive, start = 0, time.perf_counter()
    for n in report.n_range:
        shapes = _shapes(n, *pools[n])
        for shape, signed, _, votes in _judged_chunks(shapes, mode):
            report.specs_checked += len(shape)
            positive += int(votes[0].sum())
            bad = (votes[:3] != votes[0]).any(axis=0) | ~votes[3]
            if not bad.any():  # only a chunk with a mismatch builds specs
                continue
            for spec, legs in zip(shapes.specs(shape[bad], signed[bad]), votes[:, bad].T.tolist()):
                row = zip(("classifier", "valuation", "numeric", "restriction"), legs)
                report.mismatches.append({"spec": spec_to_json(spec), **dict(row)})
        rate = report.specs_checked / (time.perf_counter() - start)
        print(f"crosscheck {mode}: order {n} done, {report.specs_checked} specs, "
              f"{rate:.0f} specs/s, {len(report.mismatches)} mismatch(es)", file=sys.stderr)
    setattr(report, f"{mode}_positive", positive)
    report.wall_time = time.perf_counter() - start
    return report


def search_specs(n: int, mode: str = "pst", budget: int = DEFAULT_BUDGET) -> list[GraphSpec]:
    """All specs of order n the mode's classifier marks positive, in enumeration
    order; BudgetExceeded, before building any spec, if order n has over budget.
    The classifier reads B and D only, so one call judges every shape of the
    order on its membership matrices; only a hit gets a GraphSpec."""
    _, _, classifier, _ = _mode(mode)
    shapes = _shapes(n, *_budgeted([n], budget)[n])
    hit = classifier(n, shapes.B, shapes.D)
    chunks = ((shape[hit[shape]], signed[hit[shape]]) for shape, signed in _rows(shapes, n))
    return [spec for rows in chunks for spec in shapes.specs(*rows)]
