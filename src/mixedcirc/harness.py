"""Exhaustive enumeration and cross-validation sweeps.

Every valid spec at a given order can be enumerated deterministically; the
crosscheck runs the three independent transfer deciders against each other
over whole families and reports any disagreement.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .circulant import GraphSpec, IndexClasses, SpecError, _class_rows, index_classes, spec_to_json
from .circulant import validate_spec
from .numthy import divisors
from .spectrum import _oracle_spectra
from .transfer import ConsistencyError, _class_weights, _potentials, classify_mst_rows
from .transfer import classify_pst_rows
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
    4, ...): sigma(d) = +1 or -1 on the D-set, 0 elsewhere.  sets holds every
    B-set, the rows of _subsets over cols; index[s], ascending, is b << q | r
    for shape s, b its B-set's row of sets and r its D-set's rank among the
    D-sets, q the count of n/4's divisors, in the narrowest unsigned dtype
    of its largest key (4 bytes a shape at the frontier, not 8); rank maps
    a D-set's key mask to r."""

    n: int
    cols: tuple[int, ...]
    B: np.ndarray
    D: np.ndarray
    ends: np.ndarray
    key: np.ndarray
    tails: np.ndarray
    signed: np.ndarray
    sets: np.ndarray
    index: np.ndarray
    rank: np.ndarray

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
    masks = d_sets[:, pool] @ bits
    b_of, d_of = np.nonzero((sets[:, pool] @ bits)[:, None] & masks == 0)
    D = d_sets[d_of]
    key = np.where(pool, 1 << np.cumsum(pool) - 1, 0)
    tails, signed = np.ones(1, dtype=np.int64), np.zeros((1, len(proper)), dtype=np.int8)
    for c in np.flatnonzero(pool):
        grown = np.repeat(signed, 2, axis=0)
        grown[0::2, c], grown[1::2, c] = 1, -1
        tails, signed = np.concatenate([tails, tails[-1] + 2 * tails]), np.vstack([signed, grown])
    ends = np.cumsum((1 << d_sets.sum(axis=1))[d_of])
    rank = np.empty(len(masks), dtype=np.int64)
    rank[masks] = np.arange(len(masks))
    index = b_of << len(d_pool) | d_of
    index = index.astype(np.min_scalar_type(index[-1]))
    return _Shapes(n, tuple(proper), sets[b_of], D, ends, key, tails, signed, sets, index, rank)


# rows per chunk times the entries of a row: n where rows become specs, the
# class count where the sweep judges its candidate rows on the index
# classes; and in the sweep's join the residues hashed, the B-sets looked
# up and the matched pairs expanded at a time; so memory stays flat
CHUNK_ENTRIES = 2**14


def _located(shapes: _Shapes, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shape index and sigma-table row of each of an order's enumeration rows."""
    shape = shapes.ends.searchsorted(rows, side="right")
    return shape, shapes.tails[shapes.D[shape] @ shapes.key] - (shapes.ends[shape] - rows)


def _rows(shapes: _Shapes, width: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """_located on every row of an order, max(1, CHUNK_ENTRIES // width) rows
    at a time, so that a chunk of specs at width n has about CHUNK_ENTRIES
    entries at any order (enumerate_specs and search)."""
    total, size = int(shapes.ends[-1]), max(1, CHUNK_ENTRIES // width)
    for start in range(0, total, size):
        yield _located(shapes, np.arange(start, min(start + size, total)))


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


def _class_table(classes: IndexClasses, proper: list[int], d_pool: list[int]) -> np.ndarray:
    """Oracle spectra of the single-class specs of the order n of classes,
    whose _pools are proper and d_pool, in two blocks of rows over the
    proper divisors: the class G_n(d) of each, then the +1 half class of
    each d | n/4 (zero rows elsewhere), all _class_rows of one table valuing
    each class 1 or i, as a spec's row is; one pass of _oracle_spectra
    transforms, rounds and checks them: integer floats.  A -1 half class's
    row is the +1 one's negated, and the FFT and rounding are odd, so its
    spectrum is exactly block 1's row negated: sigma weighs block 1."""
    n = len(classes.of)
    values = np.zeros((2, len(proper), n + 1), dtype=complex)
    values[0, range(len(proper)), proper] = 1
    values[1, np.searchsorted(proper, d_pool), d_pool] = 1j  # d_pool is in proper
    return _oracle_spectra(_class_rows(classes, values).reshape(-1, n))


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """starts[i], starts[i] + 1, ..., starts[i] + counts[i] - 1 for each i in turn."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + counts, counts)


def _key(residues: np.ndarray) -> np.ndarray:
    """A fixed hash of each residue vector of a (levels, k, rows) uint64
    array, tagged with its level: its dot product, modulo 2**64, with the
    powers of an odd constant, plus the level."""
    powers = np.full(residues.shape[1], 0x9E3779B97F4A7C15, dtype=np.uint64).cumprod()
    return powers @ residues + np.arange(len(residues), dtype=np.uint64)[:, None]


def _level_keys(members: np.ndarray, table: np.ndarray, classes: IndexClasses, t: int, sign: int):
    """The (levels, rows) join keys (_key) of the rows of members @ table,
    each a B-set's (sign -1) or a sigma row's (sign +1) part of the class
    values: at each level v < bit_length(2n), the residues of -d0 mod
    2**(v+1) and of -P mod 2**(v+t), P the potentials (_potentials), on the
    B side; of d0 - 2**v mod 2**(v+1), which is d0's residue with bit v
    flipped, and of P mod 2**(v+t) on the sigma side.  The residues are
    formed for about CHUNK_ENTRIES at a time, so memory stays flat."""
    levels = np.arange((2 * len(classes.of)).bit_length())[:, None, None]
    low = np.repeat((1 << levels + t) - 1, len(classes.reps) + 1, axis=1)
    low[:, 0] = (2 << levels[:, 0]) - 1
    flip = (sign > 0) << levels[:, 0]
    keys, size = np.empty((len(low), len(members)), dtype=np.uint64), max(1, CHUNK_ENTRIES // low.size)
    for start in range(0, len(members), size):
        d0, potential, _ = _potentials(members[start:start + size] @ table, classes)
        residues = sign * np.vstack([d0, potential.T]).astype(np.int64) & low
        residues[:, 0] ^= flip
        keys[:, start:start + size] = _key(residues.view(np.uint64))
    return keys


def _candidates(
    shapes: _Shapes, classes: IndexClasses, table: np.ndarray, spread: int, judged: np.ndarray
) -> np.ndarray:
    """The ascending enumeration rows of order n = shapes.n that may have a
    witness of transfer to targets whose gcd is n / spread, spread 2 or 4,
    and every row of a shape judged positive; every other row reads
    (classifier False, valuation False, numeric False, restriction True).
    table holds the class values of the single-class specs, the B rows of
    _class_table and then its sigma rows, at the reps.

    By transfer._witnesses, a class row is feasible exactly when d0 != 0
    and, v = v2(d0) and t = v2(spread), 2**(v+t) divides every potential and
    cycle * d0.  Every sweep order is a multiple of 4, so cycle = 4 and
    2**(v+2) divides cycle * d0: the potentials alone decide.  An infeasible
    row's valuation leg is False (the common-valuation flag is feasibility
    at t = 1, and the quarter flag implies it at t = 2), so is its numeric
    leg, and its restriction holds.  _potentials is linear, so a row's d0
    and potentials are its B-set's plus its sigma row's, and the test is one
    equality of residues per level (_level_keys): d0_B + d0_S = 2**v (mod
    2**(v+1)), which makes v = v2(d0), and P_B + P_S = 0 (mod 2**(v+t)).
    No level is missed: |gamma| < n on every row, so |d0| < 2n.  Each part
    is an integral spectrum with |gamma| <= n, so its potentials, under 8n,
    are exact in _potentials' dtype, and so would their sum be, which no
    row forms; a mask of the low bits of a two's-complement int64 is its
    residue, and negation is exact there.  Equal residues give equal keys,
    so no row is lost; a collision only adds a row, which transfer_rows
    then judges exactly.  The sigma keys of every level are sorted once and
    each block of B keys looked up in them; the matches are expanded about
    CHUNK_ENTRIES at a time and kept where the sigma row's D-set shares no
    bit with the B-set, the pair being a row of the order, and its shape is
    not judged positive.  The positive shapes add all their rows; a row met
    twice, by a collision only, is kept once."""
    split, t, q = len(shapes.cols), spread.bit_length() - 1, len(shapes.rank).bit_length() - 1
    s_keys = _level_keys(shapes.signed, table[split:], classes, t, 1).ravel()
    order = s_keys.argsort()
    s_keys = s_keys[order]
    b_masks, s_masks = shapes.sets @ shapes.key, (shapes.signed != 0) @ shapes.key
    sizes = np.diff(shapes.ends, prepend=0)[judged]
    rows = [_ranges(shapes.ends[judged] - sizes, sizes)]
    for start in range(0, len(shapes.sets), CHUNK_ENTRIES):
        keys = _level_keys(shapes.sets[start:start + CHUNK_ENTRIES], table[:split], classes, t, -1)
        b_order = keys.ravel().argsort()
        needles = keys.ravel()[b_order]  # ascending, so each search starts where the last ended
        lo = s_keys.searchsorted(needles)
        count = s_keys.searchsorted(needles, side="right") - lo
        total = np.cumsum(count)
        cuts = [0, *total.searchsorted(range(CHUNK_ENTRIES, total[-1], CHUNK_ENTRIES)), len(total)]
        for a, z in zip(cuts[:-1], cuts[1:]):
            b = start + np.repeat(b_order[a:z] % keys.shape[1], count[a:z])
            s = order[_ranges(lo[a:z], count[a:z])] % len(shapes.signed)
            mask = s_masks[s]
            fit = b_masks[b] & mask == 0
            b, s, mask = b[fit], s[fit], mask[fit]
            # keys of another dtype would make numpy copy the whole index per search
            pairs = (b << q | shapes.rank[mask]).astype(shapes.index.dtype)
            shape = shapes.index.searchsorted(pairs)
            fresh = ~judged[shape]
            rows.append((shapes.ends[shape] - shapes.tails[mask] + s)[fresh])
    # a stable sort maps less of numpy's code, so less peak RSS, than quicksort
    rows = np.sort(np.concatenate(rows), kind="stable")
    return rows[np.diff(rows, prepend=-1) != 0]


def _candidate_chunks(shapes: _Shapes, mode: str, judged: np.ndarray) -> Iterator[tuple]:
    """The candidate rows of an order (_candidates), CHUNK_ENTRIES // C at a
    time, C the class count, in the frozen order: each row's shape and
    sigma-table index, its int32 oracle spectrum held on the order's one
    IndexClasses, a row being gamma[reps], and a (4, rows) bool matrix of
    its classifier answer (judged, per shape), valuation and numeric answers
    and whether it keeps to the pair restriction.  The DFT is linear and the
    classes of a valid spec are disjoint, so a spectrum is B @ G + sigma @
    H, G and H the class table's two blocks, whose representative columns
    are all it needs once the table is checked constant on every class:
    ConsistencyError where it is not.  That check is the real guard of the
    pair restriction leg, which holds by construction on class rows
    (transfer._witnesses).  So a row's values are its B-set's part plus its
    sigma row's, in int32 (sums stay below n); transfer_rows judges each
    chunk on them with the order's (targets, C) table of class weights built
    beside the table from the same classes."""
    n, split = shapes.n, len(shapes.cols)  # the table's B rows, then its sigma rows
    _, quarters, _, valuation = _mode(mode)
    targets = [k * n // 4 for k in quarters]
    classes = index_classes(n)
    full = _class_table(classes, list(shapes.cols), list(compress(shapes.cols, shapes.key)))
    table = full[:, classes.reps]
    if not (full == table[:, classes.of]).all():
        raise ConsistencyError(f"class table of order {n} not constant on its index classes")
    table, weights = table.astype(np.int32), _class_weights(classes, targets)
    rows = _candidates(shapes, classes, table, n // math.gcd(*targets), judged)
    size = max(1, CHUNK_ENTRIES // len(classes.reps))
    for start in range(0, len(rows), size):
        shape, signed = _located(shapes, rows[start:start + size])
        values = shapes.B[shape] @ table[:split] + shapes.signed[signed] @ table[split:]
        legs = transfer_rows(values, targets, classes, weights)
        yield shape, signed, values, np.array([judged[shape], legs[valuation], *legs[2:]])


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
    "restriction" key).  Orders are checked as arrays: every row counts, the
    positives come from the classifier's shapes, and only the candidate rows
    (_candidate_chunks) are formed and judged, every other row reading False
    on all three legs and keeping the restriction; only a mismatch reads its
    sigma row and gets a GraphSpec.  After each order one progress line goes
    to stderr: the order, the specs and mismatches so far, and specs/s."""
    step, _, classifier, _ = _mode(mode)
    if n_max < step:  # an empty sweep would read as a clean one
        raise SpecError(f"{mode} crosscheck starts at order {step}, got n_max {n_max}")
    pools = _budgeted(range(step, n_max + 1, step), budget)
    report = SweepReport(mode=mode, n_range=list(pools))
    positive, start = 0, time.perf_counter()
    for n in report.n_range:
        shapes = _shapes(n, *pools[n])
        judged = classifier(n, shapes.B, shapes.D)
        report.specs_checked += int(shapes.ends[-1])
        positive += int(np.diff(shapes.ends, prepend=0)[judged].sum())
        for shape, signed, _, votes in _candidate_chunks(shapes, mode, judged):
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
