"""Shared graph fixtures used across the test modules.

The five named graphs are the recurring hand-checked examples: a mixed
order-8 graph exercising both arc layers, the three order-8 graphs realizing
the antipodal-transfer cases i/ii/iii, and the order-16 graph with transfer
around the whole quarter orbit.  reference_shapes and reference_specs are
the tuple generators of the frozen enumeration order, which the shape
matrices of mixedcirc.harness must reproduce.  failing_verify_rows stands
in for mixedcirc.transfer.verify_rows, the one numeric check, to inject a
failed amplitude check; unit_step stands in for mixedcirc.transfer._step to
inject rows whose feasible differences stray off the quarter points.
"""

from itertools import chain, combinations, product

import numpy as np

from mixedcirc import GraphSpec, validate_spec
from mixedcirc.numthy import divisors
from mixedcirc.transfer import _step


def two_arc_layer_graph() -> GraphSpec:
    # order 8, one undirected class, arcs from both admissible layers
    return validate_spec(8, [4], [1, 2], {1: 1, 2: -1})


def pst_case_i_graph() -> GraphSpec:
    return validate_spec(8, [1], [2], {2: -1})


def pst_case_ii_graph() -> GraphSpec:
    return validate_spec(8, [2], [1], {1: 1})


def pst_case_iii_graph() -> GraphSpec:
    return validate_spec(8, [2, 4], [1], {1: -1})


def mst_example_graph() -> GraphSpec:
    return validate_spec(16, [1], [2, 4], {2: 1, 4: -1})


def all_specs(n_values):
    """Every valid spec at each listed order, enumeration order."""
    from mixedcirc import enumerate_specs

    for n in n_values:
        yield from enumerate_specs(n)


def reference_shapes(n: int):
    """The shapes (B, D) of order n as ascending tuples, in the frozen order:
    B over subsets of the proper divisors, then D over those of n/4's
    divisors not in B, each in lexicographic tuple order."""
    def subsets_lex(items):
        subs = chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))
        return sorted(subs)

    proper = divisors(n)[:-1]
    d_pool = divisors(n // 4) if n % 4 == 0 else []
    for b_tuple in subsets_lex(proper):
        for d_tuple in subsets_lex([d for d in d_pool if d not in b_tuple]):
            yield b_tuple, d_tuple


def reference_specs(n: int):
    """Every spec of order n in the frozen order: each reference shape with
    every sign choice, +1 before -1 per divisor, the smallest slowest."""
    for b_tuple, d_tuple in reference_shapes(n):
        for signs in product((1, -1), repeat=len(d_tuple)):
            yield validate_spec(n, b_tuple, d_tuple, dict(zip(d_tuple, signs)))


def failing_verify_rows(gammas, times, diffs, weights=None):
    """verify_rows with every entry failing: ok False, amplitude 1, residual 0.5."""
    shape = np.shape(times)
    return np.zeros(shape, dtype=bool), np.ones(shape, dtype=complex), np.full(shape, 0.5)


def unit_step(n, d0, g):
    """transfer._step with 1 wherever the true step is below n: every
    difference is feasible on those rows, off the quarter points once 8 | n,
    while the witness across n/2, a multiple of the true step, is kept."""
    step = _step(n, d0, g)
    return np.where(step < n, 1, step)
