"""Canonical forms and isomorphism tests for finite magmas.

The canonical form is the Magma whose row-major table is lexicographically
least over all n! relabelings: two magmas are isomorphic iff their
canonical forms are equal.
Full minimization is affordable up to MAX_CANON_ORDER, so no
partition-refinement machinery is used; larger orders are refused.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice, permutations
from typing import Sequence

from .core import Magma


def _cell_map(n: int, p: Sequence[int]) -> tuple[int, ...]:
    """Preimage cells of the relabeling by p: image[pos] = p[t[src[pos]]] with
    src[pos] = q[pos // n] * n + q[pos % n] for the inverse q of p."""
    q = [0] * n
    for i, v in enumerate(p):
        q[v] = i
    return tuple(q[pos // n] * n + q[pos % n] for pos in range(n * n))


def relabel(m: Magma, p: Sequence[int]) -> Magma:
    """Isomorphic image under permutation p: table'(p(a), p(b)) = p(table(a, b))."""
    n = m.order
    if sorted(p) != list(range(n)):
        raise ValueError(f"{tuple(p)!r} is not a permutation of 0..{n - 1}")
    t = m.table
    return Magma(n, tuple(p[t[s]] for s in _cell_map(n, p)))


@lru_cache(maxsize=None)
def _perm_data(n: int) -> tuple:
    """(p, _cell_map(n, p), 0) for each permutation but the identity, which
    permutations() yields first; 0 is the enumeration search's root cursor."""
    return tuple((p, _cell_map(n, p), 0) for p in islice(permutations(range(n)), 1, None))


def _min_table(n: int, t: tuple[int, ...]) -> tuple[int, ...]:
    """Least relabeled table, comparing images lazily so most permutations
    are discarded after a few cells.  The identity is not in _perm_data;
    best starts as its image t."""
    size = n * n
    best = list(t)
    for p, src, _ in _perm_data(n):
        pos = 0
        while pos < size:
            val = p[t[src[pos]]]
            cur = best[pos]
            if val != cur:
                if val < cur:
                    best[pos:] = [p[t[src[r]]] for r in range(pos, size)]
                break
            pos += 1
    return tuple(best)


# Largest order canonical_form and the enumeration search accept.  _perm_data keeps all n! - 1
# relabelings with an n*n cell map each: 347 MiB measured at order 9, so
# about 3.6 GiB at order 10 and 50 GB at order 11.
MAX_CANON_ORDER = 10


def _refuse_order(n: int, what: str) -> None:
    """Raise ValueError, naming what needs the relabelings, when n > MAX_CANON_ORDER."""
    if n > MAX_CANON_ORDER:
        raise ValueError(f"{what} needs all {n}! relabelings in memory; orders above {MAX_CANON_ORDER} are refused")


def canonical_form(m: Magma) -> Magma:
    """The canonical representative of m's isomorphism class: the least
    row-major table over all relabelings.  Orders above MAX_CANON_ORDER
    raise ValueError."""
    _refuse_order(m.order, f"canonical form of order {m.order}")
    return Magma(m.order, _min_table(m.order, m.table))


def are_isomorphic(m1: Magma, m2: Magma) -> bool:
    """True iff the magmas have equal order and equal canonical forms."""
    return m1.order == m2.order and canonical_form(m1) == canonical_form(m2)
