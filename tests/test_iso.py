"""Relabeling, canonical forms, and isomorphism against brute force."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from agkit import (
    Magma,
    are_isomorphic,
    canonical_form,
    classify,
    iso,
    mul,
    parse_magma,
    relabel,
)
from agkit.props import CHECKERS

from conftest import (
    ag_universe, brute_isomorphic, magma_perm_pairs, magmas, naive_canon, naive_relabel,
)


def test_relabel_definition():
    m = parse_magma("3:0,0,0,0,1,0,0,0,2")
    p = (0, 2, 1)
    out = relabel(m, p)
    for a in range(3):
        for b in range(3):
            assert mul(out, p[a], p[b]) == p[mul(m, a, b)]


def test_relabel_swap_fixed_point():
    # swapping the two non-zero idempotents maps this table to itself
    m = parse_magma("3:0,0,0,0,1,0,0,0,2")
    assert relabel(m, (0, 2, 1)) == m


def test_relabel_identity_is_noop():
    m = parse_magma("4:0,0,0,0,0,0,0,0,0,0,0,1,0,0,0,2")
    assert relabel(m, (0, 1, 2, 3)) == m


def test_relabel_rejects_non_bijections():
    m = parse_magma("2:0,0,0,0")
    with pytest.raises(ValueError):
        relabel(m, (0, 0))
    with pytest.raises(ValueError):
        relabel(m, (0,))
    with pytest.raises(ValueError):
        relabel(m, (0, 2))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_perm_data_cell_maps_give_relabel_images(n):
    # Every non-identity permutation in permutations() order, with the cell
    # map src of image[pos] = p[t[src[pos]]] and a root cursor of 0.
    entries = iso._perm_data(n)
    assert [p for p, _, _ in entries] == list(itertools.permutations(range(n)))[1:]
    rng = random.Random(n)
    samples = list(ag_universe(n)[:3]) + [
        Magma(n, tuple(rng.randrange(n) for _ in range(n * n))) for _ in range(3)
    ]
    for m in samples:
        for p, src, cursor in entries:
            image = tuple(p[m.table[s]] for s in src)
            assert (cursor, relabel(m, p).table) == (0, image) == (0, naive_relabel(m.table, n, p))


@given(magmas(max_order=6))
def test_reversal_image_is_the_reversed_complement(m):
    # Relabeling by the reversal (n-1, ..., 0) maps cell pos to
    # size - 1 - pos and value v to n - 1 - v.
    n = m.order
    assert relabel(m, range(n - 1, -1, -1)).table == tuple(n - 1 - v for v in reversed(m.table))


@given(magma_perm_pairs())
def test_relabel_preserves_classification(pair):
    m, p = pair
    assert classify(relabel(m, p)) == classify(m)


# Random magmas of orders 1-5, and AG classes of order 4, on which some laws hold.
_checked_magmas = st.one_of(
    magmas(max_order=5), st.integers(0, 330).map(lambda i: ag_universe(4)[i]),
)


@given(_checked_magmas.flatmap(lambda m: st.tuples(st.just(m), st.permutations(range(m.order)))))
def test_every_checker_is_relabel_invariant(pair):
    # The reversal is always among the relabelings: a checker's scan from
    # the top label down visits a table's instances in the order the scan
    # from 0 up visits them on the reversed table.
    m, p = pair
    n = m.order
    for q in (p, range(n - 1, -1, -1)):
        image = relabel(m, q).table
        for name, check in CHECKERS.items():
            assert (check(n, image) is None) == (check(n, m.table) is None), (name, m, tuple(q))


@given(magma_perm_pairs())
def test_canonical_key_is_relabel_invariant(pair):
    m, p = pair
    assert canonical_form(relabel(m, p)) == canonical_form(m)


@given(magmas())
def test_canonical_form_is_idempotent_and_minimal(m):
    c = canonical_form(m)
    assert canonical_form(c) == c
    assert canonical_form(c) == canonical_form(m)
    assert c.table == naive_canon(m.table, m.order)


@given(magmas(max_order=3))
def test_are_isomorphic_matches_brute_force(m):
    # compare against every same-order table reachable by one random probe
    # plus the relabeled copies of m itself
    for p in itertools.permutations(range(m.order)):
        other = relabel(m, p)
        assert are_isomorphic(m, other)
        assert brute_isomorphic(m, other)


def test_non_isomorphic_pairs_detected():
    a = parse_magma("2:0,0,0,0")
    b = parse_magma("2:0,1,1,0")
    assert not are_isomorphic(a, b)
    assert not brute_isomorphic(a, b)
    c = parse_magma("3:0,0,0,0,0,0,0,0,0")
    assert not are_isomorphic(a, c)


def test_canonical_key_equality_iff_brute_isomorphic(small_universe):
    # distinct enumerated classes are pairwise non-isomorphic
    order3 = [m for m in small_universe if m.order == 3][:8]
    for i, m1 in enumerate(order3):
        for m2 in order3[i + 1:]:
            assert canonical_form(m1) != canonical_form(m2)
            assert not brute_isomorphic(m1, m2)


def test_canonical_key_fields():
    m = parse_magma("2:0,1,1,0")
    key = canonical_form(m)
    assert key.order == 2
    assert Magma(key.order, key.table) == canonical_form(m)
    assert type(key) is Magma


def test_canonical_form_refuses_orders_above_ten():
    # Refused before any relabeling is built: order 11 would cache 11! - 1.
    m = Magma(11, (0,) * 121)
    for call in (canonical_form, lambda x: are_isomorphic(x, x)):
        with pytest.raises(ValueError, match="order 11"):
            call(m)
