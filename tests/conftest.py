"""Shared test oracles and strategies.

The oracles here re-derive results through independent code paths: an
identity evaluator over explicit term trees, a filter-everything
enumeration, and a try-all-permutations isomorphism test.  They must not
call into the package internals they are used to check.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from agkit import Magma, enumerate_ag, fixtures

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


# --- term-tree identity oracle ---------------------------------------------

def V(i: int):
    return ("v", i)


def M(x, y):
    return ("m", x, y)


def eval_term(term, t, n, env):
    if term[0] == "v":
        return env[term[1]]
    return t[eval_term(term[1], t, n, env) * n + eval_term(term[2], t, n, env)]


# name -> (nvars, when, musts); when is a list of (lhs, rhs) hypothesis
# equations, musts a list of (lhs, rhs) equations all of which must hold
# wherever every hypothesis does.
ORACLE_IDENTITIES = {
    "ag": (3, [], [(M(M(V(0), V(1)), V(2)), M(M(V(2), V(1)), V(0)))]),
    "right_ag": (3, [], [(M(V(0), M(V(1), V(2))), M(V(2), M(V(1), V(0))))]),
    "cyclic_associative": (3, [], [(M(V(0), M(V(1), V(2))), M(V(2), M(V(0), V(1))))]),
    "associative": (3, [], [(M(M(V(0), V(1)), V(2)), M(V(0), M(V(1), V(2))))]),
    "commutative": (2, [], [(M(V(0), V(1)), M(V(1), V(0)))]),
    "medial": (
        4, [],
        [(M(M(V(0), V(1)), M(V(2), V(3))), M(M(V(0), V(2)), M(V(1), V(3))))],
    ),
    "paramedial": (
        4, [],
        [(M(M(V(0), V(1)), M(V(2), V(3))), M(M(V(3), V(1)), M(V(2), V(0))))],
    ),
    "ag_star": (3, [], [(M(M(V(0), V(1)), V(2)), M(V(1), M(V(0), V(2))))]),
    "ag_star_star": (3, [], [(M(V(0), M(V(1), V(2))), M(V(1), M(V(0), V(2))))]),
    "left_nuclear_square": (
        3, [],
        [(M(M(V(0), V(0)), M(V(1), V(2))), M(M(M(V(0), V(0)), V(1)), V(2)))],
    ),
    "middle_nuclear_square": (
        3, [],
        [(M(V(0), M(M(V(1), V(1)), V(2))), M(M(V(0), M(V(1), V(1))), V(2)))],
    ),
    "right_nuclear_square": (
        3, [],
        [(M(V(0), M(V(1), M(V(2), V(2)))), M(M(V(0), V(1)), M(V(2), V(2))))],
    ),
    "bol_star": (
        4, [],
        [(M(V(0), M(M(V(1), V(2)), V(3))), M(M(M(V(0), V(1)), V(2)), V(3)))],
    ),
    "T1": (
        4,
        [(M(V(0), V(1)), M(V(2), V(3)))],
        [(M(V(1), V(0)), M(V(3), V(2)))],
    ),
    "T3_left": (
        3,
        [(M(V(0), V(1)), M(V(0), V(2)))],
        [(M(V(1), V(0)), M(V(2), V(0)))],
    ),
    "T3_right": (
        3,
        [(M(V(1), V(0)), M(V(2), V(0)))],
        [(M(V(0), V(1)), M(V(0), V(2)))],
    ),
    "left_alternative": (
        2, [],
        [(M(M(V(0), V(0)), V(1)), M(V(0), M(V(0), V(1))))],
    ),
    "right_alternative": (
        2, [],
        [(M(V(1), M(V(0), V(0))), M(M(V(1), V(0)), V(0)))],
    ),
    "left_commutative": (
        3, [],
        [(M(M(V(0), V(1)), V(2)), M(M(V(1), V(0)), V(2)))],
    ),
    "right_commutative": (
        3, [],
        [(M(V(0), M(V(1), V(2))), M(V(0), M(V(2), V(1))))],
    ),
    "band": (1, [], [(M(V(0), V(0)), V(0))]),
    "three_band": (
        1, [],
        [(M(M(V(0), V(0)), V(0)), V(0)), (M(V(0), M(V(0), V(0))), V(0))],
    ),
    # Idempotents multiply to idempotents and form a semilattice.
    "idempotents_form_semilattice": (
        3,
        [(M(V(0), V(0)), V(0)), (M(V(1), V(1)), V(1)), (M(V(2), V(2)), V(2))],
        [
            (M(M(V(0), V(1)), M(V(0), V(1))), M(V(0), V(1))),
            (M(V(0), V(1)), M(V(1), V(0))),
            (M(M(V(0), V(1)), V(2)), M(V(0), M(V(1), V(2)))),
        ],
    ),
    # An idempotent e is a two-sided identity on eS and Se.
    "idempotent_identity_on_cosets": (
        2,
        [(M(V(0), V(0)), V(0))],
        [
            (M(V(0), M(V(0), V(1))), M(V(0), V(1))),
            (M(M(V(0), V(1)), V(0)), M(V(0), V(1))),
            (M(V(0), M(V(1), V(0))), M(V(1), V(0))),
            (M(M(V(1), V(0)), V(0)), M(V(1), V(0))),
        ],
    ),
}

# Composite properties: conjunction of parts, first failing part decides
# the witness, in this order.
ORACLE_COMPOSITES = {
    "semilattice": ("commutative", "band"),
    "nuclear_square": (
        "left_nuclear_square",
        "middle_nuclear_square",
        "right_nuclear_square",
    ),
    "alternative": ("left_alternative", "right_alternative"),
    "bicommutative": ("left_commutative", "right_commutative"),
    "T3": ("T3_left", "T3_right"),
}


def oracle_check(m: Magma, name: str):
    """Independent property check: (holds, witness-or-None)."""
    n, t = m.order, m.table
    if name == "has_left_identity":
        holds = any(
            all(t[e * n + a] == a for a in range(n)) for e in range(n)
        )
        return holds, None
    if name == "has_cancellative_element":
        # Some a cancels on both sides: its row and its column each
        # contain every element.
        every = list(range(n))
        holds = any(
            sorted(t[a * n + b] for b in range(n)) == every
            and sorted(t[b * n + a] for b in range(n)) == every
            for a in range(n)
        )
        return holds, None
    if name in ORACLE_COMPOSITES:
        for part in ORACLE_COMPOSITES[name]:
            holds, w = oracle_check(m, part)
            if not holds:
                return False, w
        return True, None
    env = oracle_failure(m, name, range(n))
    return env is None, env


def oracle_failure(m: Magma, name: str, labels):
    """The first env of product(labels, repeat=nvars) at which the identity
    name fails on m, or None where it holds."""
    n, t = m.order, m.table
    nvars, when, musts = ORACLE_IDENTITIES[name]
    for env in itertools.product(labels, repeat=nvars):
        if any(eval_term(lhs, t, n, env) != eval_term(rhs, t, n, env) for lhs, rhs in when):
            continue
        if any(eval_term(lhs, t, n, env) != eval_term(rhs, t, n, env) for lhs, rhs in musts):
            return env
    return None


# --- brute-force enumeration and isomorphism oracles ------------------------

def naive_relabel(t: tuple, n: int, p) -> tuple:
    out = [0] * (n * n)
    for a in range(n):
        for b in range(n):
            out[p[a] * n + p[b]] = p[t[a * n + b]]
    return tuple(out)


def naive_canon(t: tuple, n: int) -> tuple:
    return min(
        naive_relabel(t, n, p) for p in itertools.permutations(range(n))
    )


def naive_is_ag(t: tuple, n: int) -> bool:
    r = range(n)
    return all(
        t[t[a * n + b] * n + c] == t[t[c * n + b] * n + a]
        for a in r for b in r for c in r
    )


@lru_cache(maxsize=None)
def brute_enumeration(n: int) -> tuple[tuple, ...]:
    """Every AG table of order n, filtered then canonicalized; sorted."""
    classes = {
        naive_canon(cells, n)
        for cells in itertools.product(range(n), repeat=n * n)
        if naive_is_ag(cells, n)
    }
    return tuple(sorted(classes))


def count_labelled_ag(n: int) -> int:
    """Number of AG tables on 0..n-1, with no symmetry and no propagation.

    Fills cells in row-major order and checks each new cell against every
    instance of (ab)c = (cb)a in which it occurs and whose other lookups
    are decided; an instance is checked when its last lookup is filled.
    """
    size = n * n
    t = [-1] * size
    r = range(n)

    def consistent(idx: int) -> bool:
        for a, b, c in itertools.product(r, repeat=3):
            ab, cb = a * n + b, c * n + b
            if t[ab] < 0 or t[cb] < 0:
                continue
            left, right = t[ab] * n + c, t[cb] * n + a
            if t[left] < 0 or t[right] < 0 or idx not in (ab, cb, left, right):
                continue
            if t[left] != t[right]:
                return False
        return True

    def fill(idx: int) -> int:
        if idx == size:
            return 1
        total = 0
        for v in r:
            t[idx] = v
            if consistent(idx):
                total += fill(idx + 1)
        t[idx] = -1
        return total

    return fill(0)


def brute_isomorphic(m1: Magma, m2: Magma) -> bool:
    if m1.order != m2.order:
        return False
    n = m1.order
    return any(
        naive_relabel(m1.table, n, p) == m2.table
        for p in itertools.permutations(range(n))
    )


# --- hypothesis strategies ---------------------------------------------------

@st.composite
def magmas(draw, min_order: int = 1, max_order: int = 4) -> Magma:
    n = draw(st.integers(min_order, max_order))
    cells = draw(
        st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
    )
    return Magma(n, tuple(cells))


@st.composite
def magma_perm_pairs(draw, max_order: int = 4):
    m = draw(magmas(max_order=max_order))
    p = draw(st.permutations(range(m.order)))
    return m, tuple(p)


# --- shared data fixtures ----------------------------------------------------

@lru_cache(maxsize=None)
def ag_universe(n: int) -> tuple[Magma, ...]:
    out: list[Magma] = []
    enumerate_ag(n, out.append)
    return tuple(out)


@pytest.fixture(scope="session")
def fixture_map() -> dict[str, Magma]:
    return fixtures()


@pytest.fixture(scope="session")
def small_universe() -> list[Magma]:
    """All AG classes of order <= 3."""
    return [m for n in (1, 2, 3) for m in ag_universe(n)]


@pytest.fixture(scope="session")
def universe4() -> list[Magma]:
    """All AG classes of order <= 4."""
    return [m for n in (1, 2, 3, 4) for m in ag_universe(n)]
