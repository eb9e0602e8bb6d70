"""Reference computations made apart from agkit.

Nothing here imports agkit.  The benchmark checks the program's outputs
against these: the paper's census table transcribed by hand, a small term
evaluator for the identities the checks use, a minimal-image canonical
form over all n! relabellings, and the pieces the seeded inputs are
built from.
"""

from __future__ import annotations

import lzma
import random
import re
from itertools import permutations, product
from pathlib import Path

# The paper's census table, orders 2-5, in its row order.  The printed
# order-2 "CA and associative" cell is 0, which contradicts the row's own
# arithmetic (CA = 3 = CA and non-associative 0 + CA and associative); the
# derived value 3 is what the program must count.
CENSUS_ROWS = (
    "AG",
    "CA",
    "associative",
    "non-associative",
    "CA ∧ non-associative",
    "associative ∧ ¬CA",
    "CA ∧ associative",
    "associative ∧ ¬commutative ∧ CA",
)
PAPER_CENSUS = {
    2: (3, 3, 3, 0, 0, 0, 0, 0),
    3: (20, 12, 12, 8, 0, 0, 12, 0),
    4: (331, 64, 62, 269, 2, 0, 62, 4),
    5: (31913, 491, 446, 31467, 45, 0, 446, 121),
}
PAPER_DERIVED = {(2, "CA ∧ associative"): 3}

# Classes in slice 6/6 of the order-6 search, copied from a program run;
# README.md gives the command that regenerates it.
O6_SLICE_CLASSES = 32210
AG5_CLASSES_FILE = Path(__file__).resolve().parent / "data" / "ag5_classes.txt.xz"


def classes_up_to(order: int, row: str) -> int:
    """Classes of orders 1..order in the "AG" or "CA" row; order 1 adds
    the trivial magma."""
    return 1 + sum(census_expected(n)[row][0] for n in range(2, order + 1))


def census_expected(order: int) -> dict[str, tuple[int, int]]:
    """Row name -> (count the program must report, printed reference)."""
    out = {}
    for name, printed in zip(CENSUS_ROWS, PAPER_CENSUS[order]):
        out[name] = (PAPER_DERIVED.get((order, name), printed), printed)
    return out


def census_arithmetic_errors(counts: dict[str, int]) -> list[str]:
    """Row identities every census must satisfy; returns the broken ones."""
    c = counts
    rules = (
        ("AG = associative + non-associative",
         c["AG"] == c["associative"] + c["non-associative"]),
        ("CA = CA ∧ associative + CA ∧ non-associative",
         c["CA"] == c["CA ∧ associative"] + c["CA ∧ non-associative"]),
        ("associative = CA ∧ associative + associative ∧ ¬CA",
         c["associative"] == c["CA ∧ associative"] + c["associative ∧ ¬CA"]),
        ("associative ∧ ¬commutative ∧ CA <= CA ∧ associative",
         c["associative ∧ ¬commutative ∧ CA"] <= c["CA ∧ associative"]),
    )
    return [text for text, ok in rules if not ok]


# --- term evaluator -------------------------------------------------------

_TOKEN = re.compile(r"\s*([a-z()])")


def parse_term(text: str):
    """Parse a term where juxtaposition is the product, left to right.

    Variables are single lower-case letters: "(ab)c", "a(bc)", "x(ab)".
    Returns a tree: a variable name, or a pair (left, right).
    """
    tokens = _TOKEN.findall(text)
    if "".join(tokens) != re.sub(r"\s", "", text):
        raise ValueError(f"bad term {text!r}")
    pos = 0

    def factor():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            node = product_()
            if tokens[pos] != ")":
                raise ValueError(f"unbalanced term {text!r}")
            pos += 1
            return node
        if tok == ")":
            raise ValueError(f"bad term {text!r}")
        return tok

    def product_():
        node = factor()
        while pos < len(tokens) and tokens[pos] != ")":
            node = (node, factor())
        return node

    tree = product_()
    if pos != len(tokens):
        raise ValueError(f"bad term {text!r}")
    return tree


class Identity:
    """An identity lhs = rhs, scanned over assignments in a given variable order.

    first_failure(n, t) returns the lexicographically first assignment
    (in the order of `variables`) where the sides differ, or None.  The
    term trees are turned into one nested-loop function of table lookups,
    so a scan over tens of thousands of tables stays cheap.
    """

    def __init__(self, lhs: str, rhs: str, variables: str):
        def expr(tree) -> str:
            if isinstance(tree, str):
                return tree
            return f"t[{expr(tree[0])} * n + {expr(tree[1])}]"

        lines = ["def scan(n, t):"]
        for depth, v in enumerate(variables):
            lines.append("    " * (depth + 1) + f"for {v} in range(n):")
        inner = "    " * (len(variables) + 1)
        lines.append(f"{inner}if {expr(parse_term(lhs))} != {expr(parse_term(rhs))}:")
        lines.append(f"{inner}    return ({', '.join(variables)},)")
        lines.append("    return None")
        scope: dict = {}
        exec("\n".join(lines), scope)
        self.first_failure = scope["scan"]

    def holds(self, n: int, t: tuple[int, ...]) -> bool:
        return self.first_failure(n, t) is None


AG = Identity("(ab)c", "(cb)a", "abc")
ASSOCIATIVE = Identity("(ab)c", "a(bc)", "abc")
COMMUTATIVE = Identity("ab", "ba", "ab")
CYCLIC_ASSOCIATIVE = Identity("a(bc)", "c(ab)", "abc")
# The extended-table test compares the star cell a(bx) with the circle
# cell x(ab), scanning x, then a, then b.
STAR_CIRCLE = Identity("a(bx)", "x(ab)", "xab")

FLAG_IDENTITIES = {
    "ag": AG,
    "associative": ASSOCIATIVE,
    "commutative": COMMUTATIVE,
    "cyclic_associative": CYCLIC_ASSOCIATIVE,
}


# --- relabelling and minimal images ---------------------------------------

def relabel(n: int, t: tuple[int, ...], p: tuple[int, ...]) -> tuple[int, ...]:
    """Image under p: image[p(a), p(b)] = p(t[a, b])."""
    out = [0] * (n * n)
    for a in range(n):
        for b in range(n):
            out[p[a] * n + p[b]] = p[t[a * n + b]]
    return tuple(out)


def min_image(n: int, t: tuple[int, ...]) -> tuple[int, ...]:
    """Least row-major table over all n! relabellings."""
    return min(relabel(n, t, p) for p in permutations(range(n)))


def is_min_image(n: int, t: tuple[int, ...]) -> bool:
    return min_image(n, t) == tuple(t)


# --- building blocks of the seeded inputs ---------------------------------

def brute_force_classes(n: int, identity: Identity = AG) -> list[tuple[int, ...]]:
    """Minimal images of every table of order n satisfying identity."""
    reps = {min_image(n, t) for t in product(range(n), repeat=n * n) if identity.holds(n, t)}
    return sorted(reps)


def ag5_class_lines() -> list[str]:
    """The 31,913 order-5 AG class representatives, one "5:..." line each.

    data/ag5_classes.txt.xz is the output of an agkit enumeration
    (README.md gives the command).  It is trusted only as a list to draw
    inputs from: the checks confirm its count against the paper's table,
    its order, and the identity and minimality of every line they use.
    """
    return lzma.decompress(AG5_CLASSES_FILE.read_bytes()).decode("ascii").splitlines()


def direct_product(m: int, u: tuple[int, ...], n: int, v: tuple[int, ...]) -> tuple[int, ...]:
    """Table of the product on pairs (i, j) labelled i*n + j."""
    size = m * n
    t = [0] * (size * size)
    for a in range(size):
        for b in range(size):
            i = u[(a // n) * m + b // n]
            j = v[(a % n) * n + b % n]
            t[a * size + b] = i * n + j
    return tuple(t)


def random_perm(n: int, rng: random.Random) -> tuple[int, ...]:
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)
