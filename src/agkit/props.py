"""Identity-class predicates for finite magmas and the property catalog.

Each checker scans element tuples in lexicographic order and returns the
first falsifying tuple, or None when the property holds, so witnesses are
deterministic.  check_property/classify wrap the checkers; the raw checker
registry CHECKERS is shared with the enumeration census.  Property
expressions evaluate the operands of each & and | cheapest first, by the
ATOM_COST of their atoms, so a one-variable atom can rule a table out
before a four-variable law scans it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .core import Magma

Checker = Callable[[int, tuple[int, ...]], Optional[tuple[int, ...]]]


class UnknownPropertyError(ValueError):
    """Raised for a property name outside the catalog."""


def _check_ag(n: int, t: tuple[int, ...]) -> tuple[int, ...] | None:
    """(ab)c = (cb)a, the left invertive law."""
    for a in range(n):
        for b in range(n):
            ab = t[a * n + b]
            for c in range(n):
                if t[ab * n + c] != t[t[c * n + b] * n + a]:
                    return (a, b, c)
    return None


def _check_right_ag(n: int, t: tuple[int, ...]) -> tuple[int, ...] | None:
    """a(bc) = c(ba)."""
    for a in range(n):
        for b in range(n):
            ba = t[b * n + a]
            for c in range(n):
                if t[a * n + t[b * n + c]] != t[c * n + ba]:
                    return (a, b, c)
    return None


def _check_cyclic_associative(n: int, t: tuple[int, ...]) -> tuple[int, ...] | None:
    """a(bc) = c(ab)."""
    for a in range(n):
        for b in range(n):
            ab = t[a * n + b]
            for c in range(n):
                if t[a * n + t[b * n + c]] != t[c * n + ab]:
                    return (a, b, c)
    return None


def _check_associative(n: int, t: tuple[int, ...]) -> tuple[int, ...] | None:
    """(ab)c = a(bc)."""
    for a in range(n):
        for b in range(n):
            ab = t[a * n + b]
            for c in range(n):
                if t[ab * n + c] != t[a * n + t[b * n + c]]:
                    return (a, b, c)
    return None


def _check_commutative(n: int, t: tuple[int, ...]) -> tuple[int, ...] | None:
    """ab = ba."""
    for a in range(n):
        for b in range(n):
            if t[a * n + b] != t[b * n + a]:
                return (a, b)
    return None


def _check_medial(n: int, t: tuple[int, ...]) -> tuple[int, ...] | None:
    """(ab)(cd) = (ac)(bd)."""
    for a in range(n):
        for b in range(n):
            ab = t[a * n + b]
            for c in range(n):
                ac = t[a * n + c]
                for d in range(n):
                    if t[ab * n + t[c * n + d]] != t[ac * n + t[b * n + d]]:
                        return (a, b, c, d)
    return None


def _check_paramedial(n: int, t: tuple[int, ...]) -> tuple[int, ...] | None:
    """(ab)(cd) = (db)(ca)."""
    for a in range(n):
        for b in range(n):
            ab = t[a * n + b]
            for c in range(n):
                ca = t[c * n + a]
                for d in range(n):
                    if t[ab * n + t[c * n + d]] != t[t[d * n + b] * n + ca]:
                        return (a, b, c, d)
    return None


def _check_ag_star(n: int, t: tuple[int, ...]) -> tuple[int, ...] | None:
    """(ab)c = b(ac)."""
    for a in range(n):
        for b in range(n):
            ab = t[a * n + b]
            for c in range(n):
                if t[ab * n + c] != t[b * n + t[a * n + c]]:
                    return (a, b, c)
    return None


def _check_ag_star_star(n: int, t: tuple[int, ...]) -> tuple[int, ...] | None:
    """a(bc) = b(ac)."""
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t[a * n + t[b * n + c]] != t[b * n + t[a * n + c]]:
                    return (a, b, c)
    return None


def _check_left_nuclear_square(n: int, t: tuple[int, ...]) -> tuple[int, ...] | None:
    """a^2(bc) = (a^2 b)c."""
    for a in range(n):
        aa = t[a * n + a]
        for b in range(n):
            aab = t[aa * n + b]
            for c in range(n):
                if t[aa * n + t[b * n + c]] != t[aab * n + c]:
                    return (a, b, c)
    return None


def _check_middle_nuclear_square(n: int, t: tuple[int, ...]) -> tuple[int, ...] | None:
    """a(b^2 c) = (a b^2)c."""
    for a in range(n):
        for b in range(n):
            bb = t[b * n + b]
            abb = t[a * n + bb]
            for c in range(n):
                if t[a * n + t[bb * n + c]] != t[abb * n + c]:
                    return (a, b, c)
    return None


def _check_right_nuclear_square(n: int, t: tuple[int, ...]) -> tuple[int, ...] | None:
    """a(b c^2) = (ab) c^2."""
    for a in range(n):
        for b in range(n):
            ab = t[a * n + b]
            for c in range(n):
                cc = t[c * n + c]
                if t[a * n + t[b * n + cc]] != t[ab * n + cc]:
                    return (a, b, c)
    return None


def _check_bol_star(n: int, t: tuple[int, ...]) -> tuple[int, ...] | None:
    """a((bc)d) = ((ab)c)d."""
    for a in range(n):
        for b in range(n):
            ab = t[a * n + b]
            for c in range(n):
                bc = t[b * n + c]
                abc = t[ab * n + c]
                for d in range(n):
                    if t[a * n + t[bc * n + d]] != t[abc * n + d]:
                        return (a, b, c, d)
    return None


def _check_T1(n: int, t: tuple[int, ...]) -> tuple[int, ...] | None:
    """ab = cd implies ba = dc."""
    for a in range(n):
        for b in range(n):
            ab = t[a * n + b]
            ba = t[b * n + a]
            for c in range(n):
                for d in range(n):
                    if ab == t[c * n + d] and ba != t[d * n + c]:
                        return (a, b, c, d)
    return None


def _check_T3_left(n: int, t: tuple[int, ...]) -> tuple[int, ...] | None:
    """ab = ac implies ba = ca."""
    for a in range(n):
        for b in range(n):
            ab = t[a * n + b]
            ba = t[b * n + a]
            for c in range(n):
                if ab == t[a * n + c] and ba != t[c * n + a]:
                    return (a, b, c)
    return None


def _check_T3_right(n: int, t: tuple[int, ...]) -> tuple[int, ...] | None:
    """ba = ca implies ab = ac."""
    for a in range(n):
        for b in range(n):
            ab = t[a * n + b]
            ba = t[b * n + a]
            for c in range(n):
                if ba == t[c * n + a] and ab != t[a * n + c]:
                    return (a, b, c)
    return None


def _check_left_alternative(n: int, t: tuple[int, ...]) -> tuple[int, ...] | None:
    """(aa)b = a(ab)."""
    for a in range(n):
        aa = t[a * n + a]
        for b in range(n):
            if t[aa * n + b] != t[a * n + t[a * n + b]]:
                return (a, b)
    return None


def _check_right_alternative(n: int, t: tuple[int, ...]) -> tuple[int, ...] | None:
    """b(aa) = (ba)a."""
    for a in range(n):
        aa = t[a * n + a]
        for b in range(n):
            if t[b * n + aa] != t[t[b * n + a] * n + a]:
                return (a, b)
    return None


def _check_left_commutative(n: int, t: tuple[int, ...]) -> tuple[int, ...] | None:
    """(ab)c = (ba)c."""
    for a in range(n):
        for b in range(n):
            ab = t[a * n + b]
            ba = t[b * n + a]
            if ab == ba:
                continue
            for c in range(n):
                if t[ab * n + c] != t[ba * n + c]:
                    return (a, b, c)
    return None


def _check_right_commutative(n: int, t: tuple[int, ...]) -> tuple[int, ...] | None:
    """a(bc) = a(cb)."""
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t[a * n + t[b * n + c]] != t[a * n + t[c * n + b]]:
                    return (a, b, c)
    return None


def _check_band(n: int, t: tuple[int, ...]) -> tuple[int, ...] | None:
    """aa = a for every a."""
    for a in range(n):
        if t[a * n + a] != a:
            return (a,)
    return None


def _check_three_band(n: int, t: tuple[int, ...]) -> tuple[int, ...] | None:
    """(aa)a = a(aa) = a for every a."""
    for a in range(n):
        aa = t[a * n + a]
        if t[aa * n + a] != a or t[a * n + aa] != a:
            return (a,)
    return None


def _check_has_left_identity(n: int, t: tuple[int, ...]) -> tuple[int, ...] | None:
    """Existence of e with ea = a for all a; no finite witness on failure."""
    for e in range(n):
        if all(t[e * n + a] == a for a in range(n)):
            return None
    return ()


_BASE_CHECKERS: dict[str, Checker] = {
    "ag": _check_ag,
    "right_ag": _check_right_ag,
    "cyclic_associative": _check_cyclic_associative,
    "associative": _check_associative,
    "commutative": _check_commutative,
    "medial": _check_medial,
    "paramedial": _check_paramedial,
    "ag_star": _check_ag_star,
    "ag_star_star": _check_ag_star_star,
    "left_nuclear_square": _check_left_nuclear_square,
    "middle_nuclear_square": _check_middle_nuclear_square,
    "right_nuclear_square": _check_right_nuclear_square,
    "bol_star": _check_bol_star,
    "T1": _check_T1,
    "T3_left": _check_T3_left,
    "T3_right": _check_T3_right,
    "left_alternative": _check_left_alternative,
    "right_alternative": _check_right_alternative,
    "left_commutative": _check_left_commutative,
    "right_commutative": _check_right_commutative,
    "band": _check_band,
    "three_band": _check_three_band,
}

# Conjunction-defined properties, resolved against the checkers above.
COMPOSITES: dict[str, tuple[str, ...]] = {
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

CATALOG: tuple[str, ...] = (
    "ag",
    "right_ag",
    "cyclic_associative",
    "associative",
    "commutative",
    "medial",
    "paramedial",
    "ag_star",
    "ag_star_star",
    "left_nuclear_square",
    "middle_nuclear_square",
    "right_nuclear_square",
    "bol_star",
    "T1",
    "T3_left",
    "T3_right",
    "left_alternative",
    "right_alternative",
    "left_commutative",
    "right_commutative",
    "band",
    "three_band",
    "semilattice",
    "has_left_identity",
    "nuclear_square",
    "alternative",
    "bicommutative",
    "T3",
)

_INDEX = {name: i for i, name in enumerate(CATALOG)}

# Variables in each atom's defining identity: an atom scans at most n**cost
# tuples, so the cost orders expression operands cheapest first.
_BASE_COST: dict[str, int] = {
    "ag": 3,
    "right_ag": 3,
    "cyclic_associative": 3,
    "associative": 3,
    "commutative": 2,
    "medial": 4,
    "paramedial": 4,
    "ag_star": 3,
    "ag_star_star": 3,
    "left_nuclear_square": 3,
    "middle_nuclear_square": 3,
    "right_nuclear_square": 3,
    "bol_star": 4,
    "T1": 4,
    "T3_left": 3,
    "T3_right": 3,
    "left_alternative": 2,
    "right_alternative": 2,
    "left_commutative": 3,
    "right_commutative": 3,
    "band": 1,
    "three_band": 1,
    "has_left_identity": 2,
    "has_cancellative_element": 2,
}


def _composite_checker(parts: tuple[str, ...]) -> Checker:
    def check(n: int, t: tuple[int, ...]) -> tuple[int, ...] | None:
        for part in parts:
            w = _BASE_CHECKERS[part](n, t)
            if w is not None:
                return w
        return None

    return check


CHECKERS: dict[str, Checker] = dict(_BASE_CHECKERS)
CHECKERS["has_left_identity"] = _check_has_left_identity
ATOM_COST: dict[str, int] = dict(_BASE_COST)
for _name, _parts in COMPOSITES.items():
    CHECKERS[_name] = _composite_checker(_parts)
    ATOM_COST[_name] = max(_BASE_COST[p] for p in _parts)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one property check.

    witness is the lexicographically smallest falsifying tuple, with one
    entry per variable of the defining identity; it is None when the
    property holds and also for the existential has_left_identity, whose
    failure has no finite falsifying tuple.
    """

    holds: bool
    witness: tuple[int, ...] | None


@dataclass(frozen=True)
class PropertyVector:
    """One boolean per catalog property, in CATALOG order."""

    flags: tuple[bool, ...]

    def __getitem__(self, name: str) -> bool:
        try:
            return self.flags[_INDEX[name]]
        except KeyError:
            raise UnknownPropertyError(f"unknown property {name!r}") from None

    def as_dict(self) -> dict[str, bool]:
        return dict(zip(CATALOG, self.flags))

    def true_names(self) -> tuple[str, ...]:
        return tuple(nm for nm, f in zip(CATALOG, self.flags) if f)


def check_property(m: Magma, p: str) -> CheckResult:
    """Check one catalog property; witness is the smallest falsifying tuple."""
    try:
        checker = CHECKERS[p]
    except KeyError:
        raise UnknownPropertyError(
            f"unknown property {p!r}; valid names: {', '.join(CATALOG)}"
        ) from None
    w = checker(m.order, m.table)
    if w is None:
        return CheckResult(True, None)
    return CheckResult(False, w if w != () else None)


def classify(m: Magma) -> PropertyVector:
    """Evaluate the full catalog for one magma."""
    n, t = m.order, m.table
    flags = tuple(CHECKERS[name](n, t) is None for name in CATALOG)
    return PropertyVector(flags)


def idempotents(m: Magma) -> set[int]:
    """Elements a with aa = a."""
    n, t = m.order, m.table
    return {a for a in range(n) if t[a * n + a] == a}


def cancellative_elements(m: Magma) -> tuple[set[int], set[int]]:
    """(left, right) cancellative elements.

    a is left cancellative iff row a is a permutation, right cancellative
    iff column a is a permutation.
    """
    n, t = m.order, m.table
    left = {a for a in range(n) if len(set(t[a * n:a * n + n])) == n}
    right = {a for a in range(n) if len({t[b * n + a] for b in range(n)}) == n}
    return left, right


def left_identities(m: Magma) -> set[int]:
    """Elements e with ea = a for every a."""
    n, t = m.order, m.table
    return {e for e in range(n) if all(t[e * n + a] == a for a in range(n))}


# --- property expressions -------------------------------------------------

# Extra atoms usable in expressions besides the catalog names.
EXPR_ATOMS: tuple[str, ...] = CATALOG + ("has_cancellative_element",)

_TOKEN_OPS = {
    "&": "&", "∧": "&", "and": "&",
    "|": "|", "∨": "|", "or": "|",
    "!": "!", "¬": "!", "not": "!",
}


def _tokenize(text: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()&|!∧∨¬":
            tokens.append(_TOKEN_OPS.get(ch, ch))
            i += 1
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(_TOKEN_OPS.get(word.lower(), word))
            i = j
        else:
            raise UnknownPropertyError(f"unexpected character {ch!r} in property expression")
    return tokens


@dataclass(frozen=True)
class PropertyExpr:
    """Parsed boolean combination of property atoms.

    ast nodes are ("atom", name), ("not", x), ("and", operands) and
    ("or", operands), where operands is a tuple of at least two nodes in
    stable ATOM_COST order.  evaluate() resolves atoms through a lookup
    callable, short-circuiting left to right.
    """

    text: str
    ast: tuple
    names: frozenset[str]

    def evaluate(self, lookup: Callable[[str], bool]) -> bool:
        def ev(node: tuple) -> bool:
            op = node[0]
            if op == "atom":
                return lookup(node[1])
            if op == "not":
                return not ev(node[1])
            if op == "and":
                return all(map(ev, node[1]))
            return any(map(ev, node[1]))

        return ev(self.ast)


def _node_cost(node: tuple) -> int:
    op = node[0]
    if op == "atom":
        return ATOM_COST[node[1]]
    if op == "not":
        return _node_cost(node[1])
    return max(_node_cost(x) for x in node[1])


def _junction(op: str, operands: list[tuple]) -> tuple:
    if len(operands) == 1:
        return operands[0]
    return (op, tuple(sorted(operands, key=_node_cost)))


def parse_property_expr(text: str) -> PropertyExpr:
    """Parse an expression over catalog atoms with & | ! (or and/or/not,
    or the symbols for conjunction, disjunction, negation) and parentheses.

    Atoms are pure functions of the table, so reordering the operands of
    each & and | by cost changes which atoms run, never the value.
    """
    tokens = _tokenize(text)
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take(expected: str | None = None) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise UnknownPropertyError(f"property expression ended early: {text!r}")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise UnknownPropertyError(f"expected {expected!r} at token {pos + 1} in {text!r}")
        pos += 1
        return tok

    names: set[str] = set()

    def parse_atom() -> tuple:
        tok = take()
        if tok == "(":
            node = parse_or()
            take(")")
            return node
        if tok == "!":
            return ("not", parse_atom())
        if tok in ("&", "|", ")"):
            raise UnknownPropertyError(f"misplaced {tok!r} in property expression {text!r}")
        if tok not in EXPR_ATOMS:
            raise UnknownPropertyError(
                f"unknown property {tok!r}; valid names: {', '.join(EXPR_ATOMS)}"
            )
        names.add(tok)
        return ("atom", tok)

    def parse_and() -> tuple:
        operands = [parse_atom()]
        while peek() == "&":
            take()
            operands.append(parse_atom())
        return _junction("and", operands)

    def parse_or() -> tuple:
        operands = [parse_and()]
        while peek() == "|":
            take()
            operands.append(parse_and())
        return _junction("or", operands)

    ast = parse_or()
    if pos != len(tokens):
        raise UnknownPropertyError(f"trailing tokens in property expression {text!r}")
    return PropertyExpr(text, ast, frozenset(names))


def atom_value(m: Magma, name: str, cache: dict[str, bool] | None = None) -> bool:
    """Evaluate one expression atom on a magma, memoized through cache."""
    if cache is not None and name in cache:
        return cache[name]
    if name == "has_cancellative_element":
        left, right = cancellative_elements(m)
        value = bool(left & right)
    else:
        value = check_property(m, name).holds
    if cache is not None:
        cache[name] = value
    return value


def magma_satisfies(m: Magma, expr: PropertyExpr, cache: dict[str, bool] | None = None) -> bool:
    """Evaluate a property expression on a magma, computing atoms lazily."""
    local = cache if cache is not None else {}
    return expr.evaluate(lambda name: atom_value(m, name, local))
