"""Identity-class predicates for finite magmas and the property catalog.

Each law of the catalog is stated once, as data, in LAWS, and the two
laws that claims state about idempotents in CLAIM_LAWS.  At import a
small parser reads each law and a compiler turns it into one nested-loop
checker, generated with exec, that binds every variable over the range
its caller gives and returns the first falsifying tuple of that scan, or
None when the law holds.  By default the range runs from the top label
n - 1 down to 0, so the first falsifying tuple is the lexicographically
largest: a canonical table's low rows are mostly 0 and seldom break a
law, so the census and the claim runners meet a failing instance sooner
this way.  check_property passes range(n) instead, so a reported witness
is the lexicographically smallest falsifying tuple of the table itself.
Where the last variable of a lone equation occurs once on each side, and
each side read as a function of it is a short chain of row and column
maps (left_commutative, medial, paramedial, bol_star), one guard per
outer binding compares the two composed rows and skips the innermost
loop where they are equal, so the witness is the same.  The raw checker
registry CHECKERS holds one checker per law and one per existential,
and is shared with the enumeration census and the claim runners.  A
composite property is defined once, as the conjunction of its parts in
COMPOSITES: classify derives its flag from its parts' flags, an
expression parses it to an "and" of its parts, and check_property
returns its first failing part's witness.  Property expressions are
evaluated over a pool of magmas at a time (AtomColumns), one atom column
per step; the operands of each & and | run cheapest first, by the
ATOM_COST of their atoms (the number of variables of a law), so a
one-variable atom can rule a table out before a four-variable law scans
it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .core import Magma

# A checker is called as checker(n, t, down=None): down is the range each
# variable runs over, n - 1, ..., 0 when None.
Checker = Callable[..., Optional[tuple[int, ...]]]


class UnknownPropertyError(ValueError):
    """Raised for a property name outside the catalog."""


# Each law in the paper's notation: variables a-d, in witness order;
# products by juxtaposition of two factors, with parentheses.  Equations
# separated by commas must all hold; "p -> q" requires q where p holds.
LAWS: dict[str, str] = {
    "ag": "(ab)c = (cb)a",
    "right_ag": "a(bc) = c(ba)",
    "cyclic_associative": "a(bc) = c(ab)",
    "associative": "(ab)c = a(bc)",
    "commutative": "ab = ba",
    "medial": "(ab)(cd) = (ac)(bd)",
    "paramedial": "(ab)(cd) = (db)(ca)",
    "ag_star": "(ab)c = b(ac)",
    "ag_star_star": "a(bc) = b(ac)",
    "left_nuclear_square": "(aa)(bc) = ((aa)b)c",
    "middle_nuclear_square": "a((bb)c) = (a(bb))c",
    "right_nuclear_square": "a(b(cc)) = (ab)(cc)",
    "bol_star": "a((bc)d) = ((ab)c)d",
    "T1": "ab = cd -> ba = dc",
    "T3_left": "ab = ac -> ba = ca",
    "T3_right": "ba = ca -> ab = ac",
    "left_alternative": "(aa)b = a(ab)",
    "right_alternative": "b(aa) = (ba)a",
    "left_commutative": "(ab)c = (ba)c",
    "right_commutative": "a(bc) = a(cb)",
    "band": "aa = a",
    "three_band": "(aa)a = a, a(aa) = a",
}

# Laws that claims state about idempotents: expression atoms, compiled like
# LAWS, but not catalog properties.
CLAIM_LAWS: dict[str, str] = {
    "idempotents_form_semilattice":
        "aa = a, bb = b, cc = c -> (ab)(ab) = ab, ab = ba, (ab)c = a(bc)",
    "idempotent_identity_on_cosets":
        "aa = a -> a(ab) = ab, (ab)a = ab, a(ba) = ba, (ba)a = ba",
}

_VARS = "abcd"


def _parse_term(text: str):
    """A variable letter, or a (left, right) pair for a product of two
    factors, each a variable or a parenthesised term."""
    stack: list[list] = [[]]
    for ch in f"({text.replace(' ', '')})":
        if ch == "(":
            stack.append([])
        elif ch == ")" and len(stack) > 1 and stack[-1]:
            factors = stack.pop()
            stack[-1].append(factors[0] if len(factors) == 1 else tuple(factors))
        elif ch in _VARS:
            stack[-1].append(ch)
        else:
            raise ValueError(f"unexpected {ch!r} in term {text!r}")
        if len(stack[-1]) > 2:
            raise ValueError(f"more than two factors without parentheses in {text!r}")
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError(f"unbalanced parentheses in term {text!r}")
    return stack[0][0]


def _equations(text: str) -> list:
    """The (lhs, rhs) pairs of comma-separated equations."""
    eqs = [tuple(map(_parse_term, eq.split("="))) for eq in text.split(",")] if text else []
    if any(len(eq) != 2 for eq in eqs):
        raise ValueError(f"each equation needs exactly one '=' in {text!r}")
    return eqs


def _letters(x) -> str:
    return x if isinstance(x, str) else _letters(x[0]) + _letters(x[1])


def _z_chain(x, z: str):
    """The side x as a function of the variable z, which occurs in x once:
    a list of ("L", y) for the row map z -> yz and ("R", y) for the column
    map z -> zy, outermost first."""
    chain = []
    while x != z:
        if z in _letters(x[1]):
            chain.append(("L", x[0]))
            x = x[1]
        else:
            chain.append(("R", x[1]))
            x = x[0]
    return chain


def _law_source(name: str, text: str) -> str:
    """Python source of the nested-loop checker for one law.

    Loops bind the variables in order, each over the checker's argument
    down, n - 1, ..., 0 when it is None; the first falsifying tuple is the
    lexicographically largest then, and the smallest over range(n).  A
    compound subterm is computed once, in the loop where its last
    variable is bound; in the innermost loop it gets a local name only
    when it occurs twice.  A hypothesis whose sides are bound above the
    innermost loop is tested in the loop that binds its last variable,
    which skips the inner loops where it fails.

    One shortcut skips the innermost loop.  In a lone equation with no
    hypothesis whose last variable z occurs once on each side, each side
    is, as a function of z, a chain of row maps L_x (z -> xz) and column
    maps R_x (z -> zx); (ab)(cd), for one, is L_ab after L_c.  When both
    chains have at most nvars - 2 maps, the second-to-last loop ends with
    "if <maps built> and <lhs map> == <rhs map>: continue": where the maps
    are equal the equation holds for every z, and elsewhere the scalar
    z-loop finds the same witness.  The maps (_maps) are built by one
    call, after the first z-loop has found no witness, so a table that
    fails there, as most tables without the law do, builds none.  The
    bound nvars - 2 keeps the build at most n**(nvars - 1) reads, one
    power of n below the n**nvars scan it gates.
    """
    hyps, _, concl = text.rpartition("->")
    hyps, eqs = _equations(hyps), _equations(concl)
    sides = [x for eq in hyps + eqs for x in eq]
    used = set("".join(map(_letters, sides)))
    nvars = len(used)
    if used != set(_VARS[:nvars]):
        raise ValueError(f"law {text!r} must name its variables from a on, in order")
    last = nvars - 1
    z, chains = _VARS[last], None
    if not hyps and [_letters(x).count(z) for x in sides] == [1, 1]:
        chains = [_z_chain(x, z) for x in sides]
        if not all(1 <= len(chain) <= nvars - 2 for chain in chains):
            chains = None

    def level(x) -> int:
        return max(map(_VARS.index, _letters(x)))

    # Compound subterms in post-order of first occurrence, with the number
    # of places each is used once its repeats are named.
    counts: Counter = Counter()
    order: list = []

    def visit(x) -> None:
        if not isinstance(x, str):
            counts[x] += 1
            if counts[x] == 1:
                visit(x[0])
                visit(x[1])
                order.append(x)

    for x in sides:
        visit(x)
    names: dict = {}

    def expr(x) -> str:
        if isinstance(x, str):
            return x
        return names.get(x) or f"t[{expr(x[0])} * n + {expr(x[1])}]"

    stmts: list[list[str]] = [[] for _ in range(nvars)]
    for x in order:
        if level(x) < last or counts[x] > 1:
            value, local = expr(x), _letters(x)
            names[x] = local if local not in names.values() else f"{local}_{len(names)}"
            stmts[level(x)].append(f"{names[x]} = {value}")
    inner_hyps = []
    for lhs, rhs in hyps:
        k = max(level(lhs), level(rhs))
        if k < last:
            stmts[k].append(f"if {expr(lhs)} != {expr(rhs)}: continue")
        else:
            inner_hyps.append((lhs, rhs))
    lines = [f"def _check_{name}(n, t, down=None):",
             "    if down is None: down = range(n - 1, -1, -1)"]
    build = None
    if chains:
        chain_kinds = ["".join(k for k, _ in chain) for chain in chains]
        maps = [kind + "".join(f"[{expr(y)}]" for _, y in chain)
                for kind, chain in zip(chain_kinds, chains)]
        kinds = sorted(set(chain_kinds))
        lines.append(f"    {' = '.join(kinds)} = None")
        stmts[last - 1].append(
            f"if {kinds[0]} is not None and {maps[0]} == {maps[1]}: continue")
        build = (f"if {kinds[0]} is None: {', '.join(kinds)}{',' * (len(kinds) == 1)}"
                 f" = _maps(n, t, {', '.join(map(repr, kinds))})")
    depth = 1
    for k in range(nvars):
        lines.append("    " * depth + f"for {_VARS[k]} in down:")
        depth += 1
        lines += ["    " * depth + stmt for stmt in stmts[k]]
    cond = " or ".join(f"{expr(lhs)} != {expr(rhs)}" for lhs, rhs in eqs)
    if inner_hyps:
        cond = " and ".join([f"{expr(lhs)} == {expr(rhs)}" for lhs, rhs in inner_hyps]
                            + [cond if len(eqs) == 1 else f"({cond})"])
    pad = "    " * depth
    witness = ", ".join(_VARS[:nvars]) + "," * (nvars == 1)
    lines += [f"{pad}if {cond}:", f"{pad}    return ({witness})"]
    if build:
        lines.append("    " * (depth - 1) + build)
    lines.append("    return None")
    return "\n".join(lines) + "\n"


def _maps(n: int, t: Sequence[int], *kinds: str) -> list:
    """The maps of a composed-row guard, one list per kind: L[x] is the
    row z -> xz, R[x] the column z -> zx, and a kind of two letters holds
    compositions, such as LR[x][y] = L_x after R_y.  Each map is the tuple
    of the images of 0..n-1, whatever sequence t is, so maps of any two
    kinds compare by value.  (At n = 1 a composition is a bare int, but
    there the loop that builds the maps has no later binding to read them.)
    """
    t = tuple(t)
    single = {"L": [t[x * n:x * n + n] for x in range(n)]}
    if any("R" in kind for kind in kinds):
        single["R"] = [t[x::n] for x in range(n)]
    out = []
    for kind in kinds:
        maps = single[kind[0]]
        if len(kind) == 2:
            gets = [itemgetter(*f) for f in single[kind[1]]]
            maps = [[g(f) for g in gets] for f in maps]
        out.append(maps)
    return out


def _compile_law(name: str, text: str) -> Checker:
    namespace: dict = {"_maps": _maps}
    exec(compile(_law_source(name, text), f"<law {name}>", "exec"), namespace)
    checker = namespace[f"_check_{name}"]
    checker.__doc__ = text
    return checker


def _check_has_left_identity(n: int, t: Sequence[int], down=None) -> tuple[int, ...] | None:
    """Existence of e with ea = a for all a; no finite witness on failure,
    so down is ignored."""
    for e in range(n):
        if all(t[e * n + a] == a for a in range(n)):
            return None
    return ()


def _check_has_cancellative_element(n: int, t: Sequence[int], down=None) -> tuple[int, ...] | None:
    """Existence of a whose row and column are both permutations; down is
    ignored."""
    for a in range(n):
        if len(set(t[a * n:a * n + n])) == n and len(set(t[a::n])) == n:
            return None
    return ()


# Conjunction-defined properties: the first failing part gives the witness.
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
    *LAWS,
    "semilattice",
    "has_left_identity",
    "nuclear_square",
    "alternative",
    "bicommutative",
    "T3",
)


_ALL_LAWS = {**LAWS, **CLAIM_LAWS}
CHECKERS: dict[str, Checker] = {name: _compile_law(name, law) for name, law in _ALL_LAWS.items()}
CHECKERS.update(
    has_left_identity=_check_has_left_identity,
    has_cancellative_element=_check_has_cancellative_element,
)
# Variables in each atom's defining identity: an atom scans at most n**cost
# tuples, so the cost orders expression operands cheapest first.
ATOM_COST: dict[str, int] = {name: len(set(law) & set(_VARS)) for name, law in _ALL_LAWS.items()}
ATOM_COST.update(has_left_identity=2, has_cancellative_element=2)


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


def require_property(p: str) -> None:
    """Raise UnknownPropertyError unless p is a catalog property name."""
    if p not in CATALOG:
        raise UnknownPropertyError(f"unknown property {p!r}; valid names: {', '.join(CATALOG)}")


def check_property(m: Magma, p: str) -> CheckResult:
    """Check one catalog property, a composite part by part in COMPOSITES
    order.  Each checker scans m.table itself over range(m.order), so the
    first falsifying tuple it returns is the smallest; a composite reports
    its first failing part's."""
    require_property(p)
    for part in COMPOSITES.get(p, (p,)):
        w = CHECKERS[part](m.order, m.table, range(m.order))
        if w is not None:
            # A failing existential returns (): it has no finite witness.
            return CheckResult(False, w or None)
    return CheckResult(True, None)


def classify(m: Magma) -> dict[str, bool]:
    """Evaluate the full catalog for one magma: a dict of one flag per
    CATALOG name, in CATALOG order.  Each property that is no composite
    runs its checker once, and each composite is the conjunction of its
    parts."""
    n, t = m.order, m.table
    holds = {name: CHECKERS[name](n, t) is None for name in CATALOG if name not in COMPOSITES}
    for name, parts in COMPOSITES.items():
        holds[name] = all(holds[part] for part in parts)
    return {name: holds[name] for name in CATALOG}


# --- property expressions -------------------------------------------------

# Atoms usable in expressions: the catalog names plus the checkers that
# are no catalog property.
EXPR_ATOMS: tuple[str, ...] = (*CATALOG, "has_cancellative_element", *CLAIM_LAWS)

# Deepest nesting of '(' and '!' a property expression may have.  It keeps
# the recursive parser and evaluator far below the interpreter's stack limit.
MAX_EXPR_NESTING = 100

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
    stable ATOM_COST order.  A composite name parses to the "and" of its
    parts, so it shares their columns; names lists the names as written.
    AtomColumns evaluates it.
    """

    text: str
    ast: tuple
    names: frozenset[str]


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
    Nesting deeper than MAX_EXPR_NESTING levels of ( and ! is rejected.
    """
    tokens = _tokenize(text)
    pos = 0
    depth = 0

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
        nonlocal depth
        tok = take()
        if tok in ("(", "!"):
            depth += 1
            if depth > MAX_EXPR_NESTING:
                raise UnknownPropertyError(
                    f"property expression nests deeper than {MAX_EXPR_NESTING} "
                    "levels of '(' and '!'"
                )
            if tok == "(":
                node = parse_or()
                take(")")
            else:
                node = ("not", parse_atom())
            depth -= 1
            return node
        if tok in ("&", "|", ")"):
            raise UnknownPropertyError(f"misplaced {tok!r} in property expression {text!r}")
        if tok not in EXPR_ATOMS:
            raise UnknownPropertyError(
                f"unknown property {tok!r}; valid names: {', '.join(EXPR_ATOMS)}"
            )
        names.add(tok)
        return _junction("and", [("atom", p) for p in COMPOSITES.get(tok, (tok,))])

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


class AtomColumns:
    """Expression values over a pool of magmas, one atom column at a time.

    The pool holds tables, each any sequence of n*n ints, such as
    Magma.table or bytes, so a caller keeps each magma in the form it has
    (magma_satisfies and check --expr pass m.table; theorems passes
    bytes); a checker gets the square root of the length as the order.
    Each & hands an operand only the survivors of the operands before it,
    each | only the indices still false, and each ! keeps the indices its
    operand dropped, so an atom runs on exactly the magmas that per-magma
    short-circuit evaluation runs it on, and at most once per index: its
    values sit in one bytearray over the pool (0 unknown, 1 false, 2 true).
    """

    def __init__(self, tables: Iterable[Sequence[int]] = ()) -> None:
        self.tables: list[Sequence[int]] = list(tables)
        self._columns: dict[str, bytearray] = {}

    def extend(self, tables: Iterable[Sequence[int]]) -> range:
        """Append tables to the pool; return their indices."""
        start = len(self.tables)
        self.tables.extend(tables)
        return range(start, len(self.tables))

    def select(self, expr: PropertyExpr, indices: Iterable[int]) -> list[int]:
        """The indices, in the order given, whose magmas satisfy expr."""
        return self._select(expr.ast, list(indices))

    def _select(self, node: tuple, indices: list[int]) -> list[int]:
        op = node[0]
        if op == "atom":
            return self._atom(node[1], indices)
        if op == "not":
            kept = set(self._select(node[1], indices))
            return [i for i in indices if i not in kept]
        if op == "and":
            for operand in node[1]:
                indices = self._select(operand, indices)
            return indices
        hits: set[int] = set()
        rest = indices
        for operand in node[1]:
            hits.update(self._select(operand, rest))
            rest = [i for i in rest if i not in hits]
        return [i for i in indices if i in hits]

    def _atom(self, name: str, indices: list[int]) -> list[int]:
        check, tables, out = CHECKERS[name], self.tables, []
        column = self._columns.setdefault(name, bytearray())
        column.extend(bytes(len(tables) - len(column)))
        for i in indices:
            value = column[i]
            if not value:
                t = tables[i]
                value = column[i] = 2 if check(math.isqrt(len(t)), t) is None else 1
            if value == 2:
                out.append(i)
        return out


def magma_satisfies(m: Magma, expr: PropertyExpr) -> bool:
    """Whether m satisfies expr: a one-magma AtomColumns.select, so each
    atom runs at most once and only where short-circuiting reaches it."""
    return bool(AtomColumns((m.table,)).select(expr, (0,)))
