"""Property checkers against the independent term-tree oracle."""

import ast
import hashlib
import random
import re
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from agkit import (
    CATALOG,
    Magma,
    UnknownPropertyError,
    check_property,
    classify,
    fixtures,
    magma_satisfies,
    parse_magma,
    parse_property_expr,
)

from agkit import props
from agkit.props import (
    ATOM_COST,
    AtomColumns,
    CHECKERS,
    CLAIM_LAWS,
    COMPOSITES,
    EXPR_ATOMS,
    LAWS,
    _compile_law,
    _law_source,
)

from conftest import M, V, ag_universe, eval_term, magmas, oracle_check


def assert_matches_oracle(m: Magma) -> None:
    vec = classify(m)
    for name in CATALOG:
        want_holds, want_witness = oracle_check(m, name)
        res = check_property(m, name)
        assert res.holds == want_holds == vec[name], (name, m)
        if name == "has_left_identity":
            assert res.witness is None
        elif not want_holds:
            assert res.witness == want_witness, (name, m)
        else:
            assert res.witness is None


def test_oracle_agreement_on_fixtures(fixture_map):
    for m in fixture_map.values():
        assert_matches_oracle(m)


def test_oracle_agreement_on_small_universe(small_universe):
    for m in small_universe:
        assert_matches_oracle(m)


@given(magmas(max_order=4))
def test_oracle_agreement_on_random_magmas(m):
    assert_matches_oracle(m)


@st.composite
def _near_affine(draw, orders=(5, 6)):
    """x*y = (p*x + q*y + r) mod n, with up to two cells overwritten.

    Affine tables are medial, so the four-variable laws often hold, or
    fail only at a tuple far into the scan."""
    n = draw(st.sampled_from(orders))
    p, q, r = (draw(st.integers(0, n - 1)) for _ in range(3))
    cells = [(p * x + q * y + r) % n for x in range(n) for y in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        cells[draw(st.integers(0, n * n - 1))] = draw(st.integers(0, n - 1))
    return Magma(n, tuple(cells))


@given(st.one_of(_near_affine(), magmas(min_order=5, max_order=6)))
def test_four_variable_laws_match_oracle_past_order_4(m):
    for name in ("medial", "paramedial", "bol_star"):
        holds, witness = oracle_check(m, name)
        assert CHECKERS[name](m.order, m.table) == witness, (name, m)


def test_constant_magma_satisfies_every_identity():
    m = parse_magma("3:0,0,0,0,0,0,0,0,0")
    vec = classify(m)
    for name in CATALOG:
        if name in ("band", "three_band", "semilattice", "has_left_identity"):
            assert not vec[name]
        else:
            assert vec[name]


def test_order_one_satisfies_everything():
    vec = classify(parse_magma("1:0"))
    assert all(vec.as_dict().values())


def test_witness_is_lex_smallest():
    m = parse_magma("3:0,0,0,0,0,0,0,1,0")
    res = check_property(m, "cyclic_associative")
    assert not res.holds
    assert res.witness == (2, 1, 2)


def test_composites_equal_conjunction_of_parts(universe4):
    pairs = {
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
    for m in universe4[:120]:
        vec = classify(m)
        for whole, parts in pairs.items():
            assert vec[whole] == all(vec[p] for p in parts)


def test_unknown_property_raises():
    m = parse_magma("2:0,0,0,0")
    with pytest.raises(UnknownPropertyError, match="valid names"):
        check_property(m, "assoc")
    # Expression atoms outside the catalog are not properties.
    for name in set(EXPR_ATOMS) - set(CATALOG):
        with pytest.raises(UnknownPropertyError):
            check_property(m, name)
    with pytest.raises(UnknownPropertyError):
        classify(m)["nope"]


def test_property_vector_accessors():
    vec = classify(parse_magma("1:0"))
    d = vec.as_dict()
    assert set(d) == set(CATALOG)
    assert all(d.values())


def test_known_implications_hold_on_universe(universe4):
    for m in universe4:
        vec = classify(m)
        if vec["ag"]:
            assert vec["medial"]
        if vec["commutative"] and vec["ag"]:
            assert vec["associative"]
        assert vec["semilattice"] == (vec["commutative"] and vec["band"])


def test_expression_parser_and_evaluation():
    m = parse_magma("3:0,0,0,0,1,0,0,0,2")
    for text in (
        "cyclic_associative & commutative",
        "cyclic_associative and commutative",
        "cyclic_associative ∧ commutative",
        "!(band) | cyclic_associative",
        "¬band ∨ cyclic_associative",
        "not band or cyclic_associative",
    ):
        assert magma_satisfies(m, parse_property_expr(text))
    assert not magma_satisfies(m, parse_property_expr("band & !commutative"))


def test_expression_precedence_and_parens():
    m = parse_magma("2:0,0,0,0")
    # band is false; ! binds tighter than &, & tighter than |
    assert magma_satisfies(m, parse_property_expr("!band & ag | band"))
    assert not magma_satisfies(m, parse_property_expr("!(band & ag | !band)"))


def test_expression_has_cancellative_element_atom(fixture_map, universe4):
    expr = parse_property_expr("has_cancellative_element")
    assert magma_satisfies(fixture_map["table6"], expr)
    assert not magma_satisfies(fixture_map["table1"], expr)
    # Existential, like has_left_identity: an empty witness on failure.
    tables = [Magma(n, t) for n in (2, 3) for t in product(range(n), repeat=n * n)]
    for m in tables + universe4:
        holds, _ = oracle_check(m, "has_cancellative_element")
        want = None if holds else ()
        assert CHECKERS["has_cancellative_element"](m.order, m.table) == want, m


def test_claim_laws_match_oracle():
    # The idempotent laws are no catalog properties, so check_property and
    # the catalog oracle tests skip them; compare holds and witness here.
    tables = [Magma(n, t) for n in (1, 2, 3) for t in product(range(n), repeat=n * n)]
    tables += ag_universe(4)
    failing = dict.fromkeys(CLAIM_LAWS, 0)
    for m in tables:
        for name in CLAIM_LAWS:
            holds, witness = oracle_check(m, name)
            assert CHECKERS[name](m.order, m.table) == witness, (name, m)
            failing[name] += not holds
    assert all(failing.values()), failing


def test_expression_errors():
    for bad in ("", "ag &", "& ag", "ag | (band", "ag banana", "nope", "ag @ band", "(band band)"):
        with pytest.raises(UnknownPropertyError):
            parse_property_expr(bad)


@given(magmas(max_order=3))
def test_expression_negation_is_complement(m):
    expr = parse_property_expr("cyclic_associative")
    neg = parse_property_expr("!cyclic_associative")
    assert magma_satisfies(m, expr) != magma_satisfies(m, neg)


_CHEAP_ATOMS = ("band", "commutative", "associative", "ag", "cyclic_associative",
                "has_left_identity", "three_band")


def _junctions(kids):
    return st.one_of(
        st.lists(kids, min_size=2, max_size=3).map(lambda xs: "(" + " & ".join(xs) + ")"),
        st.lists(kids, min_size=2, max_size=3).map(lambda xs: "(" + " | ".join(xs) + ")"),
        kids.map(lambda x: "!" + x),
    )


_exprs = st.recursive(st.sampled_from(_CHEAP_ATOMS), _junctions, max_leaves=8)
_small_tables = st.integers(2, 3).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
)


def _reference(node, i, value, seen) -> bool:
    """Per-magma evaluation, left to right, stopping at the first decisive
    operand; seen collects the (atom, index) pairs it looks up."""
    op = node[0]
    if op == "atom":
        seen.add((node[1], i))
        return value(node[1], i)
    if op == "not":
        return not _reference(node[1], i, value, seen)
    if op == "and":
        return all(_reference(x, i, value, seen) for x in node[1])
    return any(_reference(x, i, value, seen) for x in node[1])


@given(
    st.lists(_small_tables, min_size=1, max_size=5).flatmap(
        lambda base: st.lists(st.sampled_from(base), min_size=1, max_size=12)
    ),
    st.lists(st.tuples(_exprs, st.randoms(use_true_random=False)), min_size=1, max_size=3),
)
def test_atom_columns_select_matches_short_circuit_reference(pool, queries):
    # Repeated tables sit at distinct indices; each gets its own table
    # object, so a checker call names its index by the table's id.
    magmas = [Magma(n, list(cells)) for n, cells in pool]
    index_of = {id(m.table): i for i, m in enumerate(magmas)}
    calls = []
    columns = AtomColumns(magmas)
    want_pairs: set = set()

    def value(name, i):
        return oracle_check(magmas[i], name)[0]

    with pytest.MonkeyPatch.context() as mp:
        for name in _CHEAP_ATOMS:
            def counted(n, t, name=name, checker=CHECKERS[name]):
                calls.append((name, index_of[id(t)]))
                return checker(n, t)

            mp.setitem(props.CHECKERS, name, counted)
        for text, rnd in queries:
            expr = parse_property_expr(text)
            indices = rnd.sample(range(len(magmas)), rnd.randint(0, len(magmas)))
            want = [i for i in indices if _reference(expr.ast, i, value, want_pairs)]
            assert columns.select(expr, indices) == want, text
    assert len(calls) == len(set(calls)), calls
    assert set(calls) == want_pairs


def test_atom_cost_is_the_witness_arity():
    assert set(ATOM_COST) == set(EXPR_ATOMS)
    tables = [Magma(n, t) for n in (2, 3) for t in product(range(n), repeat=n * n)]
    for name in CATALOG:
        if name in COMPOSITES or name == "has_left_identity":
            continue
        witness = next(w for m in tables if (w := check_property(m, name).witness))
        assert len(witness) == ATOM_COST[name], name
    assert ATOM_COST["semilattice"] == 2
    assert ATOM_COST["T3"] == 3


def test_expression_operands_are_in_stable_cost_order():
    expr = parse_property_expr("paramedial & band")
    assert expr.ast == ("and", (("atom", "band"), ("atom", "paramedial")))
    assert expr.text == "paramedial & band"
    assert expr.names == {"paramedial", "band"}
    expr = parse_property_expr("cyclic_associative & T1 & !(medial | commutative) & three_band")
    assert expr.ast == ("and", (
        ("atom", "three_band"),
        ("atom", "cyclic_associative"),
        ("atom", "T1"),
        ("not", ("or", (("atom", "commutative"), ("atom", "medial")))),
    ))


def test_witness_digest():
    # Every catalog verdict and witness over all magmas of orders 1-3 and
    # the 331 AG classes of order 4 (20,031 tables), pinned by SHA-256.
    tables = [Magma(n, t) for n in (1, 2, 3) for t in product(range(n), repeat=n * n)]
    tables += ag_universe(4)
    assert len(tables) == 20031
    h = hashlib.sha256()
    for m in tables:
        for name in CATALOG:
            r = check_property(m, name)
            h.update(repr((r.holds, r.witness)).encode())
    assert h.hexdigest() == (
        "c7d7e5c29ede7fef2026d19c1562fc0712cecc9a599dc1f3c67e446fccb7f4cf"
    )


def _seeded_tables() -> list[Magma]:
    """300 tables of each order 5-7, a third uniformly random, a third
    affine (x*y = px + qy + r mod n) and a third affine with one cell
    overwritten, then the bundled order-8 table13."""
    rng = random.Random(2015)
    tables = []
    for n in (5, 6, 7):
        for k in range(300):
            if k % 3 == 0:
                cells = [rng.randrange(n) for _ in range(n * n)]
            else:
                p, q, r = rng.randrange(n), rng.randrange(n), rng.randrange(n)
                cells = [(p * x + q * y + r) % n for x in range(n) for y in range(n)]
                if k % 3 == 2:
                    cells[rng.randrange(n * n)] = rng.randrange(n)
            tables.append(Magma(n, tuple(cells)))
    return tables + [fixtures()["table13"]]


def test_witness_digest_past_order_4():
    # Every catalog verdict and witness over seeded tables of orders 5-8,
    # where the four-variable laws compare rows instead of scanning
    # tuples; the digest was taken from the scalar checkers.
    tables = _seeded_tables()
    held = Counter()
    h = hashlib.sha256()
    for m in tables:
        for name in CATALOG:
            r = check_property(m, name)
            held[name] += r.holds
            h.update(repr((r.holds, r.witness)).encode())
    assert (held["medial"], held["paramedial"], held["bol_star"]) == (365, 135, 94)
    assert h.hexdigest() == (
        "8c30cf1407b57428628414f40f0d611a79a6458078e1aee423f6d62e0332670a"
    )


def test_classify_runs_each_checker_once(monkeypatch, fixture_map):
    calls: Counter = Counter()

    def counted(name, checker):
        def check(n, t):
            calls[name] += 1
            return checker(n, t)
        return check

    for name, checker in list(CHECKERS.items()):
        monkeypatch.setitem(props.CHECKERS, name, counted(name, checker))
    once = Counter(name for name in CATALOG if name not in COMPOSITES)
    for m in list(fixture_map.values()) + _seeded_tables()[::100]:
        calls.clear()
        classify(m)
        assert calls == once, m


def test_conftest_oracle_imports_no_checker():
    # The term-tree oracle must not share code with the checkers it judges.
    tree = ast.parse((Path(__file__).parent / "conftest.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("agkit"):
            assert node.module == "agkit", node.module
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("agkit") for a in node.names)
    assert imported <= {"Magma", "enumerate_ag", "fixtures"}, imported


def test_law_compiler_hoists_names_and_skips():
    def source(name):
        return _law_source(name, {**LAWS, **CLAIM_LAWS}[name])

    # ab and ba are bound above the innermost loop, where (ab)c = (ba)c
    # holds for every c once the rows L[ab] and L[ba] are equal.
    assert "ab = t[a * n + b]" in source("left_commutative")
    assert "if L[ab] == L[ba]: continue" in source("left_commutative")
    assert "continue" not in source("right_commutative")
    # Innermost subterms get a name only when they occur twice.
    assert "cc = t[c * n + c]" in source("right_nuclear_square")
    assert "aa = t[a * n + a]" in source("three_band")
    assert "aa =" not in source("band")
    # A hypothesis bound above the innermost loop is tested in the loop
    # that binds its last variable.
    assert source("idempotents_form_semilattice").splitlines() == [
        "def _check_idempotents_form_semilattice(n, t):",
        "    for a in range(n):",
        "        aa = t[a * n + a]",
        "        if aa != a: continue",
        "        for b in range(n):",
        "            bb = t[b * n + b]",
        "            ab = t[a * n + b]",
        "            abab = t[ab * n + ab]",
        "            ba = t[b * n + a]",
        "            if bb != b: continue",
        "            for c in range(n):",
        "                if t[c * n + c] == c and (abab != ab or ab != ba"
        " or t[ab * n + c] != t[a * n + t[b * n + c]]):",
        "                    return (a, b, c)",
        "    return None",
    ]
    # A four-variable law with d once on each side compares the two sides
    # as functions of d, (ab)(cd) as L_ab after L_c, and skips the d-loop
    # where they are equal.
    assert source("medial").splitlines() == [
        "def _check_medial(n, t):",
        "    L = [t[x * n:x * n + n] for x in range(n)]",
        "    get_L = [itemgetter(*f) for f in L]",
        "    LL = [[g(f) for g in get_L] for f in L]",
        "    for a in range(n):",
        "        for b in range(n):",
        "            ab = t[a * n + b]",
        "            for c in range(n):",
        "                ac = t[a * n + c]",
        "                if LL[ab][c] == LL[ac][b]: continue",
        "                for d in range(n):",
        "                    if t[ab * n + t[c * n + d]] != t[ac * n + t[b * n + d]]:",
        "                        return (a, b, c, d)",
        "    return None",
    ]
    assert "if LL[ab][c] == RR[ca][b]: continue" in source("paramedial")
    assert "if LL[a][bc] == L[abc]: continue" in source("bol_star")
    # The census predicates, the left invertive law and T1 (a hypothesis)
    # keep the plain loop nest.
    for name in ("cyclic_associative", "associative", "commutative", "ag", "T1"):
        assert source(name).splitlines()[1] == "    for a in range(n):", name
        assert "itemgetter" not in source(name), name
    # T1's hypothesis needs d, so it stays in the innermost condition.
    assert "if ab == t[c * n + d] and ba != t[d * n + c]:" in source("T1")
    for bad in ("abc = a", "a(b = a", "ab) = a", "() = a", "ab = ba = ab", "ab", "bc = cb", "e = a"):
        with pytest.raises(ValueError):
            _law_source("bad", bad)


def test_law_compiler_guards_exactly_the_short_chain_laws():
    # The rule: a lone equation with no hypothesis whose last variable z
    # occurs once on each side, and whose sides are each 1 to nvars - 2
    # products deep above z, gets one "== ...: continue" guard at the end
    # of the second-to-last loop, before the z-loop.
    def depth(x, z):
        return 0 if x == z else 1 + depth(x[1] if z in repr(x[1]) else x[0], z)

    guarded = set()
    for name, law in {**LAWS, **CLAIM_LAWS}.items():
        hyps, _, concl = law.rpartition("->")
        eqs = props._equations(concl)
        nvars = len(set(law) & set("abcd"))
        z = "abcd"[nvars - 1]
        want = (not hyps and len(eqs) == 1
                and all(repr(x).count(z) == 1 and 1 <= depth(x, z) <= nvars - 2
                        for x in eqs[0]))
        lines = _law_source(name, law).splitlines()
        guards = [k for k, line in enumerate(lines)
                  if re.fullmatch(r" *if [LR]+\[.+\] == [LR]+\[.+\]: continue", line)]
        assert len(guards) == want, name
        if want:
            guarded.add(name)
            k = guards[0]
            assert lines[k].startswith(" " * 4 * nvars + "if "), name
            assert lines[k + 1] == " " * 4 * nvars + f"for {z} in range(n):", name
    assert guarded == {"left_commutative", "medial", "paramedial", "bol_star"}


# Four-variable laws outside the catalog whose sides, as functions of d,
# are the other chains of row and column maps: L after R, R after L, R
# after R, a lone column, and one chain of three maps, which keeps the
# plain loop nest.  Each is paired with its term trees for eval_term.
_CHAIN_LAWS = {
    "a(db) = (ab)(dc)": (M(V(0), M(V(3), V(1))), M(M(V(0), V(1)), M(V(3), V(2)))),
    "(ad)(bc) = (d(ab))c": (M(M(V(0), V(3)), M(V(1), V(2))), M(M(V(3), M(V(0), V(1))), V(2))),
    "(da)b = c(bd)": (M(M(V(3), V(0)), V(1)), M(V(2), M(V(1), V(3)))),
    "d(ab) = (cd)a": (M(V(3), M(V(0), V(1))), M(M(V(2), V(3)), V(0))),
    "((ad)b)c = (ab)(cd)": (M(M(M(V(0), V(3)), V(1)), V(2)), M(M(V(0), V(1)), M(V(2), V(3)))),
}


def test_every_chain_shape_matches_term_evaluation():
    rng = random.Random(7)
    tables = [Magma(1, (0,))] + _seeded_tables()[::7]
    tables += [Magma(n, tuple(rng.randrange(2) for _ in range(n * n)))
               for n in (2, 3, 4) for _ in range(20)]
    for k, (law, (lhs, rhs)) in enumerate(_CHAIN_LAWS.items()):
        checker = _compile_law(f"chain{k}", law)
        assert ("itemgetter" in _law_source("x", law)) == (k < 4), law
        failing = 0
        for m in tables:
            n, t = m.order, m.table
            want = next((env for env in product(range(n), repeat=4)
                         if eval_term(lhs, t, n, env) != eval_term(rhs, t, n, env)), None)
            assert checker(n, t) == want, (law, m)
            failing += want is not None
        assert 0 < failing < len(tables), law
