"""Property checkers against the independent term-tree oracle."""

from itertools import product

import pytest
from hypothesis import given

from agkit import (
    CATALOG,
    Magma,
    UnknownPropertyError,
    cancellative_elements,
    check_property,
    classify,
    idempotents,
    left_identities,
    magma_satisfies,
    parse_magma,
    parse_property_expr,
)

from agkit.props import ATOM_COST, COMPOSITES, EXPR_ATOMS

from conftest import magmas, oracle_check


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
    with pytest.raises(UnknownPropertyError):
        classify(m)["nope"]


def test_property_vector_accessors():
    vec = classify(parse_magma("1:0"))
    d = vec.as_dict()
    assert set(d) == set(CATALOG)
    assert vec.true_names() == CATALOG


def test_idempotents_cancellative_identities_examples(fixture_map):
    t1 = fixture_map["table1"]
    assert idempotents(t1) == {0, 1, 2}
    assert cancellative_elements(t1) == (set(), set())
    assert left_identities(t1) == set()

    t6 = fixture_map["table6"]
    assert idempotents(t6) == {0}
    left, right = cancellative_elements(t6)
    assert left == right == {0, 1, 2}
    assert left_identities(t6) == {0}

    t5 = fixture_map["table5"]
    assert idempotents(t5) == {2}
    assert cancellative_elements(t5) == (set(), set())
    assert left_identities(t5) == set()


def test_cancellative_means_bijective_row_and_column(universe4):
    for m in universe4[:80]:
        n, t = m.order, m.table
        left, right = cancellative_elements(m)
        for a in range(n):
            assert (a in left) == (sorted(t[a * n:(a + 1) * n]) == list(range(n)))
            assert (a in right) == (sorted(t[b * n + a] for b in range(n)) == list(range(n)))


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


def test_expression_has_cancellative_element_atom(fixture_map):
    expr = parse_property_expr("has_cancellative_element")
    assert magma_satisfies(fixture_map["table6"], expr)
    assert not magma_satisfies(fixture_map["table1"], expr)


def test_expression_errors():
    for bad in ("", "ag &", "& ag", "ag | (band", "ag banana", "nope", "ag @ band"):
        with pytest.raises(UnknownPropertyError):
            parse_property_expr(bad)


@given(magmas(max_order=3))
def test_expression_negation_is_complement(m):
    expr = parse_property_expr("cyclic_associative")
    neg = parse_property_expr("!cyclic_associative")
    assert magma_satisfies(m, expr) != magma_satisfies(m, neg)


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
