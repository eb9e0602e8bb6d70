"""Fixture corpus integrity and the claim verification engine."""

import hashlib
import math
import tracemalloc
from collections import Counter
from itertools import product

import pytest

from agkit import (
    CLAIM_IDS,
    CLAIMS,
    FIXTURE_ASSERTIONS,
    ClaimBudgetError,
    Magma,
    UnknownClaimError,
    canonical_form,
    check_property,
    classify,
    enumerate_ag,
    fixtures,
    parse_magma,
    parse_property_expr,
    magma_satisfies,
    verify_claims,
)

from conftest import oracle_check


def test_fixture_names_and_orders(fixture_map):
    assert len(fixture_map) == 21
    assert set(fixture_map) == {f"table{i}" for i in [1] + list(range(3, 23))}
    orders = {name: m.order for name, m in fixture_map.items()}
    assert orders["table1"] == 3
    assert orders["table11"] == 5
    assert orders["table13"] == 8
    assert orders["table22"] == 4


def test_fixtures_returns_fresh_equal_copies():
    a, b = fixtures(), fixtures()
    assert a == b


def test_every_fixture_satisfies_its_assertions(fixture_map):
    failures = []
    for name, expected in FIXTURE_ASSERTIONS.items():
        vec = classify(fixture_map[name])
        for prop, want in expected.items():
            if vec[prop] != want:
                failures.append((name, prop, want))
    assert not failures


def test_every_fixture_is_ag(fixture_map):
    for name, m in fixture_map.items():
        assert check_property(m, "ag").holds, name


def test_assertions_cover_every_fixture():
    assert set(FIXTURE_ASSERTIONS) == set(fixtures())
    for name, expected in FIXTURE_ASSERTIONS.items():
        assert expected.get("ag") is True, name


def test_claim_registry_shape():
    assert CLAIM_IDS == tuple(f"C{i}" for i in range(1, 36))
    kinds = {c.kind for c in CLAIMS}
    assert kinds == {"implication", "equivalence", "witness-exists", "substructure"}
    external = {c.id for c in CLAIMS if c.external_premise}
    assert external == {"C12", "C33", "C34", "C35"}


def test_all_claims_ok_at_order_three():
    results = verify_claims(max_order=3)
    assert [r.id for r in results] == list(CLAIM_IDS)
    bad = [(r.id, r.status) for r in results if not r.ok]
    assert not bad


def test_all_claims_ok_at_order_four():
    results = verify_claims(max_order=4)
    bad = [(r.id, r.status) for r in results if not r.ok]
    assert not bad
    by_id = {r.id: r for r in results}
    # statuses match claim kinds
    for r in results:
        if r.kind == "witness-exists":
            assert r.status == "witness-found"
        else:
            assert r.status == "verified"
    # implication scopes actually saw the enumerated universe
    assert by_id["C1"].evidence["scope_size"] > 355


def test_ids_filter_and_order():
    results = verify_claims(max_order=3, ids=["C9", "C1", "C16"])
    assert [r.id for r in results] == ["C1", "C9", "C16"]


def test_budget_bounds_a_run_with_cached_universes():
    verify_claims(max_order=3)
    with pytest.raises(ClaimBudgetError) as info:
        verify_claims(max_order=3, budget=0)
    assert info.value.claim_id == "C1"


def test_unknown_claim_id():
    with pytest.raises(UnknownClaimError, match="C99"):
        verify_claims(max_order=3, ids=["C99"])


def test_c9_reports_the_middle_nuclear_square_witness():
    (result,) = verify_claims(max_order=3, ids=["C9"])
    assert result.status == "witness-found"
    parts = result.evidence["parts"]
    assert [p["fixture"] for p in parts] == ["table8", "table9", "table10", "table11"]
    table11_part = parts[3]
    assert table11_part["satisfied"]
    assert table11_part["falsifying"]["middle_nuclear_square"] == (4, 4, 4)


def test_witness_universe_search_counts(fixture_map):
    (result,) = verify_claims(max_order=4, ids=["C2"])
    (part,) = result.evidence["parts"]
    # table6 has order 3 <= max_order, so the claim also counts matching
    # enumerated classes; the fixture itself guarantees at least one
    assert part["universe_matches"] is not None
    assert part["universe_matches"] >= 1
    expr = parse_property_expr(part["expr"])
    assert magma_satisfies(fixture_map["table6"], expr)


def test_witness_skips_universe_beyond_max_order():
    (result,) = verify_claims(max_order=4, ids=["C13"])
    parts = {p["fixture"]: p for p in result.evidence["parts"]}
    # table13 has order 8: fixture-only evidence
    assert parts["table13"]["universe_matches"] is None
    assert parts["table13"]["satisfied"]
    assert parts["table12"]["universe_matches"] >= 1


def test_universes_from_order_six_are_refused():
    from agkit import theorems

    with pytest.raises(ValueError, match="order 6 has 40,104,513 classes"):
        verify_claims(max_order=6, ids=["C1"])
    with pytest.raises(ValueError, match="order 7 has more than 40,104,513 classes"):
        theorems._ag_universe(7, math.inf)


@pytest.mark.parametrize("max_order", [10**6, 10**18])
def test_huge_max_order_is_refused_without_listing_orders(max_order):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="order 6 has 40,104,513 classes"):
            verify_claims(max_order=max_order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_witness_claims_at_a_huge_max_order():
    # A witness claim scans its fixtures' orders only: 8 for C13, 3 for C2.
    with pytest.raises(ValueError, match="order 8 has more than 40,104,513 classes"):
        verify_claims(max_order=10**18, ids=["C13"])
    (result,) = verify_claims(max_order=10**18, ids=["C2"])
    assert result.status == "witness-found"


def test_equivalence_claim_c16_scope():
    (result,) = verify_claims(max_order=4, ids=["C16"])
    assert result.status == "verified"
    assert result.evidence["scope_size"] > 0


def test_substructure_claims_scan_ca_magmas():
    results = verify_claims(max_order=4, ids=["C22", "C23"])
    for r in results:
        assert r.status == "verified"
        assert r.evidence["scope_size"] > 0


def test_c29_includes_non_ag_magmas():
    (result,) = verify_claims(max_order=4, ids=["C29"])
    assert result.status == "verified"
    # 16 + 19683 labeled tables of orders 2 and 3 dominate this scope
    assert result.evidence["scope_size"] > 19000


def test_external_premise_flag_is_reported():
    results = verify_claims(max_order=3, ids=["C12", "C33"])
    assert all(r.external_premise for r in results)
    (c1,) = verify_claims(max_order=3, ids=["C1"])
    assert not c1.external_premise


def test_results_are_self_certifying(fixture_map):
    results = verify_claims(max_order=3, ids=["C2", "C6", "C24"])
    for r in results:
        for part in r.evidence["parts"]:
            m = parse_magma(part["magma"])
            expr = parse_property_expr(part["expr"])
            assert magma_satisfies(m, expr)
            assert m == fixture_map[part["fixture"]]


@pytest.mark.parametrize("law", ["idempotents_form_semilattice", "idempotent_identity_on_cosets"])
def test_scoped_implication_reports_counterexample(law):
    # The idempotent laws of C22 and C23 fail on some AG-groupoid (the
    # semilattice law first at order 4); a scope narrowed by within must
    # still catch it, in the implication shape.
    from agkit.theorems import Claim, Implication, _Pool, _run_implication

    bogus = Claim("X2", "substructure", f"every AG-groupoid satisfies {law}",
                  (Implication("ag", law, within="ag"),))
    result = _run_implication(bogus, _Pool({}, 4))
    assert result.status == "counterexample"
    assert result.scope == "ag magmas among AG classes of order <= 4 plus bundled tables"
    assert set(result.evidence) == {"part", "magma"}
    assert result.evidence["part"] == 0
    holds, _ = oracle_check(parse_magma(result.evidence["magma"]), law)
    assert not holds


def test_implication_counterexample_detection():
    # sanity of the engine itself: a false implication must be caught.  The
    # evidence is the first failing class in pool order, canonical.
    from agkit.theorems import Claim, Implication, _Pool, _run_implication

    bogus = Claim(
        "X1", "implication", "every AG-groupoid is a band",
        (Implication("ag", "band"),),
    )
    result = _run_implication(bogus, _Pool({}, 3))
    assert result.status == "counterexample"
    m = parse_magma(result.evidence["magma"])
    assert check_property(m, "ag").holds
    assert not check_property(m, "band").holds
    assert canonical_form(m) == m
    classes = []
    for n in (1, 2, 3):
        enumerate_ag(n, classes.append)
    assert m == next(c for c in classes if not check_property(c, "band").holds)
    # An all-magma scope comes first in the pool, in lexicographic order.
    bogus = Claim(
        "X3", "implication", "every commutative semigroup is a band",
        (Implication("commutative & associative", "band", universe="all"),),
    )
    result = _run_implication(bogus, _Pool({}, 3))

    def holds(m, name):
        return check_property(m, name).holds

    tables = (Magma(n, t) for n in (1, 2, 3) for t in product(range(n), repeat=n * n))
    first = next(m for m in tables if holds(m, "commutative") and holds(m, "associative")
                 and not holds(m, "band"))
    assert parse_magma(result.evidence["magma"]) == first


def test_pool_holds_each_magma_as_bytes(monkeypatch):
    # At orders 1-4 the AG source is enumerate_ag's stream, in order, each
    # table held as bytes, and the bundled tables enter in the same form;
    # the cache holds no Magma.
    from agkit import theorems

    monkeypatch.setattr(theorems, "_UNIVERSE_CACHE", {})
    fixmap = fixtures()
    pool = theorems._Pool(fixmap, 4)
    for n in (1, 2, 3, 4):
        stream = []
        enumerate_ag(n, stream.append)
        got = [pool.tables[i] for i in pool.source("ag", n)]
        assert got == [bytes(m.table) for m in stream]
        assert all(type(t) is bytes for t in got)
    got = [pool.tables[pool.bundled[name]] for name in fixmap]
    assert got == [bytes(m.table) for m in fixmap.values()]
    assert list(theorems._UNIVERSE_CACHE) == [1, 2, 3, 4]
    assert all(
        type(t) is bytes for tables in theorems._UNIVERSE_CACHE.values() for t in tables
    )


def test_universe_cache_is_the_only_process_wide_store():
    # Every other table a verify run scans lives in that run's pool.
    from agkit import theorems

    cached = [name for name, value in vars(theorems).items() if hasattr(value, "cache_info")]
    assert cached == []
    assert type(theorems._UNIVERSE_CACHE) is dict


def test_duplicate_tables_play_distinct_roles(fixture_map):
    # several published tables repeat an earlier table verbatim
    assert fixture_map["table4"] == fixture_map["table7"] == fixture_map["table8"]
    assert fixture_map["table9"] == fixture_map["table14"] == fixture_map["table17"]
    assert fixture_map["table5"] == fixture_map["table12"]
    assert fixture_map["table15"] == fixture_map["table16"]
    assert fixture_map["table18"] == fixture_map["table20"]


def test_verify_order_4_json_is_pinned(capsys):
    from agkit.cli import main

    assert main(["verify", "--max-order", "4", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "74a2f0f056fc7ae5f61e9dbf324730d18712136cc7181d4655ddc2ca7cf220e9"
    )


def test_verify_order_5_json_is_pinned(capsys):
    from agkit.cli import main

    assert main(["verify", "--max-order", "5", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "40b5058674d34021970ae7f0c42e0d356ee25dad8ce9382f3d0d7240c489992a"
    )


def test_verify_checker_calls_are_pinned(monkeypatch):
    # Calls per atom over the whole order-4 run: any drift in which atoms
    # run on which magmas (operand order, short-circuiting, memoising)
    # moves these counts.
    from agkit import props

    calls = Counter()
    for name, checker in list(props.CHECKERS.items()):
        def counted(n, t, *down, name=name, checker=checker):
            calls[name] += 1
            return checker(n, t, *down)

        monkeypatch.setitem(props.CHECKERS, name, counted)
    verify_claims(max_order=4)
    assert dict(calls) == {
        "T1": 89,
        "T3_left": 27,
        "T3_right": 27,
        "ag": 136,
        "ag_star": 299,
        "ag_star_star": 378,
        "associative": 818,
        "band": 376,
        "bol_star": 99,
        "commutative": 20077,
        "cyclic_associative": 455,
        "has_cancellative_element": 376,
        "has_left_identity": 11,
        "idempotent_identity_on_cosets": 89,
        "idempotents_form_semilattice": 89,
        "left_alternative": 376,
        "left_commutative": 376,
        "left_nuclear_square": 98,
        "middle_nuclear_square": 92,
        "paramedial": 99,
        "right_alternative": 376,
        "right_commutative": 320,
        "right_nuclear_square": 98,
        "three_band": 376,
    }


def test_four_variable_premises_run_only_on_bands(monkeypatch):
    from agkit import props

    calls = {"paramedial": 0, "bol_star": 0}
    for name in calls:
        def counted(n, t, name=name, checker=props.CHECKERS[name]):
            assert all(t[a * n + a] == a for a in range(n)), (name, n, t)
            calls[name] += 1
            return checker(n, t)

        monkeypatch.setitem(props.CHECKERS, name, counted)
    results = verify_claims(max_order=4, ids=["C3", "C7", "C31"])
    assert [r.status for r in results] == ["verified"] * 3
    assert calls["paramedial"] > 0 and calls["bol_star"] > 0


def test_c14_runs_right_commutative_only_on_ag_star_star(monkeypatch):
    # Both atoms cost 3; the premise's text order puts the more selective
    # ag_star_star first.
    from agkit import props

    ag_star_star = props.CHECKERS["ag_star_star"]
    right_commutative = props.CHECKERS["right_commutative"]
    calls = 0

    def counted(n, t):
        nonlocal calls
        assert ag_star_star(n, t) is None, (n, t)
        calls += 1
        return right_commutative(n, t)

    monkeypatch.setitem(props.CHECKERS, "right_commutative", counted)
    (result,) = verify_claims(max_order=4, ids=["C14"])
    assert result.status == "verified"
    assert calls > 0
