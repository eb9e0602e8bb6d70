"""Acceptance gate: one test per stated criterion.

Criterion 2 (order 6, hours-scale) runs only when AGKIT_ALLOW_LARGE is
set.  Everything else, including criterion 5's order-5 run of every claim
but the witness claims (a few seconds), runs unconditionally and must
stay green.
"""

import os
import random
import time

import pytest

from agkit import (
    CLAIMS,
    FIXTURE_ASSERTIONS,
    PUBLISHED_INCONSISTENT_CELLS,
    PUBLISHED_CENSUS,
    ROW_ORDER,
    are_isomorphic,
    ca_test,
    canonical_key,
    classify,
    classify_census,
    enumerate_ag,
    fixtures,
    mul,
    relabel,
    render_extended_table,
    star_index_row,
    verify_claims,
)

from conftest import ag_universe, brute_enumeration, brute_isomorphic


def test_criterion_1_census_reproduction_orders_2_to_5():
    t0 = time.monotonic()
    for n in (2, 3, 4):
        counts = classify_census(n).counts
        for name in ROW_ORDER:
            expected = PUBLISHED_INCONSISTENT_CELLS.get((n, name), PUBLISHED_CENSUS[n][name])
            assert counts[name] == expected, (n, name, counts[name], expected)
    small_elapsed = time.monotonic() - t0

    t0 = time.monotonic()
    counts5 = classify_census(5).counts
    elapsed5 = time.monotonic() - t0
    for name in ROW_ORDER:
        assert counts5[name] == PUBLISHED_CENSUS[5][name], (5, name)

    assert small_elapsed < 60.0
    assert elapsed5 < 300.0
    print(f"[PASS] census 2-5 exact (orders 2-4 in {small_elapsed:.2f}s, order 5 in {elapsed5:.2f}s)")


@pytest.mark.skipif(
    not os.environ.get("AGKIT_ALLOW_LARGE"),
    reason="order-6 census is hours-scale; set AGKIT_ALLOW_LARGE=1 to run",
)
def test_criterion_2_order_six_stretch():
    counts = classify_census(6, jobs=os.cpu_count() or 1).counts
    assert counts["AG"] == 40104513
    assert counts["CA"] == 9068
    assert counts["associative ∧ ¬CA"] == 7
    assert counts["CA ∧ non-associative"] == 1565
    print("[PASS] order-6 totals match the published values")


def test_criterion_2_partitions_are_resumable():
    # the resumability contract behind the stretch run, checked at order 4:
    # disjoint partition slices sum and union to the full enumeration
    full = [m.table for m in ag_universe(4)]
    got = []
    for i in (1, 2, 3, 4):
        part: list = []
        enumerate_ag(4, part.append, partition=(i, 4))
        got.extend(m.table for m in part)
    assert sorted(got) == full
    print("[PASS] partition slices sum correctly")


def test_criterion_3_fixture_classification():
    fix = fixtures()
    assert len(fix) == 21
    failures = []
    for name, expected in FIXTURE_ASSERTIONS.items():
        vec = classify(fix[name])
        for prop, want in expected.items():
            if vec[prop] != want:
                failures.append((name, prop, want))
    assert not failures
    print(f"[PASS] all 21 fixtures match their {sum(len(v) for v in FIXTURE_ASSERTIONS.values())} stated assertions")


def test_criterion_4_ca_test_soundness_completeness():
    pool = list(fixtures().values())
    for n in (1, 2, 3, 4):
        pool.extend(ag_universe(n))
    disagreements = 0
    for m in pool:
        n = m.order
        direct = all(
            mul(m, a, mul(m, b, c)) == mul(m, c, mul(m, a, b))
            for a in range(n) for b in range(n) for c in range(n)
        )
        if ca_test(m).verdict != direct:
            disagreements += 1
    assert disagreements == 0
    print(f"[PASS] ca_test agrees with the triple scan on {len(pool)} magmas")


def test_criterion_5_theorem_suite_order_4():
    results = verify_claims(max_order=4)
    by_id = {r.id: r for r in results}
    core = [f"C{i}" for i in range(1, 31)]
    bad = [cid for cid in core if not by_id[cid].ok]
    assert not bad
    extra_bad = [r.id for r in results if not r.ok]
    assert not extra_bad
    print(f"[PASS] claims C1-C30 ok at max_order=4 ({len(results)} claims total)")


def test_criterion_5_theorem_suite_order_5():
    implication_ids = [c.id for c in CLAIMS if c.kind != "witness-exists"]
    results = verify_claims(max_order=5, ids=implication_ids)
    bad = [(r.id, r.status) for r in results if r.status != "verified"]
    assert not bad
    print(f"[PASS] {len(results)} implication claims counterexample-free at max_order=5")


def test_criterion_6_isomorphism_invariance():
    rng = random.Random(20260816)
    pool = list(fixtures().values())
    for n in (1, 2, 3, 4):
        pool.extend(ag_universe(n))
    for _ in range(1000):
        m = rng.choice(pool)
        p = list(range(m.order))
        rng.shuffle(p)
        image = relabel(m, tuple(p))
        assert canonical_key(image) == canonical_key(m)
        assert classify(image).flags == classify(m).flags

    small = [m for m in pool if m.order <= 4]
    for _ in range(100):
        m1, m2 = rng.choice(small), rng.choice(small)
        assert are_isomorphic(m1, m2) == brute_isomorphic(m1, m2)
    print("[PASS] classify/canonical_key invariant over 1000 relabelings; "
          "canonical equality matches brute-force isomorphism on 100 pairs")


def test_criterion_7_oracle_equivalence_tiny_orders():
    t0 = time.monotonic()
    oracle = {n: brute_enumeration.__wrapped__(n) for n in (1, 2, 3)}
    elapsed = time.monotonic() - t0
    assert elapsed <= 10.0
    assert len(oracle[2]) == 3
    assert len(oracle[3]) == 20
    for n in (1, 2, 3):
        assert tuple(m.table for m in ag_universe(n)) == oracle[n]
    print(f"[PASS] enumerate_ag matches the filter-everything oracle (oracle ran in {elapsed:.2f}s)")


def _render_blocks(text: str, n: int):
    lines = text.splitlines()
    header = [seg.split() for seg in lines[0].split("|")[1:]]
    star = [
        [seg.split() for seg in lines[2 + a].split("|")[1:]] for a in range(n)
    ]
    circle = [
        [seg.split() for seg in lines[4 + n + a].split("|")[2:]] for a in range(n)
    ]
    return header, star, circle


def test_criterion_8_rendering_fidelity():
    fix = fixtures()

    m = fix["table3"]
    n = m.order
    report = ca_test(m)
    assert report.verdict
    text = render_extended_table(m, report)
    header, star, circle = _render_blocks(text, n)
    for x in range(n):
        assert header[1 + x] == [str(v + 1) for v in star_index_row(m, x)]
    for a in range(n):
        assert star[a][1:] == circle[a]

    m4 = fix["table4"]
    report4 = ca_test(m4)
    assert not report4.verdict
    assert report4.first_mismatch == (1, 2, 2)
    text4 = render_extended_table(m4, report4)
    lines = text4.splitlines()
    # x=2 (1-based) star block: third segment after label and base
    star_seg = lines[2 + 2].split("|")[2 + 1]
    circle_seg = lines[4 + 3 + 2].split("|")[2 + 1]
    assert "[" in star_seg and "[" in circle_seg
    assert star_seg.split()[2].strip("[]") == "2"
    assert circle_seg.split()[2].strip("[]") == "1"
    print("[PASS] extended-table rendering reproduces index rows, bands, and mismatch marks")
