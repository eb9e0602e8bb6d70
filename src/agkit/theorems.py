"""Finite-scale verification of the subclass theorems and counterexamples.

Every claim but the witness claims is a scoped implication, "for every
magma in scope, if premise then conclusion", checked exhaustively over
the enumerated AG-groupoid classes plus the bundled tables, optionally
narrowed to the magmas that satisfy a property expression.  The subclass
inclusions, the equivalence inside the cyclic associative class and the
statements about idempotents all take this form; their kind labels name
the statement, not a runner.  A witness claim reproduces a known
separating example.  Claims whose proofs lean on results about T- or
star-class structure imported from outside this toolkit's scope are
tagged external_premise; they are still checked as stated implications,
so a finite counterexample would surface here.  One verify_claims call
appends every magma it scans to one pool and evaluates each expression
over a whole scope at once, so no atom runs twice on one magma; the
pool holds each magma once, as the bytes of its table, with no order
beside it (_Pool).  Only the AG universes are kept for the process
(_UNIVERSE_CACHE); each run builds its own all-magma tables.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .core import Magma, parse_magma, render_magma
from .enumeration import LARGE_ORDER_THRESHOLD, PUBLISHED_CENSUS, BudgetExceeded, _run, _tables
from .props import AtomColumns, check_property, parse_property_expr

# The bundled example tables, transcribed 0-based (first symbol -> 0).
# Distinct names may carry the same table; they play distinct roles.
_FIXTURE_DATA: dict[str, str] = {
    "table1": "3:0,0,0,0,1,0,0,0,2",
    "table3": "4:0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,2",
    "table4": "3:0,0,0,0,0,0,0,1,0",
    "table5": "4:1,2,2,2,3,2,2,2,2,2,2,2,2,2,2,2",
    "table6": "3:0,1,2,2,0,1,1,2,0",
    "table7": "3:0,0,0,0,0,0,0,1,0",
    "table8": "3:0,0,0,0,0,0,0,1,0",
    "table9": "3:0,0,0,0,0,2,0,1,0",
    "table10": "3:0,0,0,0,0,0,0,1,1",
    "table11": "5:0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,0,0,0,0,1,0,0,0,2,3",
    "table12": "4:1,2,2,2,3,2,2,2,2,2,2,2,2,2,2,2",
    "table13": (
        "8:3,3,5,3,3,3,7,3,4,3,3,3,3,7,3,3,3,6,3,3,7,3,3,3,"
        "3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,"
        "3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3"
    ),
    "table14": "3:0,0,0,0,0,2,0,1,0",
    "table15": "3:0,0,0,0,0,0,1,1,1",
    "table16": "3:0,0,0,0,0,0,1,1,1",
    "table17": "3:0,0,0,0,0,2,0,1,0",
    "table18": "4:0,0,0,0,0,0,0,0,0,0,0,1,0,0,0,2",
    "table19": "3:0,0,0,0,0,0,1,1,0",
    "table20": "4:0,0,0,0,0,0,0,0,0,0,0,1,0,0,0,2",
    "table21": "4:0,0,2,2,0,0,3,3,2,2,0,0,2,2,0,0",
    "table22": "4:2,2,2,2,3,2,2,2,2,2,2,2,2,2,2,2",
}

# Property assertions stated about each table where it is introduced.
FIXTURE_ASSERTIONS: dict[str, dict[str, bool]] = {
    "table1": {"ag": True, "cyclic_associative": True},
    "table3": {"ag": True, "cyclic_associative": True},
    "table4": {"ag": True, "cyclic_associative": False},
    "table5": {"ag": True, "cyclic_associative": True, "associative": False},
    "table6": {"ag": True, "bol_star": True, "cyclic_associative": False},
    "table7": {"ag": True, "paramedial": True, "cyclic_associative": False},
    "table8": {"ag": True, "left_nuclear_square": True, "cyclic_associative": False},
    "table9": {"ag": True, "right_nuclear_square": True, "cyclic_associative": False},
    "table10": {"ag": True, "middle_nuclear_square": True, "cyclic_associative": False},
    "table11": {"ag": True, "cyclic_associative": True, "middle_nuclear_square": False},
    "table12": {"ag": True, "cyclic_associative": True, "ag_star": False},
    "table13": {
        "ag": True,
        "cyclic_associative": True,
        "ag_star_star": False,
        "right_commutative": False,
    },
    "table14": {"ag": True, "ag_star_star": True, "cyclic_associative": False},
    "table15": {"ag": True, "right_commutative": True, "cyclic_associative": False},
    "table16": {"ag": True, "right_commutative": True, "ag_star_star": False},
    "table17": {"ag": True, "ag_star_star": True, "right_commutative": False},
    "table18": {"ag": True, "cyclic_associative": True, "ag_star": False, "band": False},
    "table19": {"ag": True, "left_commutative": True, "cyclic_associative": False},
    "table20": {
        "ag": True,
        "left_commutative": True,
        "cyclic_associative": True,
        "ag_star": False,
    },
    "table21": {
        "ag": True,
        "left_commutative": True,
        "right_commutative": True,
        "cyclic_associative": False,
        "ag_star": False,
    },
    "table22": {
        "ag": True,
        "cyclic_associative": True,
        "ag_star": True,
        "commutative": False,
    },
}


def fixtures() -> dict[str, Magma]:
    """All bundled example tables by name."""
    return {name: parse_magma(text) for name, text in _FIXTURE_DATA.items()}


@dataclass(frozen=True)
class Implication:
    premise: str
    conclusion: str
    universe: str = "ag"  # "ag", or "all" to include non-AG magmas (order <= 3)
    within: str | None = None  # expression narrowing the scope, if any


@dataclass(frozen=True)
class WitnessSpec:
    fixture: str
    expr: str


@dataclass(frozen=True)
class Claim:
    id: str
    kind: str  # implication | equivalence | witness-exists | substructure
    statement: str
    parts: tuple
    external_premise: bool = False


@dataclass(frozen=True)
class ClaimResult:
    """Outcome of one claim: status plus self-certifying evidence.

    status is witness-found/witness-missing for witness claims and
    verified/counterexample for every other claim.
    evidence uses compact magma encodings and 0-based tuples.
    """

    id: str
    kind: str
    status: str
    scope: str
    external_premise: bool
    statement: str
    evidence: dict | None

    @property
    def ok(self) -> bool:
        return self.status in ("verified", "witness-found")


class UnknownClaimError(ValueError):
    """Raised for a claim id outside the registry."""


class ClaimBudgetError(RuntimeError):
    """The budget ran out before or during the claim claim_id; results
    holds the ClaimResults of the claims finished before it."""

    def __init__(self, claim_id: str, detail: str, results: Sequence = ()):
        super().__init__(f"claim {claim_id}: {detail}")
        self.claim_id = claim_id
        self.results = list(results)


CLAIMS: tuple[Claim, ...] = (
    Claim(
        "C1", "implication",
        "every cyclic associative AG-groupoid satisfies the Bol* identity",
        (Implication("cyclic_associative", "bol_star"),),
    ),
    Claim(
        "C2", "witness-exists",
        "some Bol* AG-groupoid of order 3 is not cyclic associative",
        (WitnessSpec("table6", "bol_star & !cyclic_associative"),),
    ),
    Claim(
        "C3", "implication",
        "every Bol* AG-band is a commutative semigroup",
        (Implication("bol_star & band", "commutative & associative"),),
    ),
    Claim(
        "C4", "implication",
        "every cyclic associative AG-band is a commutative semigroup",
        (Implication("cyclic_associative & band", "commutative & associative"),),
    ),
    Claim(
        "C5", "implication",
        "every cyclic associative AG-groupoid is paramedial",
        (Implication("cyclic_associative", "paramedial"),),
    ),
    Claim(
        "C6", "witness-exists",
        "some paramedial AG-groupoid of order 3 is not cyclic associative",
        (WitnessSpec("table7", "paramedial & !cyclic_associative"),),
    ),
    Claim(
        "C7", "implication",
        "every paramedial AG-band is cyclic associative",
        (Implication("paramedial & band", "cyclic_associative"),),
    ),
    Claim(
        "C8", "implication",
        "every cyclic associative AG-groupoid is left and right nuclear square",
        (Implication("cyclic_associative", "left_nuclear_square & right_nuclear_square"),),
    ),
    Claim(
        "C9", "witness-exists",
        "the three nuclear-square classes and cyclic associativity separate "
        "in both directions",
        (
            WitnessSpec("table8", "left_nuclear_square & !cyclic_associative"),
            WitnessSpec("table9", "right_nuclear_square & !cyclic_associative"),
            WitnessSpec("table10", "middle_nuclear_square & !cyclic_associative"),
            WitnessSpec("table11", "cyclic_associative & !middle_nuclear_square"),
        ),
    ),
    Claim(
        "C10", "implication",
        "every left alternative cyclic associative AG-groupoid is middle "
        "nuclear square",
        (Implication("left_alternative & cyclic_associative", "middle_nuclear_square"),),
    ),
    Claim(
        "C11", "implication",
        "every left alternative cyclic associative AG-groupoid is nuclear square",
        (Implication("left_alternative & cyclic_associative", "nuclear_square"),),
    ),
    Claim(
        "C12", "implication",
        "every right alternative (hence every alternative) cyclic associative "
        "AG-groupoid is nuclear square",
        (Implication("right_alternative & cyclic_associative", "nuclear_square"),),
        external_premise=True,
    ),
    Claim(
        "C13", "witness-exists",
        "cyclic associativity neither contains nor is contained in the AG* "
        "and AG** classes",
        (
            WitnessSpec("table12", "cyclic_associative & !ag_star"),
            WitnessSpec("table13", "cyclic_associative & !ag_star_star"),
            WitnessSpec("table14", "ag_star_star & !cyclic_associative"),
        ),
    ),
    Claim(
        "C14", "implication",
        "every right commutative AG**-groupoid is cyclic associative",
        (Implication("ag_star_star & right_commutative", "cyclic_associative"),),
    ),
    Claim(
        "C15", "witness-exists",
        "right commutativity, the AG** identity and cyclic associativity "
        "separate pairwise",
        (
            WitnessSpec("table15", "right_commutative & ag & !cyclic_associative"),
            WitnessSpec("table16", "right_commutative & ag & !ag_star_star"),
            WitnessSpec("table13", "cyclic_associative & !right_commutative"),
            WitnessSpec("table17", "ag_star_star & !right_commutative"),
        ),
    ),
    Claim(
        "C16", "equivalence",
        "within cyclic associative AG-groupoids, right commutativity and the "
        "AG** identity coincide",
        (
            Implication(
                "right_commutative | ag_star_star",
                "right_commutative & ag_star_star",
                within="cyclic_associative",
            ),
        ),
    ),
    Claim(
        "C17", "implication",
        "every AG*-band is cyclic associative",
        (Implication("ag_star & band", "cyclic_associative"),),
    ),
    Claim(
        "C18", "implication",
        "every AG*-band is a semigroup",
        (Implication("ag_star & band", "associative"),),
    ),
    Claim(
        "C19", "implication",
        "every AG**-band, and every AG**-3-band, is cyclic associative",
        (
            Implication("ag_star_star & band", "cyclic_associative"),
            Implication("ag_star_star & three_band", "cyclic_associative"),
        ),
    ),
    Claim(
        "C20", "implication",
        "every AG-band with a left identity is cyclic associative",
        (Implication("band & has_left_identity & ag", "cyclic_associative"),),
    ),
    Claim(
        "C21", "implication",
        "every cyclic associative AG-3-band is a commutative semigroup",
        (Implication("cyclic_associative & three_band", "commutative & associative"),),
    ),
    Claim(
        "C22", "substructure",
        "in a cyclic associative AG-groupoid the idempotents are closed "
        "under the product and form a semilattice",
        (
            Implication(
                "cyclic_associative", "idempotents_form_semilattice",
                within="cyclic_associative",
            ),
        ),
    ),
    Claim(
        "C23", "substructure",
        "in a cyclic associative AG-groupoid each idempotent e is a "
        "two-sided identity on the sets eS and Se",
        (
            Implication(
                "cyclic_associative", "idempotent_identity_on_cosets",
                within="cyclic_associative",
            ),
        ),
    ),
    Claim(
        "C24", "witness-exists",
        "some left commutative AG-groupoid of order 3 is not cyclic associative",
        (WitnessSpec("table19", "left_commutative & ag & !cyclic_associative"),),
    ),
    Claim(
        "C25", "implication",
        "every left commutative AG*-groupoid is cyclic associative",
        (Implication("left_commutative & ag_star", "cyclic_associative"),),
    ),
    Claim(
        "C26", "witness-exists",
        "some left commutative cyclic associative AG-groupoid is not AG*",
        (WitnessSpec("table20", "left_commutative & cyclic_associative & !ag_star"),),
    ),
    Claim(
        "C27", "implication",
        "every cyclic associative AG*-groupoid is bicommutative and a semigroup",
        (
            Implication("cyclic_associative & ag_star", "left_commutative & right_commutative"),
            Implication("cyclic_associative & ag_star", "associative"),
        ),
    ),
    Claim(
        "C28", "witness-exists",
        "bicommutativity does not force cyclic associativity or AG*, and a "
        "cyclic associative AG*-groupoid need not be commutative",
        (
            WitnessSpec("table21", "bicommutative & ag & !cyclic_associative & !ag_star"),
            WitnessSpec("table22", "cyclic_associative & ag_star & !commutative"),
        ),
    ),
    Claim(
        "C29", "implication",
        "every commutative semigroup is cyclic associative",
        (Implication("commutative & associative", "cyclic_associative", universe="all"),),
    ),
    Claim(
        "C30", "implication",
        "every commutative AG-groupoid is associative",
        (Implication("commutative & ag", "associative"),),
    ),
    Claim(
        "C31", "implication",
        "every Bol* AG-band is cyclic associative",
        (Implication("bol_star & band", "cyclic_associative"),),
    ),
    Claim(
        "C32", "implication",
        "every commutative AG-groupoid is cyclic associative",
        (Implication("commutative & ag", "cyclic_associative"),),
    ),
    Claim(
        "C33", "implication",
        "a right commutative cyclic associative AG-groupoid with a "
        "cancellative element satisfies the T1 and T3 conditions",
        (
            Implication(
                "right_commutative & cyclic_associative & has_cancellative_element",
                "T1 & T3",
            ),
        ),
        external_premise=True,
    ),
    Claim(
        "C34", "implication",
        "every cyclic associative T1-AG-groupoid is right commutative",
        (Implication("cyclic_associative & T1", "right_commutative"),),
        external_premise=True,
    ),
    Claim(
        "C35", "implication",
        "every cyclic associative T1-AG-3-band is bicommutative and a semigroup",
        (
            Implication("cyclic_associative & T1 & three_band", "bicommutative & associative"),
        ),
        external_premise=True,
    ),
)

CLAIM_IDS: tuple[str, ...] = tuple(c.id for c in CLAIMS)

# Validate every registry expression once at import; typos fail loudly here.
for _claim in CLAIMS:
    for _part in _claim.parts:
        if isinstance(_part, Implication):
            for _text in filter(None, (_part.premise, _part.conclusion, _part.within)):
                parse_property_expr(_text)
        else:
            parse_property_expr(_part.expr)
            if _part.fixture not in _FIXTURE_DATA:
                raise AssertionError(f"claim {_claim.id}: unknown fixture {_part.fixture}")


_UNIVERSE_CACHE: dict[int, tuple[bytes, ...]] = {}

# Exhaustive all-magma scopes are capped here: the labeled-table space is
# n^(n^2) and already infeasible at order 4.
ALL_MAGMA_ORDER_CAP = 3


def _refuse_large_universe(n: int) -> None:
    """Raise ValueError from order LARGE_ORDER_THRESHOLD on: the 40,104,513
    AG classes of order 6 alone would take about 3.6 GB in the verify pool,
    at about 89 bytes each.  That is 78 bytes a class measured with
    tracemalloc for the order-5 universe (each bytes table and its slots in
    the cached tuple and the pool list), plus the 11 more cells of an
    order-6 table."""
    if n >= LARGE_ORDER_THRESHOLD:
        top = max(PUBLISHED_CENSUS)
        raise ValueError(
            f"the AG universe of order {n} has {'more than ' * (n > top)}"
            f"{PUBLISHED_CENSUS[min(n, top)]['AG']:,} classes, too many to hold "
            f"in memory; use a max order below {LARGE_ORDER_THRESHOLD}"
        )


def _ag_universe(n: int, deadline: float) -> tuple[bytes, ...]:
    """The AG classes of order n in enumeration order, kept for the
    process and enumerated by deadline, a time.monotonic() value or
    math.inf; large orders are refused by _refuse_large_universe."""
    _refuse_large_universe(n)
    got = _UNIVERSE_CACHE.get(n)
    if got is None:
        out: list[bytes] = []
        _run(n, _tables, out.extend, budget=deadline - time.monotonic())
        got = _UNIVERSE_CACHE[n] = tuple(out)
    return got


class _Pool(AtomColumns):
    """One verify_claims run: the tables it scans, with their atom columns,
    the bundled tables by name (fixmap), its max_order and its
    time.monotonic() deadline (math.inf for none).

    Each source (the AG classes of one order, the all-magma tables of one
    order, the bundled tables) is appended once, when a claim first asks
    for it, so an enumeration runs under the run's deadline.  The AG
    classes come from the process-wide _UNIVERSE_CACHE; the all-magma
    tables, every table of the order in lexicographic order, are built
    here by each run.  The pool holds each magma once, as the bytes of
    its table, and no Magma, pair or tuple of ints; the order is the
    square root of the length.
    """

    def __init__(
        self, fixmap: dict[str, Magma], max_order: int, deadline: float = math.inf,
    ) -> None:
        super().__init__()
        self.fixmap = fixmap
        self.max_order = max_order
        self.deadline = deadline
        self._sources: dict[tuple[str, int], range] = {}

    def source(self, kind: str, n: int = 0) -> range:
        """The indices of source kind ("ag", "all" or "fixtures") at order n."""
        got = self._sources.get((kind, n))
        if got is None:
            if kind == "fixtures":
                tables = (bytes(m.table) for m in self.fixmap.values())
            elif kind == "all":
                tables = map(bytes, product(range(n), repeat=n * n))
            else:
                tables = _ag_universe(n, self.deadline)
            got = self._sources[kind, n] = self.extend(tables)
        return got


def _implication_scope(part: Implication, pool: _Pool) -> tuple[list[int], str]:
    max_order = pool.max_order
    ranges = [pool.source("ag", k) for k in range(1, max_order + 1)]
    scope = f"AG classes of order <= {max_order} plus bundled tables"
    if part.universe == "all":
        cap = min(ALL_MAGMA_ORDER_CAP, max_order)
        ranges[:0] = [pool.source("all", k) for k in range(1, cap + 1)]
        scope = (
            f"all magmas of order <= {cap}, plus AG classes of order <= "
            f"{max_order} and bundled tables"
        )
    indices = [i for r in ranges + [pool.source("fixtures")] for i in r]
    if part.within is not None:
        indices = pool.select(parse_property_expr(part.within), indices)
        scope = f"{part.within} magmas among {scope}"
    return indices, scope


def _result(claim: Claim, status: str, scope: str, evidence: dict) -> ClaimResult:
    return ClaimResult(
        claim.id, claim.kind, status, scope, claim.external_premise, claim.statement, evidence,
    )


def _run_implication(claim: Claim, pool: _Pool) -> ClaimResult:
    checked = 0
    scope = ""
    for k, part in enumerate(claim.parts):
        indices, scope = _implication_scope(part, pool)
        hits = pool.select(parse_property_expr(part.premise), indices)
        holds = set(pool.select(parse_property_expr(part.conclusion), hits))
        bad = next((i for i in hits if i not in holds), None)
        if bad is not None:
            t = pool.tables[bad]
            return _result(
                claim, "counterexample", scope,
                {"part": k, "magma": render_magma(Magma(math.isqrt(len(t)), t), "compact")},
            )
        checked += len(indices)
    return _result(claim, "verified", scope, {"scope_size": checked})


def _witness_part_report(part: WitnessSpec, pool: _Pool) -> dict:
    i = pool.source("fixtures")[list(pool.fixmap).index(part.fixture)]
    m = pool.fixmap[part.fixture]
    expr = parse_property_expr(part.expr)
    satisfied = bool(pool.select(expr, [i]))
    atoms = {
        name: bool(pool.select(parse_property_expr(name), [i]))
        for name in sorted(expr.names)
    }
    falsifying = {}
    for name, value in atoms.items():
        # A failing existential atom has no witness; skip those.
        if not value and (w := check_property(m, name).witness):
            falsifying[name] = w
    report: dict = {
        "fixture": part.fixture,
        "expr": part.expr,
        "magma": render_magma(m, "compact"),
        "satisfied": satisfied,
        "atoms": atoms,
        "falsifying": falsifying,
        "universe_matches": None,
    }
    if m.order <= pool.max_order:
        universe = pool.source("ag", m.order)
        report["universe_matches"] = len(pool.select(expr, universe))
    return report


def _run_witness(claim: Claim, pool: _Pool) -> ClaimResult:
    parts = [_witness_part_report(p, pool) for p in claim.parts]
    ok = all(
        p["satisfied"] and (p["universe_matches"] is None or p["universe_matches"] >= 1)
        for p in parts
    )
    scope = (
        f"bundled tables, plus the enumerated universe at each fixture's "
        f"order when within max_order={pool.max_order}"
    )
    return _result(claim, "witness-found" if ok else "witness-missing", scope, {"parts": parts})


def verify_claims(
    max_order: int = 4,
    ids: Sequence[str] | None = None,
    *,
    budget: float | None = None,
) -> list[ClaimResult]:
    """Check claims over universes enumerated up to max_order.

    ids selects a subset (registry order is kept); budget is one deadline
    in seconds for the call on the monotonic clock, checked before each
    claim and bounding each universe enumeration; ClaimBudgetError names
    the claim it stopped and carries the results of the claims finished
    before it.  An AG universe too large to hold that a selected claim
    would scan raises ValueError before the first claim runs.
    """
    if ids is not None:
        unknown = [i for i in ids if i not in CLAIM_IDS]
        if unknown:
            raise UnknownClaimError(
                f"unknown claim ids: {', '.join(unknown)}; valid: {', '.join(CLAIM_IDS)}"
            )
        wanted = set(ids)
        selected = [c for c in CLAIMS if c.id in wanted]
    else:
        selected = list(CLAIMS)
    fixmap = fixtures()
    # A witness claim scans its fixtures' orders, any other claim every order
    # up to max_order: of those, min(max_order, LARGE_ORDER_THRESHOLD) is the
    # least that could be refused, so no range of orders is listed.
    needed = {fixmap[p.fixture].order
              for c in selected if c.kind == "witness-exists" for p in c.parts}
    if any(c.kind != "witness-exists" for c in selected):
        needed.add(min(max_order, LARGE_ORDER_THRESHOLD))
    for k in sorted(k for k in needed if k <= max_order):
        _refuse_large_universe(k)
    deadline = math.inf if budget is None else time.monotonic() + budget
    pool = _Pool(fixmap, max_order, deadline)
    results = []
    for k, claim in enumerate(selected):
        if time.monotonic() >= deadline:
            raise ClaimBudgetError(
                claim.id, f"budget exceeded after {k} of {len(selected)} claims", results
            )
        run = _run_witness if claim.kind == "witness-exists" else _run_implication
        try:
            results.append(run(claim, pool))
        except BudgetExceeded as exc:
            raise ClaimBudgetError(claim.id, str(exc), results) from None
    return results
