"""Finite-scale verification of the subclass theorems and counterexamples.

Each claim is either an implication/equivalence checked exhaustively over
enumerated AG-groupoid classes (plus the bundled tables), a witness claim
reproducing a known separating example, or a substructure check on the
idempotents of cyclic associative magmas.  Claims whose proofs lean on
results about T- or star-class structure imported from outside this
toolkit's scope are tagged external_premise; they are still checked as
stated implications, so a finite counterexample would surface here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

from .core import Magma, parse_magma, render_magma
from .enumeration import BudgetExceeded, enumerate_ag
from .props import (
    PropertyExpr,
    atom_value,
    check_property,
    idempotents,
    magma_satisfies,
    parse_property_expr,
)

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


@dataclass(frozen=True)
class Equivalence:
    scope: str
    left: str
    right: str


@dataclass(frozen=True)
class WitnessSpec:
    fixture: str
    expr: str


@dataclass(frozen=True)
class Substructure:
    check: str


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

    status is verified/counterexample for implication, equivalence and
    substructure claims, witness-found/witness-missing for witness claims.
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
    """A claim's universe could not be enumerated within the budget."""

    def __init__(self, claim_id: str, cause: BudgetExceeded):
        super().__init__(f"claim {claim_id}: {cause}")
        self.claim_id = claim_id
        self.cause = cause


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
        (Implication("right_commutative & ag_star_star", "cyclic_associative"),),
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
        (Equivalence("cyclic_associative", "right_commutative", "ag_star_star"),),
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
        (Substructure("idempotents_form_semilattice"),),
    ),
    Claim(
        "C23", "substructure",
        "in a cyclic associative AG-groupoid each idempotent e is a "
        "two-sided identity on the sets eS and Se",
        (Substructure("idempotent_identity_on_cosets"),),
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
_REGISTRY: dict[str, Claim] = {c.id: c for c in CLAIMS}

# Validate every registry expression once at import; typos fail loudly here.
for _claim in CLAIMS:
    for _part in _claim.parts:
        if isinstance(_part, Implication):
            parse_property_expr(_part.premise)
            parse_property_expr(_part.conclusion)
        elif isinstance(_part, Equivalence):
            parse_property_expr(_part.scope)
            parse_property_expr(_part.left)
            parse_property_expr(_part.right)
        elif isinstance(_part, WitnessSpec):
            parse_property_expr(_part.expr)
            if _part.fixture not in _FIXTURE_DATA:
                raise AssertionError(f"claim {_claim.id}: unknown fixture {_part.fixture}")


_UNIVERSE_CACHE: dict[int, tuple[Magma, ...]] = {}
_ALL_MAGMAS_CACHE: dict[int, tuple[Magma, ...]] = {}

# Exhaustive all-magma scopes are capped here: the labeled-table space is
# n^(n^2) and already infeasible at order 4.
ALL_MAGMA_ORDER_CAP = 3


def _ag_universe(n: int, budget: float | None, claim_id: str) -> tuple[Magma, ...]:
    got = _UNIVERSE_CACHE.get(n)
    if got is None:
        out: list[Magma] = []
        try:
            enumerate_ag(n, out.append, budget=budget)
        except BudgetExceeded as exc:
            raise ClaimBudgetError(claim_id, exc) from None
        got = _UNIVERSE_CACHE[n] = tuple(out)
    return got


def _all_magmas(n: int) -> tuple[Magma, ...]:
    got = _ALL_MAGMAS_CACHE.get(n)
    if got is None:
        got = _ALL_MAGMAS_CACHE[n] = tuple(
            Magma(n, t) for t in product(range(n), repeat=n * n)
        )
    return got


class _Atoms(dict):
    """Atom values of one magma, each computed on its first lookup."""

    __slots__ = ("magma",)

    def __init__(self, m: Magma) -> None:
        super().__init__()
        self.magma = m

    def __missing__(self, name: str) -> bool:
        value = self[name] = atom_value(self.magma, name)
        return value


class _Facts:
    """Memoized property-atom evaluation across claims.

    Keyed by id(m), so no Magma is hashed: the pools hand the same magma
    objects to every claim.  Each entry holds its magma, which keeps the id
    from being reused while it is a key.
    """

    def __init__(self) -> None:
        self._by_id: dict[int, _Atoms] = {}

    def lookup(self, m: Magma) -> Callable[[str], bool]:
        atoms = self._by_id.get(id(m))
        if atoms is None:
            atoms = self._by_id[id(m)] = _Atoms(m)
        return atoms.__getitem__

    def satisfies(self, m: Magma, expr: PropertyExpr) -> bool:
        return expr.evaluate(self.lookup(m))


def _implication_pool(
    universe: str, max_order: int, budget: float | None,
    claim_id: str, fixture_pool: Sequence[Magma],
) -> tuple[list[Magma], str]:
    pool: list[Magma] = []
    for k in range(1, max_order + 1):
        pool.extend(_ag_universe(k, budget, claim_id))
    scope = f"AG classes of order <= {max_order} plus bundled tables"
    if universe == "all":
        cap = min(ALL_MAGMA_ORDER_CAP, max_order)
        extra: list[Magma] = []
        for k in range(1, cap + 1):
            extra.extend(_all_magmas(k))
        pool = extra + pool
        scope = (
            f"all magmas of order <= {cap}, plus AG classes of order <= "
            f"{max_order} and bundled tables"
        )
    pool.extend(fixture_pool)
    return pool, scope


def _run_implication(
    claim: Claim, max_order: int, budget: float | None,
    fixture_pool: Sequence[Magma], facts: _Facts,
) -> ClaimResult:
    checked = 0
    scope = ""
    for k, part in enumerate(claim.parts):
        pre = parse_property_expr(part.premise)
        con = parse_property_expr(part.conclusion)
        pool, scope = _implication_pool(
            part.universe, max_order, budget, claim.id, fixture_pool
        )
        for m in pool:
            look = facts.lookup(m)
            if pre.evaluate(look) and not con.evaluate(look):
                return ClaimResult(
                    claim.id, claim.kind, "counterexample", scope,
                    claim.external_premise, claim.statement,
                    {"part": k, "magma": render_magma(m, "compact")},
                )
        checked += len(pool)
    return ClaimResult(
        claim.id, claim.kind, "verified", scope, claim.external_premise,
        claim.statement, {"scope_size": checked},
    )


def _run_equivalence(
    claim: Claim, max_order: int, budget: float | None,
    fixture_pool: Sequence[Magma], facts: _Facts,
) -> ClaimResult:
    part = claim.parts[0]
    scope_expr = parse_property_expr(part.scope)
    left = parse_property_expr(part.left)
    right = parse_property_expr(part.right)
    pool, scope = _implication_pool("ag", max_order, budget, claim.id, fixture_pool)
    scope = f"{part.scope} magmas among " + scope
    checked = 0
    for m in pool:
        look = facts.lookup(m)
        if not scope_expr.evaluate(look):
            continue
        checked += 1
        if left.evaluate(look) != right.evaluate(look):
            return ClaimResult(
                claim.id, claim.kind, "counterexample", scope,
                claim.external_premise, claim.statement,
                {"magma": render_magma(m, "compact")},
            )
    return ClaimResult(
        claim.id, claim.kind, "verified", scope, claim.external_premise,
        claim.statement, {"scope_size": checked},
    )


def _witness_part_report(
    part: WitnessSpec, fixmap: dict[str, Magma], max_order: int,
    budget: float | None, claim_id: str, facts: _Facts,
) -> dict:
    m = fixmap[part.fixture]
    expr = parse_property_expr(part.expr)
    satisfied = facts.satisfies(m, expr)
    look = facts.lookup(m)
    atoms = {name: look(name) for name in sorted(expr.names)}
    falsifying = {}
    for name, value in atoms.items():
        if not value and name != "has_cancellative_element":
            w = check_property(m, name).witness
            if w is not None:
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
    if m.order <= max_order:
        pool = _ag_universe(m.order, budget, claim_id)
        report["universe_matches"] = sum(
            1 for u in pool if facts.satisfies(u, expr)
        )
    return report


def _run_witness(
    claim: Claim, max_order: int, budget: float | None,
    fixmap: dict[str, Magma], facts: _Facts,
) -> ClaimResult:
    parts = [
        _witness_part_report(p, fixmap, max_order, budget, claim.id, facts)
        for p in claim.parts
    ]
    ok = all(
        p["satisfied"] and (p["universe_matches"] is None or p["universe_matches"] >= 1)
        for p in parts
    )
    scope = (
        f"bundled tables, plus the enumerated universe at each fixture's "
        f"order when within max_order={max_order}"
    )
    return ClaimResult(
        claim.id, claim.kind, "witness-found" if ok else "witness-missing",
        scope, claim.external_premise, claim.statement, {"parts": parts},
    )


def _ca_pool(
    max_order: int, budget: float | None, claim_id: str,
    fixture_pool: Sequence[Magma], facts: _Facts,
) -> list[Magma]:
    pool: list[Magma] = []
    for k in range(1, max_order + 1):
        pool.extend(_ag_universe(k, budget, claim_id))
    pool.extend(fixture_pool)
    return [m for m in pool if facts.lookup(m)("cyclic_associative")]


def _check_idempotents_form_semilattice(m: Magma) -> str | None:
    n, t = m.order, m.table
    es = sorted(idempotents(m))
    eset = set(es)
    for a in es:
        for b in es:
            ab = t[a * n + b]
            if ab not in eset:
                return f"product {a}*{b}={ab} leaves the idempotent set"
            if ab != t[b * n + a]:
                return f"idempotents {a},{b} do not commute"
    for a in es:
        for b in es:
            for c in es:
                if t[t[a * n + b] * n + c] != t[a * n + t[b * n + c]]:
                    return f"idempotents {a},{b},{c} do not associate"
    return None


def _check_idempotent_identity_on_cosets(m: Magma) -> str | None:
    n, t = m.order, m.table
    for e in sorted(idempotents(m)):
        members = {t[e * n + a] for a in range(n)} | {t[a * n + e] for a in range(n)}
        for s in sorted(members):
            if t[e * n + s] != s or t[s * n + e] != s:
                return f"idempotent {e} is not an identity for {s}"
    return None


_SUBSTRUCTURE_CHECKS = {
    "idempotents_form_semilattice": _check_idempotents_form_semilattice,
    "idempotent_identity_on_cosets": _check_idempotent_identity_on_cosets,
}


def _run_substructure(
    claim: Claim, max_order: int, budget: float | None,
    fixture_pool: Sequence[Magma], facts: _Facts,
) -> ClaimResult:
    check = _SUBSTRUCTURE_CHECKS[claim.parts[0].check]
    pool = _ca_pool(max_order, budget, claim.id, fixture_pool, facts)
    scope = f"cyclic associative magmas among AG classes of order <= {max_order} and bundled tables"
    for m in pool:
        detail = check(m)
        if detail is not None:
            return ClaimResult(
                claim.id, claim.kind, "counterexample", scope,
                claim.external_premise, claim.statement,
                {"magma": render_magma(m, "compact"), "detail": detail},
            )
    return ClaimResult(
        claim.id, claim.kind, "verified", scope, claim.external_premise,
        claim.statement, {"scope_size": len(pool)},
    )


def verify_claims(
    max_order: int = 4,
    ids: Sequence[str] | None = None,
    *,
    budget: float | None = None,
) -> list[ClaimResult]:
    """Check claims over universes enumerated up to max_order.

    ids selects a subset (registry order is kept); budget bounds each
    universe enumeration in wall-clock seconds and surfaces as
    ClaimBudgetError naming the claim that needed the universe.
    """
    if ids is not None:
        unknown = [i for i in ids if i not in _REGISTRY]
        if unknown:
            raise UnknownClaimError(
                f"unknown claim ids: {', '.join(unknown)}; valid: {', '.join(CLAIM_IDS)}"
            )
        wanted = set(ids)
        selected = [c for c in CLAIMS if c.id in wanted]
    else:
        selected = list(CLAIMS)
    fixmap = fixtures()
    fixture_pool = list(fixmap.values())
    facts = _Facts()
    results = []
    for claim in selected:
        if claim.kind == "implication":
            results.append(
                _run_implication(claim, max_order, budget, fixture_pool, facts)
            )
        elif claim.kind == "equivalence":
            results.append(
                _run_equivalence(claim, max_order, budget, fixture_pool, facts)
            )
        elif claim.kind == "witness-exists":
            results.append(_run_witness(claim, max_order, budget, fixmap, facts))
        else:
            results.append(
                _run_substructure(claim, max_order, budget, fixture_pool, facts)
            )
    return results
