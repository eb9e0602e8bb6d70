"""Toolkit for finite AG-groupoids given as Cayley tables.

Classifies subclass properties (cyclic associativity, medial and
paramedial laws, nuclear squares, star identities, band conditions and
more), runs the extended-table cyclic associativity test, enumerates
AG-groupoids up to isomorphism by order, reproduces the published census,
and machine-checks a registry of subclass theorems and counterexamples at
finite scale.
"""

from .catest import CaTestReport, ca_test, render_extended_table, star_index_row
from .core import (
    Magma,
    ParseError,
    mul,
    parse_magma,
    read_magmas,
    render_magma,
)
from .enumeration import (
    LARGE_ORDER_THRESHOLD,
    PUBLISHED_INCONSISTENT_CELLS,
    PUBLISHED_CENSUS,
    ROW_ORDER,
    BudgetExceeded,
    classify_census,
    enumerate_ag,
)
from .iso import (
    are_isomorphic,
    canonical_form,
    relabel,
)
from .props import (
    CATALOG,
    CheckResult,
    PropertyExpr,
    UnknownPropertyError,
    check_property,
    classify,
    magma_satisfies,
    parse_property_expr,
)
from .theorems import (
    CLAIM_IDS,
    CLAIMS,
    FIXTURE_ASSERTIONS,
    Claim,
    ClaimBudgetError,
    ClaimResult,
    UnknownClaimError,
    fixtures,
    verify_claims,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Magma",
    "ParseError",
    "mul",
    "parse_magma",
    "read_magmas",
    "render_magma",
    "CATALOG",
    "CheckResult",
    "PropertyExpr",
    "UnknownPropertyError",
    "check_property",
    "classify",
    "magma_satisfies",
    "parse_property_expr",
    "are_isomorphic",
    "canonical_form",
    "relabel",
    "CaTestReport",
    "ca_test",
    "render_extended_table",
    "star_index_row",
    "LARGE_ORDER_THRESHOLD",
    "PUBLISHED_INCONSISTENT_CELLS",
    "PUBLISHED_CENSUS",
    "ROW_ORDER",
    "BudgetExceeded",
    "classify_census",
    "enumerate_ag",
    "CLAIM_IDS",
    "CLAIMS",
    "FIXTURE_ASSERTIONS",
    "Claim",
    "ClaimBudgetError",
    "ClaimResult",
    "UnknownClaimError",
    "fixtures",
    "verify_claims",
]
