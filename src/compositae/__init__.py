"""Exact calculus of composition triangles for ordinary generating functions.

The triangle of a series F (with F(0) = 0) collects the numbers
F(n, k) = [x^n] F(x)^k; everything else in the package — composition,
reciprocation, compositional inversion, Lagrange-style functional
equations, Riordan arrays, and a verified identity suite — is expressed
through transforms of these triangles, all over exact rationals.
"""

from .calculus import (
    compose_series,
    composita_compose,
    inverse_series,
    reciprocal_composita,
)
from .catalog import (
    FunctionSpec,
    catalog_closed_form,
    catalog_series,
    default_instances,
    make_spec,
    parse_function_spec,
    raw_spec,
    registry_names,
)
from .errors import (
    CompositaeError,
    DivisionByNonUnit,
    InsufficientOrder,
    NoClosedForm,
    NonInvertible,
    NonzeroConstantTerm,
    OrderMismatch,
    UnknownFunction,
    ZeroConstantTerm,
)
from .funceq import (
    FuncEqSolution,
    arcsin_composita,
    radical_composita,
    right_composita,
    solve_functional_equation,
)
from .identities import (
    IdentityReport,
    check_associativity,
    check_closed_form,
    check_derivative_identity,
    check_funceq_identity,
    check_inverse_identity,
    check_lambert_identity,
    check_product_identity,
    check_reciprocal_identity,
    check_riordan_identity,
    check_sum_identity,
)
from .riordan import riordan_apply, riordan_build
from .series import (
    PowerSeries,
    as_rational,
    format_series,
    parse_series,
)
from .triangle import (
    CompositaTable,
    composita_from_powers,
    composita_from_series,
    composita_oracle,
    series_from_composita,
)

__all__ = [
    "CompositaTable",
    "CompositaeError",
    "DivisionByNonUnit",
    "FuncEqSolution",
    "FunctionSpec",
    "IdentityReport",
    "InsufficientOrder",
    "NoClosedForm",
    "NonInvertible",
    "NonzeroConstantTerm",
    "OrderMismatch",
    "PowerSeries",
    "UnknownFunction",
    "ZeroConstantTerm",
    "arcsin_composita",
    "as_rational",
    "catalog_closed_form",
    "catalog_series",
    "check_associativity",
    "check_closed_form",
    "check_derivative_identity",
    "check_funceq_identity",
    "check_inverse_identity",
    "check_lambert_identity",
    "check_product_identity",
    "check_reciprocal_identity",
    "check_riordan_identity",
    "check_sum_identity",
    "compose_series",
    "composita_compose",
    "composita_from_powers",
    "composita_from_series",
    "composita_oracle",
    "default_instances",
    "format_series",
    "inverse_series",
    "make_spec",
    "parse_function_spec",
    "parse_series",
    "radical_composita",
    "raw_spec",
    "reciprocal_composita",
    "registry_names",
    "right_composita",
    "riordan_apply",
    "riordan_build",
    "series_from_composita",
    "solve_functional_equation",
]
