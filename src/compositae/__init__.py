"""Exact calculus of composition triangles for ordinary generating functions.

The triangle of a series F (with F(0) = 0) collects the numbers
F(n, k) = [x^n] F(x)^k; everything else in the package — composition,
reciprocation, compositional inversion, Lagrange-style functional
equations, Riordan arrays, and a verified identity suite — is expressed
through transforms of these triangles, all over exact rationals.

The public names load lazily (PEP 562): ``import compositae`` imports no
submodule, and a name's module is imported on its first use.  A CLI call
imports only what its subcommand needs, and never ``theorems``.
"""

from importlib import import_module

_EXPORTS = {
    "calculus": (
        "compose_series",
        "composita_compose",
        "inverse_series",
        "reciprocal_composita",
    ),
    "catalog": (
        "FunctionSpec",
        "catalog_series",
        "make_spec",
        "parse_function_spec",
        "registry_names",
    ),
    "errors": (
        "CompositaeError",
        "DivisionByNonUnit",
        "InsufficientOrder",
        "NoClosedForm",
        "NonInvertible",
        "NonzeroConstantTerm",
        "OrderMismatch",
        "UnknownFunction",
        "ZeroConstantTerm",
    ),
    "funceq": (
        "FuncEqSolution",
        "solve_functional_equation",
    ),
    "identities": (
        "IdentityReport",
        "check_associativity",
        "check_derivative_identity",
        "check_funceq_identity",
        "check_inverse_identity",
        "check_lambert_identity",
        "check_reciprocal_identity",
    ),
    "oracle": ("composita_oracle",),
    "riordan": ("riordan_apply", "riordan_build"),
    "series": ("PowerSeries", "as_rational"),
    "theorems": (
        "catalog_closed_form",
        "check_closed_form",
        "check_product_identity",
        "check_riordan_formula",
        "check_riordan_identity",
        "check_sum_identity",
        "default_instances",
    ),
    "triangle": (
        "CompositaTable",
        "composita_from_powers",
        "composita_from_series",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
