"""The ``verify`` subcommand: one identity sweep per call.

Only ``cli._cmd_verify`` imports this module, so no other subcommand
compiles the sweep table.  The ``--identity`` choices of the CLI's flag
table, ``cli.IDENTITY_NAMES``, are the keys of ``SWEEPS``.
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace
from typing import Optional

from . import calculus, identities
from .cli import UsageError, _require_order, _series
from .triangle import MAX_TABLE_ENTRIES, CompositaTable, composita_from_series


def _perturbed(
    table: CompositaTable, perturb: Optional[tuple[int, int, Fraction]]
) -> CompositaTable:
    """``table`` with DELTA added to entry (N, K) for --perturb N,K,DELTA."""
    if perturb is None:
        return table
    n, k, delta = perturb
    return table.with_entry(n, k, table[n, k] + delta)


def _verify_associativity(args: SimpleNamespace, order: int) -> identities.IdentityReport:
    names = args.fn or ("poly2:1,1", "geometric", "x_exp")
    if len(names) != 3:
        raise UsageError("associativity needs exactly three --fn designators")
    tables = [
        composita_from_series(_series(name, order), order) for name in names
    ]
    return identities.check_associativity(*tables, fault=args.perturb)


def _one_function(args: SimpleNamespace, default: str) -> str:
    """The one --fn designator of a derivative or inverse sweep."""
    names = args.fn or [default]
    if len(names) != 1:
        raise UsageError(f"{args.identity} takes one --fn designator, got {len(names)}")
    return names[0]


def _verify_derivative(args: SimpleNamespace, order: int) -> identities.IdentityReport:
    f = _series(_one_function(args, "geometric"), order)
    table = _perturbed(composita_from_series(f, order), args.perturb)
    return identities.check_derivative_identity(f, table)


def _verify_inverse(args: SimpleNamespace, order: int) -> identities.IdentityReport:
    table = composita_from_series(_series(_one_function(args, "x_exp"), order), order)
    inv = calculus.inverse_series(table)
    inv_table = _perturbed(composita_from_series(inv, order), args.perturb)
    return identities.check_inverse_identity(table, inv_table)


def _verify_lambert(args: SimpleNamespace, order: int) -> identities.IdentityReport:
    return identities.check_lambert_identity(order, fault=args.perturb)


def _verify_funceq(args: SimpleNamespace, order: int) -> identities.IdentityReport:
    g = _series(args.g or "1,1", order - 1)
    table = _perturbed(composita_from_series(g.times_x(), order), args.perturb)
    return identities.check_funceq_identity(table, args.m, args.max_n, args.max_r)


def _verify_reciprocal(args: SimpleNamespace, order: int) -> identities.IdentityReport:
    b = _series(args.b or "sin_over_x", order - 1)
    table = _perturbed(calculus.reciprocal_composita(b, order), args.perturb)
    return identities.check_reciprocal_identity(b, table)


# identity -> (--max-n when not given, the input flags it reads, sweep).  A
# call that gives one of INPUT_FLAGS its sweep does not read is refused.  A
# sweep builds its tables to the order it is given: --max-n, except that
# funceq reads the triangle of x*G to (m + 1) * max_n + max_r, and refuses a
# triangle of more than triangle.MAX_TABLE_ENTRIES entries before it builds
# one.  --perturb indexes into that table: every sweep that reads a table
# gets it with the fault planted (``_perturbed``), and only associativity
# (its intermediate product) and Lambert (no table) take it as ``fault``.
INPUT_FLAGS = ("--fn", "--g", "--m", "--max-r", "--b")
SWEEPS = {
    "associativity": (8, ("--fn",), _verify_associativity),
    "derivative": (10, ("--fn",), _verify_derivative),
    "inverse": (10, ("--fn",), _verify_inverse),
    "lambert": (10, (), _verify_lambert),
    "funceq": (6, ("--g", "--m", "--max-r"), _verify_funceq),
    "reciprocal": (10, ("--b",), _verify_reciprocal),
}


def record_line(record: dict) -> str:
    """``json.dumps(record)`` without importing ``json``, for a record whose
    values are ints, lists of ints, records, and strs that need no escape
    (ASCII without '"', '\\' or control characters: a rendered rational or
    a fixed label), which is what ``IdentityReport.to_record`` holds."""
    fields = []
    for key, value in record.items():
        if isinstance(value, str):
            value = f'"{value}"'
        elif isinstance(value, dict):
            value = record_line(value)
        elif isinstance(value, list):
            value = f"[{', '.join(map(str, value))}]"
        fields.append(f'"{key}": {value}')
    return "{" + ", ".join(fields) + "}"


def verify(args: SimpleNamespace) -> tuple[str, int]:
    """The text and exit code of ``compositae verify``: 0 when the identity
    holds over the sweep, 3 with the first counterexample when it does not."""
    identity = args.identity
    default_max_n, reads, sweep = SWEEPS[identity]
    for flag in INPUT_FLAGS:
        if flag not in reads and getattr(args, flag[2:].replace("-", "_")) is not None:
            raise UsageError(f"the {identity} sweep does not read {flag}")
    if args.max_n is None:
        args.max_n = default_max_n
    order = _require_order(args.max_n, "--max-n")
    if identity == "funceq":
        if args.m is None:
            args.m = 1
        if args.max_r is None:
            args.max_r = args.max_n
        _require_order(args.max_r, "--max-r")
        if args.m < 1:  # before any series is built: the order needed depends on m
            raise ValueError("the identity is stated for m >= 1")
        order = (args.m + 1) * args.max_n + args.max_r
        if order * (order + 1) // 2 > MAX_TABLE_ENTRIES:
            raise ValueError(
                f"the sweep reads the triangle of x*G to order {order}, which has"
                f" {order * (order + 1) // 2} entries; its cap is {MAX_TABLE_ENTRIES}"
            )
    if args.perturb is not None:
        n, k, _ = args.perturb
        if not 1 <= k <= n <= order:
            raise UsageError(
                f"--perturb N,K,DELTA needs 1 <= K <= N <= {order} for this {identity} sweep"
            )
    report = sweep(args, order)

    if args.format == "records":
        text = record_line(report.to_record())
    elif report.verified:
        text = "verified"
    else:
        params, lhs, rhs = report.first_failure
        where = ",".join(str(p) for p in params)
        text = f"counterexample at ({where}): lhs={lhs} rhs={rhs}"
    return text, 0 if report.verified else 3
