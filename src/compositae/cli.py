"""Command-line interface.

Eight subcommands cover the whole surface: triangle construction
(``composita``, ``oracle``), series transforms (``compose``, ``inverse``,
``reciprocal``), functional equations (``solve``), Riordan arrays
(``riordan``), and identity sweeps (``verify``).  Functions are named by
catalog designators ("geometric", "poly2:1,1") or raw coefficient lists
("0,1,1"); output is byte-deterministic.

Exit codes: 0 success, 1 usage (including unknown designators),
2 precondition violation, 3 identity counterexample.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .calculus import compose_series, inverse_series, reciprocal_composita
from .catalog import catalog_series, parse_function_spec, registry_names
from .errors import CompositaeError, UnknownFunction
from .formats import (
    series_csv,
    series_records,
    series_text,
    triangle_csv,
    triangle_records,
    triangle_text,
)
from .funceq import solve_functional_equation
from .identities import (
    IdentityReport,
    check_associativity,
    check_derivative_identity,
    check_funceq_identity,
    check_inverse_identity,
    check_lambert_identity,
    check_reciprocal_identity,
)
from .riordan import riordan_apply, riordan_build
from .series import PowerSeries, parse_rational
from .triangle import composita_from_series, composita_oracle

IDENTITY_NAMES = ("associativity", "derivative", "inverse", "lambert", "funceq", "reciprocal")


class UsageError(Exception):
    """Bad flag values that argparse's type machinery cannot catch."""

# sweep sizes used when --max-n is not given
_DEFAULT_MAX_N = {
    "associativity": 8,
    "derivative": 10,
    "inverse": 10,
    "lambert": 10,
    "funceq": 6,
    "reciprocal": 10,
}


@dataclass(frozen=True)
class CliConfig:
    """Everything one invocation needs, decoded from argv."""

    subcommand: str
    fn: tuple[str, ...] = ()
    r: Optional[str] = None
    g: Optional[str] = None
    b: Optional[str] = None
    n: int = 0
    k: int = 0
    order: int = 0
    m: int = 1
    identity: Optional[str] = None
    max_n: Optional[int] = None
    max_r: Optional[int] = None
    table: bool = False
    perturb: Optional[tuple[int, int, Fraction]] = None
    format: str = "triangle"
    output: Optional[str] = None


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_perturb(text: str) -> tuple[int, int, Fraction]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected N,K,DELTA")
    try:
        return int(parts[0]), int(parts[1]), parse_rational(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad perturbation {text!r}") from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="compositae", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("triangle", "csv", "records"),
            default="triangle",
            help="output shape (default: triangle / plain text)",
        )
        p.add_argument("--output", help="write to this path instead of stdout")

    p = sub.add_parser("composita", help="triangle of a function with f(0)=0")
    p.add_argument("--fn", required=True, help="catalog name or coefficient list")
    p.add_argument("--n", type=int, required=True, help="table order (rows 1..N)")
    add_common(p)

    p = sub.add_parser("compose", help="coefficients of R(F(x))")
    p.add_argument("--r", required=True, help="outer function R")
    p.add_argument("--fn", required=True, help="inner function F, f(0)=0")
    p.add_argument("--n", type=int, required=True, help="truncation order")
    add_common(p)

    p = sub.add_parser("inverse", help="compositional inverse of F, printed from a(1)")
    p.add_argument("--fn", required=True)
    p.add_argument("--order", type=int, required=True)
    add_common(p)

    p = sub.add_parser("reciprocal", help="triangle of x*A(x) where A(x)B(x)=1")
    p.add_argument("--b", required=True, help="function B with b(0) != 0")
    p.add_argument("--order", type=int, required=True)
    add_common(p)

    p = sub.add_parser("solve", help="solve A(x) = G(x A(x)^m)")
    p.add_argument("--g", required=True, help="function G with g(0) != 0")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument(
        "--table",
        action="store_true",
        help="print the triangle of x*A(x) instead of the series",
    )
    add_common(p)

    p = sub.add_parser("riordan", help="Riordan array (G, F); --b applies it")
    p.add_argument("--g", required=True, help="multiplier G")
    p.add_argument("--fn", required=True, help="inner function F, f(0)=0")
    p.add_argument("--n", type=int, required=True, help="array order (rows 0..N)")
    p.add_argument("--b", help="sequence to apply the array to")
    add_common(p)

    p = sub.add_parser("verify", help="run one identity sweep")
    p.add_argument("--identity", required=True, choices=IDENTITY_NAMES)
    p.add_argument("--max-n", type=int, dest="max_n")
    p.add_argument("--max-r", type=int, dest="max_r", help="funceq only")
    p.add_argument("--m", type=int, default=1, help="funceq only")
    p.add_argument("--g", help="funceq: function G (default 1,1)")
    p.add_argument("--b", help="reciprocal: function B (default sin_over_x)")
    p.add_argument(
        "--fn",
        action="append",
        help="input function(s); associativity takes three",
    )
    p.add_argument(
        "--perturb",
        type=_parse_perturb,
        help="N,K,DELTA fault injection to demonstrate counterexample detection",
    )
    add_common(p)

    p = sub.add_parser("oracle", help="one entry by brute-force composition sums")
    p.add_argument("--fn", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_common(p)

    return parser


def _config_from_args(args: argparse.Namespace) -> CliConfig:
    fn = getattr(args, "fn", None)
    if fn is None:
        fn_tuple: tuple[str, ...] = ()
    elif isinstance(fn, str):
        fn_tuple = (fn,)
    else:
        fn_tuple = tuple(fn)
    return CliConfig(
        subcommand=args.subcommand,
        fn=fn_tuple,
        r=getattr(args, "r", None),
        g=getattr(args, "g", None),
        b=getattr(args, "b", None),
        n=getattr(args, "n", 0) or 0,
        k=getattr(args, "k", 0) or 0,
        order=getattr(args, "order", 0) or 0,
        m=getattr(args, "m", 1),
        identity=getattr(args, "identity", None),
        max_n=getattr(args, "max_n", None),
        max_r=getattr(args, "max_r", None),
        table=getattr(args, "table", False),
        perturb=getattr(args, "perturb", None),
        format=args.format,
        output=args.output,
    )


def _series(designator: str, order: int) -> PowerSeries:
    return catalog_series(parse_function_spec(designator), order)


def _render_triangle(table, fmt: str) -> str:
    if fmt == "csv":
        return triangle_csv(table)
    if fmt == "records":
        return triangle_records(table)
    return triangle_text(table)


def _render_series(values, fmt: str, start: int = 0) -> str:
    if fmt == "csv":
        return series_csv(values, start=start)
    if fmt == "records":
        return series_records(values, start=start)
    return series_text(values)


def _require_order(value: int, flag: str) -> int:
    if value < 1:
        raise UsageError(f"{flag} must be >= 1")
    return value


def _cmd_composita(cfg: CliConfig) -> tuple[str, int]:
    n = _require_order(cfg.n, "--n")
    f = _series(cfg.fn[0], n)
    table = composita_from_series(f, n, source=cfg.fn[0])
    return _render_triangle(table, cfg.format), 0


def _cmd_compose(cfg: CliConfig) -> tuple[str, int]:
    n = _require_order(cfg.n, "--n")
    r = _series(cfg.r, n)
    f = _series(cfg.fn[0], n)
    table = composita_from_series(f, n)
    return _render_series(compose_series(r, table).coeffs, cfg.format), 0


def _cmd_inverse(cfg: CliConfig) -> tuple[str, int]:
    order = _require_order(cfg.order, "--order")
    f = _series(cfg.fn[0], order)
    table = composita_from_series(f, order)
    inv = inverse_series(f, table)
    return _render_series(inv.coeffs[1:], cfg.format, start=1), 0


def _cmd_reciprocal(cfg: CliConfig) -> tuple[str, int]:
    order = _require_order(cfg.order, "--order")
    b = _series(cfg.b, order - 1)
    table = reciprocal_composita(b, order, source=cfg.b)
    return _render_triangle(table, cfg.format), 0


def _cmd_solve(cfg: CliConfig) -> tuple[str, int]:
    order = _require_order(cfg.order, "--order")
    g = _series(cfg.g, order)
    solution = solve_functional_equation(g, cfg.m, order)
    if cfg.table:
        return _render_triangle(solution.a_table, cfg.format), 0
    return _render_series(solution.a_series.coeffs, cfg.format), 0


def _cmd_riordan(cfg: CliConfig) -> tuple[str, int]:
    n = _require_order(cfg.n, "--n")
    g = _series(cfg.g, n)
    f = _series(cfg.fn[0], n)
    table = riordan_build(g, composita_from_series(f, n))
    if cfg.b is not None:
        b = _series(cfg.b, n)
        return _render_series(riordan_apply(table, b.coeffs), cfg.format), 0
    return _render_triangle(table, cfg.format), 0


def _cmd_oracle(cfg: CliConfig) -> tuple[str, int]:
    n = _require_order(cfg.n, "--n")
    if not 1 <= cfg.k <= n:
        raise UsageError("--k must satisfy 1 <= k <= n")
    f = _series(cfg.fn[0], n)
    return str(composita_oracle(f, n, cfg.k)), 0


def _verify_associativity(cfg: CliConfig, max_n: int) -> IdentityReport:
    names = cfg.fn or ("poly2:1,1", "geometric", "x_exp")
    if len(names) != 3:
        raise UsageError("associativity needs exactly three --fn designators")
    tables = [
        composita_from_series(_series(name, max_n), max_n) for name in names
    ]
    return check_associativity(*tables, fault=cfg.perturb)


def _verify_derivative(cfg: CliConfig, max_n: int) -> IdentityReport:
    name = cfg.fn[0] if cfg.fn else "geometric"
    f = _series(name, max_n)
    table = composita_from_series(f, max_n)
    if cfg.perturb is not None:
        n, k, delta = cfg.perturb
        table = table.with_entry(n, k, table[n, k] + delta)
    return check_derivative_identity(f, table)


def _verify_inverse(cfg: CliConfig, max_n: int) -> IdentityReport:
    name = cfg.fn[0] if cfg.fn else "x_exp"
    f = _series(name, max_n)
    table = composita_from_series(f, max_n)
    inv = inverse_series(f, table)
    inv_table = composita_from_series(inv, max_n)
    if cfg.perturb is not None:
        n, k, delta = cfg.perturb
        inv_table = inv_table.with_entry(n, k, inv_table[n, k] + delta)
    return check_inverse_identity(table, inv_table)


def _verify_funceq(cfg: CliConfig, max_n: int) -> IdentityReport:
    max_r = cfg.max_r if cfg.max_r is not None else max_n
    needed = (cfg.m + 1) * max_n + max_r
    g = _series(cfg.g or "1,1", needed - 1)
    table = composita_from_series(g.times_x(), needed)
    if cfg.perturb is not None:
        n, k, delta = cfg.perturb
        table = table.with_entry(n, k, table[n, k] + delta)
    return check_funceq_identity(table, cfg.m, max_n, max_r)


def _verify_reciprocal(cfg: CliConfig, max_n: int) -> IdentityReport:
    b = _series(cfg.b or "sin_over_x", max_n - 1)
    table = reciprocal_composita(b, max_n)
    return check_reciprocal_identity(b, table, fault=cfg.perturb)


def _perturb_limit(cfg: CliConfig, max_n: int) -> int:
    """Order of the triangle that --perturb indexes into for this sweep."""
    if cfg.identity == "funceq":
        if cfg.m < 1:
            raise ValueError("the identity is stated for m >= 1")
        max_r = cfg.max_r if cfg.max_r is not None else max_n
        return (cfg.m + 1) * max_n + max_r
    return max_n


def _cmd_verify(cfg: CliConfig) -> tuple[str, int]:
    identity = cfg.identity or ""
    max_n = cfg.max_n if cfg.max_n is not None else _DEFAULT_MAX_N[identity]
    max_n = _require_order(max_n, "--max-n")
    if identity == "funceq" and cfg.max_r is not None:
        _require_order(cfg.max_r, "--max-r")
    if cfg.perturb is not None:
        limit = _perturb_limit(cfg, max_n)
        n, k, _ = cfg.perturb
        if not 1 <= k <= n <= limit:
            raise UsageError(
                f"--perturb N,K,DELTA needs 1 <= K <= N <= {limit} for this {identity} sweep"
            )
    if identity == "associativity":
        report = _verify_associativity(cfg, max_n)
    elif identity == "derivative":
        report = _verify_derivative(cfg, max_n)
    elif identity == "inverse":
        report = _verify_inverse(cfg, max_n)
    elif identity == "lambert":
        report = check_lambert_identity(max_n, fault=cfg.perturb)
    elif identity == "reciprocal":
        report = _verify_reciprocal(cfg, max_n)
    else:
        report = _verify_funceq(cfg, max_n)

    if cfg.format == "records":
        text = json.dumps(report.to_record())
    elif report.verified:
        text = "verified"
    else:
        params, lhs, rhs = report.first_failure
        where = ",".join(str(p) for p in params)
        text = f"counterexample at ({where}): lhs={lhs} rhs={rhs}"
    return text, 0 if report.verified else 3


_HANDLERS: dict[str, Callable[[CliConfig], tuple[str, int]]] = {
    "composita": _cmd_composita,
    "compose": _cmd_compose,
    "inverse": _cmd_inverse,
    "reciprocal": _cmd_reciprocal,
    "solve": _cmd_solve,
    "riordan": _cmd_riordan,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cfg = _config_from_args(args)
    try:
        text, code = _HANDLERS[cfg.subcommand](cfg)
    except UnknownFunction as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"known functions: {', '.join(registry_names())}", file=sys.stderr)
        return 1
    except (UsageError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CompositaeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
