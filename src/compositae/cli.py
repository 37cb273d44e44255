"""Command-line interface.

Eight subcommands cover the whole surface: triangle construction
(``composita``, ``oracle``), series transforms (``compose``, ``inverse``,
``reciprocal``), functional equations (``solve``), Riordan arrays
(``riordan``), and identity sweeps (``verify``).  Functions are named by
catalog designators ("geometric", "poly2:1,1") or raw coefficient lists
("0,1,1"); output is byte-deterministic.

Handlers take the argparse namespace as parsed (``verify`` fills in the
defaults of --max-n and --max-r); each reads only its own subcommand's
flags.

Exit codes: 0 success, 1 usage (including unknown designators),
2 precondition violation, 3 identity counterexample, 4 internal error
(an unexpected exception, reported in one line without a traceback).

Every call starts a fresh interpreter and, with no bytecode cache, compiles
what it imports, so start-up is kept lean: no subcommand imports
``theorems`` (the paper's closed forms and theorems, which only the tests
and ``scripts/verify_catalog.py`` evaluate), the package's value types are
plain slotted classes rather than dataclasses, and ``json`` is imported
only when ``--format records`` asks for it.
"""

from __future__ import annotations

import argparse
import os
import sys
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
from .triangle import CompositaTable, composita_from_series, composita_oracle


class UsageError(Exception):
    """Bad flag values that argparse's type machinery cannot catch."""


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

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", help="write to this path instead of stdout")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("triangle", "csv", "records"),
            default="triangle",
            help="output shape (default: triangle / plain text)",
        )
        add_output(p)

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
    add_output(p)  # one value: there is no output shape to choose

    return parser


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


def _cmd_composita(args: argparse.Namespace) -> tuple[str, int]:
    n = _require_order(args.n, "--n")
    f = _series(args.fn, n)
    table = composita_from_series(f, n, source=args.fn)
    return _render_triangle(table, args.format), 0


def _cmd_compose(args: argparse.Namespace) -> tuple[str, int]:
    n = _require_order(args.n, "--n")
    r = _series(args.r, n)
    f = _series(args.fn, n)
    table = composita_from_series(f, n)
    return _render_series(compose_series(r, table).coeffs, args.format), 0


def _cmd_inverse(args: argparse.Namespace) -> tuple[str, int]:
    order = _require_order(args.order, "--order")
    f = _series(args.fn, order)
    table = composita_from_series(f, order)
    inv = inverse_series(f, table)
    return _render_series(inv.coeffs[1:], args.format, start=1), 0


def _cmd_reciprocal(args: argparse.Namespace) -> tuple[str, int]:
    order = _require_order(args.order, "--order")
    b = _series(args.b, order - 1)
    table = reciprocal_composita(b, order, source=args.b)
    return _render_triangle(table, args.format), 0


def _cmd_solve(args: argparse.Namespace) -> tuple[str, int]:
    order = _require_order(args.order, "--order")
    g = _series(args.g, order)
    solution = solve_functional_equation(g, args.m, order)
    if args.table:
        return _render_triangle(solution.a_table, args.format), 0
    return _render_series(solution.a_series.coeffs, args.format), 0


def _cmd_riordan(args: argparse.Namespace) -> tuple[str, int]:
    n = _require_order(args.n, "--n")
    g = _series(args.g, n)
    f = _series(args.fn, n)
    table = riordan_build(g, composita_from_series(f, n))
    if args.b is not None:
        b = _series(args.b, n)
        return _render_series(riordan_apply(table, b.coeffs), args.format), 0
    return _render_triangle(table, args.format), 0


def _cmd_oracle(args: argparse.Namespace) -> tuple[str, int]:
    n = _require_order(args.n, "--n")
    if not 1 <= args.k <= n:
        raise UsageError("--k must satisfy 1 <= k <= n")
    f = _series(args.fn, n)
    return str(composita_oracle(f, n, args.k)), 0


def _perturbed(
    table: CompositaTable, perturb: Optional[tuple[int, int, Fraction]]
) -> CompositaTable:
    """``table`` with DELTA added to entry (N, K) for --perturb N,K,DELTA."""
    if perturb is None:
        return table
    n, k, delta = perturb
    return table.with_entry(n, k, table[n, k] + delta)


def _verify_associativity(args: argparse.Namespace, order: int) -> IdentityReport:
    names = args.fn or ("poly2:1,1", "geometric", "x_exp")
    if len(names) != 3:
        raise UsageError("associativity needs exactly three --fn designators")
    tables = [
        composita_from_series(_series(name, order), order) for name in names
    ]
    return check_associativity(*tables, fault=args.perturb)


def _verify_derivative(args: argparse.Namespace, order: int) -> IdentityReport:
    name = args.fn[0] if args.fn else "geometric"
    f = _series(name, order)
    table = _perturbed(composita_from_series(f, order), args.perturb)
    return check_derivative_identity(f, table)


def _verify_inverse(args: argparse.Namespace, order: int) -> IdentityReport:
    name = args.fn[0] if args.fn else "x_exp"
    f = _series(name, order)
    table = composita_from_series(f, order)
    inv = inverse_series(f, table)
    inv_table = _perturbed(composita_from_series(inv, order), args.perturb)
    return check_inverse_identity(table, inv_table)


def _verify_lambert(args: argparse.Namespace, order: int) -> IdentityReport:
    return check_lambert_identity(order, fault=args.perturb)


def _verify_funceq(args: argparse.Namespace, order: int) -> IdentityReport:
    g = _series(args.g or "1,1", order - 1)
    table = _perturbed(composita_from_series(g.times_x(), order), args.perturb)
    return check_funceq_identity(table, args.m, args.max_n, args.max_r)


def _verify_reciprocal(args: argparse.Namespace, order: int) -> IdentityReport:
    b = _series(args.b or "sin_over_x", order - 1)
    table = reciprocal_composita(b, order)
    return check_reciprocal_identity(b, table, fault=args.perturb)


# identity -> (--max-n when not given, sweep).  A sweep builds its tables to
# the order it is given: --max-n, except that funceq reads the triangle of
# x*G to (m + 1) * max_n + max_r.  --perturb indexes into that table.
_SWEEPS: dict[str, tuple[int, Callable[[argparse.Namespace, int], IdentityReport]]] = {
    "associativity": (8, _verify_associativity),
    "derivative": (10, _verify_derivative),
    "inverse": (10, _verify_inverse),
    "lambert": (10, _verify_lambert),
    "funceq": (6, _verify_funceq),
    "reciprocal": (10, _verify_reciprocal),
}
IDENTITY_NAMES = tuple(_SWEEPS)


def _cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    identity = args.identity
    default_max_n, sweep = _SWEEPS[identity]
    if args.max_n is None:
        args.max_n = default_max_n
    order = _require_order(args.max_n, "--max-n")
    if identity == "funceq":
        if args.max_r is None:
            args.max_r = args.max_n
        _require_order(args.max_r, "--max-r")
        if args.m < 1:  # before any series is built: the order needed depends on m
            raise ValueError("the identity is stated for m >= 1")
        order = (args.m + 1) * args.max_n + args.max_r
    if args.perturb is not None:
        n, k, _ = args.perturb
        if not 1 <= k <= n <= order:
            raise UsageError(
                f"--perturb N,K,DELTA needs 1 <= K <= N <= {order} for this {identity} sweep"
            )
    report = sweep(args, order)

    if args.format == "records":
        import json  # only this format needs it; the CLI starts without it

        text = json.dumps(report.to_record())
    elif report.verified:
        text = "verified"
    else:
        params, lhs, rhs = report.first_failure
        where = ",".join(str(p) for p in params)
        text = f"counterexample at ({where}): lhs={lhs} rhs={rhs}"
    return text, 0 if report.verified else 3


def _write_output(path: str, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it
    over ``path``: a failed write leaves no partial file and leaves an
    existing ``path`` unchanged.  A path that exists but is not a regular
    file (a device, a pipe, a directory) is opened and written directly."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    path = os.path.realpath(path)  # through a symlink, replace the file it names
    temp = f"{path}.{os.getpid()}.tmp"
    handle = open(temp, "x", encoding="utf-8")
    try:
        if os.path.exists(path):  # the new file keeps the permissions of the old
            os.chmod(temp, os.stat(path).st_mode & 0o7777)
        with handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        try:
            os.remove(temp)
        except OSError:
            pass
        raise


_HANDLERS: dict[str, Callable[[argparse.Namespace], tuple[str, int]]] = {
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
    try:
        text, code = _HANDLERS[args.subcommand](args)
    except UnknownFunction as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"known functions: {', '.join(registry_names())}", file=sys.stderr)
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CompositaeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not bad input: say so without a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    if args.output:
        try:
            _write_output(args.output, text + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
            return 1
        return code
    try:
        print(text)
        sys.stdout.flush()  # a closed pipe must fail here, not at exit
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so that the flush at
        # interpreter exit does not fail again, and exit 1 without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
