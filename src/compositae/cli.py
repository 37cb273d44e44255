"""Command-line interface.

Eight subcommands cover the whole surface: triangle construction
(``composita``, ``oracle``), series transforms (``compose``, ``inverse``,
``reciprocal``), functional equations (``solve``), Riordan arrays
(``riordan``), and identity sweeps (``verify``).  Functions are named by
catalog designators ("geometric", "poly2:1,1") or raw coefficient lists
("0,1,1"); output is byte-deterministic.

Every subcommand and flag is described once, in the flag table
``_COMMANDS``.  A well-formed call (the subcommand, then exact ``--flag
value`` pairs and switches) is read from that table by ``_read_argv``;
anything else (help, a usage error, an abbreviation, ``--flag=value``,
``--``) goes to the argparse parser that ``build_parser`` makes from the
same table, so argparse alone decides what such a call means and prints.
Handlers take the namespace as read (``verify`` fills in the defaults of
--max-n and --max-r); each reads only its own subcommand's flags.

Exit codes: 0 success, 1 usage (including unknown designators),
2 precondition violation, 3 identity counterexample, 4 internal error
(an unexpected exception, reported in one line without a traceback).

Every call starts a fresh interpreter and, with no bytecode cache, compiles
what it runs, so start-up is kept lean.  ``argparse`` (with the
``gettext`` and ``locale`` it imports) is imported only for help and usage
errors, never on a well-formed call.  ``calculus``, ``funceq``,
``identities`` and ``riordan`` are loaded lazily: importing this module
puts each one in ``sys.modules`` (and on the package) as a module whose
file is read, compiled and run when a handler first reads an attribute
from it, so ``composita`` runs none of them and ``solve`` runs no
``identities``.  They are placed in ``sys.modules`` rather than imported
inside the handlers because ``perfbench/tracing.py`` looks each span
module up there right after ``import compositae.cli``.  No subcommand
imports ``theorems`` (the paper's closed forms and theorems, which only
the tests and ``scripts/verify_catalog.py`` evaluate), the package's value
types are plain slotted classes rather than dataclasses, and ``json`` is
imported only when ``--format records`` asks for it.  The process entry,
``run()`` in ``__main__``, ends the process without the interpreter's
teardown collection (it calls ``gc.freeze()`` once ``main()`` returns);
``main()`` itself does not freeze, since it also runs inside long-lived
processes.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from fractions import Fraction
from types import ModuleType, SimpleNamespace
from typing import Callable, Optional

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
from .series import PowerSeries, parse_int, parse_rational
from .triangle import CompositaTable, composita_from_series, composita_oracle


def _lazy_submodule(name: str) -> ModuleType:
    """The submodule ``compositae.<name>``, in ``sys.modules`` and on the
    package from now on, whose body runs when an attribute is first read
    from it.  A submodule imported earlier is returned as it is, so that
    there is only ever one module object per name."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        loader = importlib.util.LazyLoader(spec.loader)
        spec.loader = loader
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


calculus = _lazy_submodule("calculus")
funceq = _lazy_submodule("funceq")
identities = _lazy_submodule("identities")
riordan = _lazy_submodule("riordan")


class UsageError(Exception):
    """Bad flag values that a flag's kind in ``_COMMANDS`` does not catch."""


def _perturbation(text: str) -> tuple[int, int, Fraction]:
    """N, K and DELTA of ``--perturb N,K,DELTA``; a ValueError carries the
    message argparse reports."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("expected N,K,DELTA")
    try:
        return parse_int(parts[0]), parse_int(parts[1]), parse_rational(parts[2])
    except ValueError:
        raise ValueError(f"bad perturbation {text!r}") from None


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


def _cmd_composita(args: SimpleNamespace) -> tuple[str, int]:
    n = _require_order(args.n, "--n")
    f = _series(args.fn, n)
    table = composita_from_series(f, n, source=args.fn)
    return _render_triangle(table, args.format), 0


def _cmd_compose(args: SimpleNamespace) -> tuple[str, int]:
    n = _require_order(args.n, "--n")
    r = _series(args.r, n)
    f = _series(args.fn, n)
    table = composita_from_series(f, n)
    return _render_series(calculus.compose_series(r, table).coeffs, args.format), 0


def _cmd_inverse(args: SimpleNamespace) -> tuple[str, int]:
    order = _require_order(args.order, "--order")
    f = _series(args.fn, order)
    table = composita_from_series(f, order)
    inv = calculus.inverse_series(f, table)
    return _render_series(inv.coeffs[1:], args.format, start=1), 0


def _cmd_reciprocal(args: SimpleNamespace) -> tuple[str, int]:
    order = _require_order(args.order, "--order")
    b = _series(args.b, order - 1)
    table = calculus.reciprocal_composita(b, order, source=args.b)
    return _render_triangle(table, args.format), 0


def _cmd_solve(args: SimpleNamespace) -> tuple[str, int]:
    order = _require_order(args.order, "--order")
    g = _series(args.g, order)
    solution = funceq.solve_functional_equation(g, args.m, order)
    if args.table:
        return _render_triangle(solution.a_table, args.format), 0
    return _render_series(solution.a_series.coeffs, args.format), 0


def _cmd_riordan(args: SimpleNamespace) -> tuple[str, int]:
    n = _require_order(args.n, "--n")
    g = _series(args.g, n)
    f = _series(args.fn, n)
    table = riordan.riordan_build(g, composita_from_series(f, n))
    if args.b is not None:
        b = _series(args.b, n)
        return _render_series(riordan.riordan_apply(table, b.coeffs), args.format), 0
    return _render_triangle(table, args.format), 0


def _cmd_oracle(args: SimpleNamespace) -> tuple[str, int]:
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


def _verify_associativity(args: SimpleNamespace, order: int) -> identities.IdentityReport:
    names = args.fn or ("poly2:1,1", "geometric", "x_exp")
    if len(names) != 3:
        raise UsageError("associativity needs exactly three --fn designators")
    tables = [
        composita_from_series(_series(name, order), order) for name in names
    ]
    return identities.check_associativity(*tables, fault=args.perturb)


def _verify_derivative(args: SimpleNamespace, order: int) -> identities.IdentityReport:
    name = args.fn[0] if args.fn else "geometric"
    f = _series(name, order)
    table = _perturbed(composita_from_series(f, order), args.perturb)
    return identities.check_derivative_identity(f, table)


def _verify_inverse(args: SimpleNamespace, order: int) -> identities.IdentityReport:
    name = args.fn[0] if args.fn else "x_exp"
    f = _series(name, order)
    table = composita_from_series(f, order)
    inv = calculus.inverse_series(f, table)
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
    table = calculus.reciprocal_composita(b, order)
    return identities.check_reciprocal_identity(b, table, fault=args.perturb)


# identity -> (--max-n when not given, sweep).  A sweep builds its tables to
# the order it is given: --max-n, except that funceq reads the triangle of
# x*G to (m + 1) * max_n + max_r.  --perturb indexes into that table.
_SWEEPS: dict[
    str, tuple[int, Callable[[SimpleNamespace, int], identities.IdentityReport]]
] = {
    "associativity": (8, _verify_associativity),
    "derivative": (10, _verify_derivative),
    "inverse": (10, _verify_inverse),
    "lambert": (10, _verify_lambert),
    "funceq": (6, _verify_funceq),
    "reciprocal": (10, _verify_reciprocal),
}
IDENTITY_NAMES = tuple(_SWEEPS)


def _cmd_verify(args: SimpleNamespace) -> tuple[str, int]:
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


_HANDLERS: dict[str, Callable[[SimpleNamespace], tuple[str, int]]] = {
    "composita": _cmd_composita,
    "compose": _cmd_compose,
    "inverse": _cmd_inverse,
    "reciprocal": _cmd_reciprocal,
    "solve": _cmd_solve,
    "riordan": _cmd_riordan,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
}


# The subcommands and their flags, described once: subcommand -> (help,
# flags), each flag (name, kind, required, default, help), where kind is
# "text", "int", "perturb", "append", "switch" or a tuple of choices.  Both
# readers of a command line are made from this table: _read_argv() and the
# argparse parser of build_parser(), whose help lists the flags in this order.
_FORMAT = (
    "--format", ("triangle", "csv", "records"), False, "triangle",
    "output shape (default: triangle / plain text)",
)
_OUTPUT = ("--output", "text", False, None, "write to this path instead of stdout")
_COMMANDS: dict[str, tuple[str, tuple[tuple, ...]]] = {
    "composita": ("triangle of a function with f(0)=0", (
        ("--fn", "text", True, None, "catalog name or coefficient list"),
        ("--n", "int", True, None, "table order (rows 1..N)"),
        _FORMAT, _OUTPUT,
    )),
    "compose": ("coefficients of R(F(x))", (
        ("--r", "text", True, None, "outer function R"),
        ("--fn", "text", True, None, "inner function F, f(0)=0"),
        ("--n", "int", True, None, "truncation order"),
        _FORMAT, _OUTPUT,
    )),
    "inverse": ("compositional inverse of F, printed from a(1)", (
        ("--fn", "text", True, None, None),
        ("--order", "int", True, None, None),
        _FORMAT, _OUTPUT,
    )),
    "reciprocal": ("triangle of x*A(x) where A(x)B(x)=1", (
        ("--b", "text", True, None, "function B with b(0) != 0"),
        ("--order", "int", True, None, None),
        _FORMAT, _OUTPUT,
    )),
    "solve": ("solve A(x) = G(x A(x)^m)", (
        ("--g", "text", True, None, "function G with g(0) != 0"),
        ("--m", "int", True, None, None),
        ("--order", "int", True, None, None),
        ("--table", "switch", False, False, "print the triangle of x*A(x) instead of the series"),
        _FORMAT, _OUTPUT,
    )),
    "riordan": ("Riordan array (G, F); --b applies it", (
        ("--g", "text", True, None, "multiplier G"),
        ("--fn", "text", True, None, "inner function F, f(0)=0"),
        ("--n", "int", True, None, "array order (rows 0..N)"),
        ("--b", "text", False, None, "sequence to apply the array to"),
        _FORMAT, _OUTPUT,
    )),
    "verify": ("run one identity sweep", (
        ("--identity", IDENTITY_NAMES, True, None, None),
        ("--max-n", "int", False, None, None),
        ("--max-r", "int", False, None, "funceq only"),
        ("--m", "int", False, 1, "funceq only"),
        ("--g", "text", False, None, "funceq: function G (default 1,1)"),
        ("--b", "text", False, None, "reciprocal: function B (default sin_over_x)"),
        ("--fn", "append", False, None, "input function(s); associativity takes three"),
        ("--perturb", "perturb", False, None,
         "N,K,DELTA fault injection to demonstrate counterexample detection"),
        _FORMAT, _OUTPUT,
    )),
    "oracle": ("one entry by brute-force composition sums", (
        ("--fn", "text", True, None, None),
        ("--n", "int", True, None, None),
        ("--k", "int", True, None, None),
        _OUTPUT,  # one value: there is no output shape to choose
    )),
}


def build_parser():
    """The argparse parser of ``_COMMANDS``.  ``main()`` builds it only for
    what ``_read_argv()`` leaves to it: help, usage errors and the forms
    that only argparse reads."""
    import argparse  # with gettext and locale: not on a well-formed call's path

    class _Parser(argparse.ArgumentParser):
        """argparse exits 2 on usage errors; the contract here is exit 1."""

        def error(self, message: str) -> None:  # type: ignore[override]
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    def integer(text: str) -> int:
        try:
            return parse_int(text)
        except ValueError:  # argparse's own wording for a bad type=int value
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None

    def perturbation(text: str) -> tuple[int, int, Fraction]:
        try:
            return _perturbation(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    by_kind = {
        "text": {},
        "int": {"type": integer},
        "perturb": {"type": perturbation},
        "append": {"action": "append"},
        "switch": {"action": "store_true"},
    }
    parser = _Parser(prog="compositae", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for command, (summary, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, kind, required, default, text in flags:
            options = {"choices": kind} if isinstance(kind, tuple) else by_kind[kind]
            p.add_argument(name, required=required, default=default, help=text, **options)
    return parser


def _read_argv(argv: list[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse makes of ``argv`` when the call is well
    formed, else None.

    Well formed is a subcommand, then exact flags of that subcommand: a
    switch alone, any other flag followed by one value that converts and
    is one of its choices, and every required flag given.  A value starts
    with '-' only as '-' and ASCII digits, which argparse also reads as a
    value.  Everything else (help, usage errors, abbreviations such as
    --ord, --n=5, '--') is left to argparse, the only code that reads it.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags = {flag[0]: flag for flag in _COMMANDS[argv[0]][1]}
    values = {name: flag[3] for name, flag in flags.items()}
    missing = {name for name, flag in flags.items() if flag[2]}
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in flags:
            return None
        kind = flags[token][1]
        missing.discard(token)
        if kind == "switch":
            values[token] = True
            continue
        text = next(tokens, None)
        if text is None or (text[:1] == "-" and not (text[1:].isascii() and text[1:].isdigit())):
            return None
        if isinstance(kind, tuple):
            if text not in kind:
                return None
        elif kind == "append":
            text = (values[token] or []) + [text]
        elif kind != "text":
            try:
                text = (parse_int if kind == "int" else _perturbation)(text)
            except ValueError:
                return None
        values[token] = text
    if missing:
        return None
    dests = {name[2:].replace("-", "_"): value for name, value in values.items()}
    return SimpleNamespace(subcommand=argv[0], **dests)


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:  # help, a usage error, or a form only argparse reads
        try:
            args = SimpleNamespace(**vars(build_parser().parse_args(argv)))
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

