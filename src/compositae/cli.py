"""Command-line interface.

Eight subcommands cover the whole surface: triangle construction
(``composita``, ``oracle``), series transforms (``compose``, ``inverse``,
``reciprocal``), functional equations (``solve``), Riordan arrays
(``riordan``), and identity sweeps (``verify``).  Functions are named by
catalog designators ("geometric", "poly2:1,1", "radical:3", "arcsin") or
raw coefficient lists ("0,1,1"); every subcommand takes every designator,
and output is byte-deterministic.

Every subcommand and flag is described once, in the flag table
``_COMMANDS``.  A well-formed call (the subcommand, then exact ``--flag
value`` pairs and switches) is read from that table by ``_read_argv``;
anything else (help, a usage error, an abbreviation, ``--flag=value``,
``--``) goes to the argparse parser that ``_offpath.build_parser`` makes
from the same table, so argparse alone decides what such a call means and
prints.  Handlers take the namespace as read (``verify`` fills in the
defaults of --max-n, --max-r and --m, and refuses a flag that its sweep
does not read); each reads only its own subcommand's flags.

Exit codes: 0 success, 1 usage (including unknown designators),
2 precondition violation, 3 identity counterexample, 4 internal error
(an unexpected exception, reported in one line without a traceback).
Where ``--m`` would make the work grow without bound (``solve``'s power
table, the triangle that ``verify --identity funceq`` reads), the call is
refused with exit 2 before the work starts.

Every call starts a fresh interpreter and, with no bytecode cache, compiles
what it runs, so a call compiles only the code its subcommand, format and
options run.  What loads when:

* every call: this module, ``series``, ``triangle``, ``formats`` (record
  lines are written without ``json``) and the small modules they import;
* where a ``Fraction`` is built: ``fractions`` (with ``decimal`` and
  ``numbers``).  Series and tables store integer rows, designators are
  read into integer pairs, composition, inversion and ``riordan --b`` sum
  stored rows against integer pairs, series are divided and
  differentiated on their integer rows, ``solve`` with m < 0 runs Miller's
  power recurrence on integers, and the writers print integer rows, so
  ``composita``, ``compose``, ``inverse``, ``reciprocal``, ``riordan``
  (with or without ``--b``) and ``solve`` (for any m) on raw lists or
  catalog names without parameters (``tan`` included) never import it;
  ``verify``, ``oracle`` and a parameterised designator do;
* help, a usage error, or ``--output``: ``_offpath``, which holds the
  argparse parser and the ``--output`` writer; only the parser imports
  ``argparse`` (with ``gettext`` and ``locale``);
* ``verify``: ``_verify``, the sweep table and the report writer;
* ``oracle``: ``oracle``, the enumeration of compositions;
* on first use: ``catalog`` (for catalog names and for the unknown-designator
  hint, the list of names printed after an unknown designator),
  ``calculus``, ``funceq``, ``identities`` and ``riordan``.  Importing this
  module puts each one in ``sys.modules`` (and on the package) as a module
  whose file is read, compiled and run when a handler first reads an
  attribute from it.  So ``composita`` runs none of the last four,
  ``solve`` runs ``funceq`` alone (for any m; it never compiles
  ``calculus``), and only ``verify`` runs ``identities`` (of the sweeps,
  only associativity, inverse and reciprocal run ``calculus``).  A raw
  coefficient list ("1,1") is read by ``series.raw_coefficients``, the
  grammar the catalog's parser also uses, and expanded by ``_series``, so
  ``solve --g 1,1`` runs no ``catalog``.  These modules are placed in ``sys.modules``
  rather than imported inside the handlers because ``perfbench/tracing.py``
  looks each span module up there right after ``import compositae.cli``;
* never: ``theorems`` (the paper's closed forms and theorems, which only
  the tests evaluate), ``_arith`` (sums, products and powers of series,
  which only the tests and the benchmark's checks run) and
  ``dataclasses`` (the value types are plain slotted classes).

``main()`` writes and flushes its output (argparse's help too) and returns
the exit code; a stdout that cannot be written is reported in one line and
exits 1 (a reader that has gone away, silently).  The process entry,
``run()`` in ``__main__``, then ends the process with ``os._exit``, without
the interpreter's teardown; ``main()`` itself returns normally, since it
also runs inside long-lived processes.
"""

from __future__ import annotations

import errno
import importlib.util
import os
import sys
from types import ModuleType, SimpleNamespace
from typing import Callable, Optional

from ._rows import Row
from .errors import CompositaeError, UnknownFunction
from .formats import (
    series_csv,
    series_records,
    series_text,
    triangle_csv,
    triangle_records,
    triangle_text,
)
from .series import PowerSeries, parse_int, parse_rational, raw_coefficients
from .triangle import composita_from_series


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


catalog = _lazy_submodule("catalog")
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
    """The series ``designator`` names, to ``order``; a raw coefficient list
    is read as a polynomial, as ``catalog.parse_function_spec`` does, without
    the catalog."""
    pairs = raw_coefficients(designator)
    if pairs is None:
        return catalog.catalog_series(catalog.parse_function_spec(designator), order)
    return PowerSeries.from_pairs(pairs, order=order)


def _render_triangle(table, fmt: str) -> str:
    if fmt == "csv":
        return triangle_csv(table)
    if fmt == "records":
        return triangle_records(table)
    return triangle_text(table)


def _render_series(row: Row, fmt: str, start: int = 0) -> str:
    if fmt == "csv":
        return series_csv(row, start=start)
    if fmt == "records":
        return series_records(row, start=start)
    return series_text(row)


def _require_order(value: int, flag: str) -> int:
    if value < 1:
        raise UsageError(f"{flag} must be >= 1")
    return value


def _cmd_composita(args: SimpleNamespace) -> tuple[str, int]:
    n = _require_order(args.n, "--n")
    f = _series(args.fn, n)
    table = composita_from_series(f, n)
    return _render_triangle(table, args.format), 0


def _cmd_compose(args: SimpleNamespace) -> tuple[str, int]:
    n = _require_order(args.n, "--n")
    r = _series(args.r, n)
    f = _series(args.fn, n)
    table = composita_from_series(f, n)
    return _render_series(calculus.compose_series(r, table).int_row, args.format), 0


def _cmd_inverse(args: SimpleNamespace) -> tuple[str, int]:
    order = _require_order(args.order, "--order")
    table = composita_from_series(_series(args.fn, order), order)
    nums, den = calculus.inverse_series(table).int_row
    return _render_series((nums[1:], den), args.format, start=1), 0


def _cmd_reciprocal(args: SimpleNamespace) -> tuple[str, int]:
    order = _require_order(args.order, "--order")
    b = _series(args.b, order - 1)
    table = calculus.reciprocal_composita(b, order)
    return _render_triangle(table, args.format), 0


def _cmd_solve(args: SimpleNamespace) -> tuple[str, int]:
    order = _require_order(args.order, "--order")
    g = _series(args.g, order)
    solution = funceq.solve_functional_equation(g, args.m, order)
    if args.table:
        return _render_triangle(solution.a_table, args.format), 0
    return _render_series(solution.a_series.int_row, args.format), 0


def _cmd_riordan(args: SimpleNamespace) -> tuple[str, int]:
    n = _require_order(args.n, "--n")
    g = _series(args.g, n)
    f = _series(args.fn, n)
    table = riordan.riordan_build(g, f)
    if args.b is not None:
        return _render_series(riordan.riordan_apply(table, _series(args.b, n)).int_row, args.format), 0
    return _render_triangle(table, args.format), 0


def _cmd_oracle(args: SimpleNamespace) -> tuple[str, int]:
    from .oracle import composita_oracle  # only oracle compiles the enumeration

    n = _require_order(args.n, "--n")
    if not 1 <= args.k <= n:
        raise UsageError("--k must satisfy 1 <= k <= n")
    f = _series(args.fn, n)
    return str(composita_oracle(f, n, args.k)), 0


def _cmd_verify(args: SimpleNamespace) -> tuple[str, int]:
    from ._verify import verify  # only verify compiles the sweeps

    return verify(args)


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


# The --identity choices: the keys of _verify.SWEEPS, written out so that
# reading a command line does not compile the sweeps.
IDENTITY_NAMES = ("associativity", "derivative", "inverse", "lambert", "funceq", "reciprocal")

# The subcommands and their flags, described once: subcommand -> (help,
# flags), each flag (name, kind, required, default, help), where kind is
# "text", "int", "perturb", "append", "switch" or a tuple of choices.  Both
# readers of a command line are made from this table: _read_argv() and the
# argparse parser of _offpath.build_parser(), whose help lists the flags in
# this order.
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
        ("--m", "int", False, None, "funceq only"),
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
        from ._offpath import build_parser

        try:
            args = SimpleNamespace(**vars(build_parser().parse_args(argv)))
        except SystemExit as exc:  # help (written by _write_stdout) or a usage error
            return int(exc.code or 0)
    try:
        text, code = _HANDLERS[args.subcommand](args)
    except UnknownFunction as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"known functions: {', '.join(catalog.registry_names())}", file=sys.stderr)
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
        from ._offpath import write_output

        try:
            write_output(args.output, text + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
            return 1
        return code
    return code if _write_stdout(text) else 1


def _write_stdout(text: str) -> bool:
    """Print ``text`` (a result, or argparse's help) and flush stdout, so
    that a failed write fails here and not at exit.  If it fails, say why
    on stderr (not for a closed pipe: the reader is gone), point stdout's
    file descriptor at devnull so that no later flush fails again with
    what is left in its buffer, and return False."""
    stdout = sys.stdout
    try:
        if stdout is None:  # fd 1 was closed when the interpreter started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        print(text)
        stdout.flush()
    except OSError as exc:
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        try:
            fd = stdout.fileno()
        except (AttributeError, OSError):  # closed, or not a file (an in-process host's)
            return False
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return False
    return True

