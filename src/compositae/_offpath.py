"""The parts of the CLI that a well-formed call printing to stdout never
runs: the argparse parser, for help and usage errors, and the writer of
``--output`` files.

``cli.main()`` imports this module only when ``cli._read_argv`` leaves the
command line to argparse or when the call names ``--output``, so the other
calls do not compile it.
"""

from __future__ import annotations

import os
import sys

from . import cli
from .series import parse_int


def build_parser():
    """The argparse parser of ``cli._COMMANDS``.  ``cli.main()`` builds it
    only for what ``cli._read_argv()`` leaves to it: help, usage errors and
    the forms that only argparse reads."""
    import argparse  # with gettext and locale: only help and usage errors need it

    class _Parser(argparse.ArgumentParser):
        """argparse exits 2 on usage errors; the contract here is exit 1."""

        def error(self, message: str) -> None:  # type: ignore[override]
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

        def print_help(self, file=None) -> None:
            """Help goes through the CLI's stdout writer, which reports a
            failed write (argparse's own writer drops it), and a failed
            write exits 1."""
            if not cli._write_stdout(self.format_help()[:-1]):  # print adds the "\n" back
                self.exit(1)

    def integer(text: str) -> int:
        try:
            return parse_int(text)
        except ValueError:  # argparse's own wording for a bad type=int value
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None

    def perturbation(text: str) -> tuple[int, int, Fraction]:
        try:
            return cli._perturbation(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    by_kind = {
        "text": {},
        "int": {"type": integer},
        "perturb": {"type": perturbation},
        "append": {"action": "append"},
        "switch": {"action": "store_true"},
    }
    parser = _Parser(prog="compositae", description=cli.__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for command, (summary, flags) in cli._COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, kind, required, default, text in flags:
            options = {"choices": kind} if isinstance(kind, tuple) else by_kind[kind]
            p.add_argument(name, required=required, default=default, help=text, **options)
    return parser


def write_output(path: str, text: str) -> None:
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
