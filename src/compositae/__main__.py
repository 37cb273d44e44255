"""The process entry of the CLI, for ``python -m compositae`` and the
``compositae`` console script alike."""

import gc
import sys

from .cli import main


def run() -> int:
    """Run one CLI call as the whole process and return its exit code."""
    # An exact result may pass the 4,300 digits that Python 3.10.7 and later
    # convert between int and str by default; print it rather than fail.  The
    # input cannot make this unbounded: the kernel caps one argv value at
    # 128 KiB.  Older Pythons have no limit and no setter.  Like the freeze
    # below, this is the process's choice: main() leaves the limit to its host.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    code = main()
    # At exit the interpreter runs full collections over every tracked
    # object (about 13,000 after one call) and frees each cycle: milliseconds
    # of work that is wasted when the operating system reclaims the whole
    # process anyway.  Those collections skip frozen objects.  This is safe
    # because nothing runs after this line but the exit itself (atexit
    # handlers and the stdio flush still run), and no output depends on
    # finalizing a cycle.  main() never freezes: in a long-lived process a
    # freeze would keep every cycle that later becomes garbage.
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
