"""The process entry of the CLI, for ``python -m compositae`` and the
``compositae`` console script alike."""

import gc
import sys

from .cli import main


def run() -> int:
    """Run one CLI call as the whole process and return its exit code."""
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
