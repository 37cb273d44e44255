"""The process entry of the CLI, for ``python -m compositae`` and the
``compositae`` console script alike."""

import os
import sys

from .cli import main


def run() -> None:
    """Run one CLI call as the whole process, then end the process."""
    # An exact result may pass the 4,300 digits that Python 3.10.7 and later
    # convert between int and str by default; print it rather than fail.  The
    # input cannot make this unbounded: the kernel caps one argv value at
    # 128 KiB.  Older Pythons have no limit and no setter.  Like the exit
    # below, this is the process's choice: main() leaves the limit to its host.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    code = main()
    # A normal exit would now tear the interpreter down: run the atexit
    # handlers, collect and free every object (about 13,000 tracked after
    # one call) and every module, milliseconds of work that is wasted when
    # the operating system reclaims the whole process anyway.  os._exit skips
    # all of it; the one thing the teardown did that matters, flushing the
    # standard streams, is done here.  main() has already flushed stdout, or
    # reported why it could not and pointed it at devnull, so these flushes
    # find nothing left to write; a failure could not be reported anyway.
    # main() itself returns normally: it also runs inside long-lived
    # processes, whose exit is theirs to make.
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:  # None where the fd was closed at start-up
                stream.flush()
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
