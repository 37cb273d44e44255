"""Sweep every closed-form catalog entry against the triangle recurrence.

Usage:
    python3 scripts/verify_catalog.py [--poly-order 10] [--trig-order 8]

Prints one line per entry and exits 1 if any closed form disagrees with
the recurrence anywhere in the swept triangle.
"""

from __future__ import annotations

import argparse
import sys

from compositae import (
    catalog_series,
    check_closed_form,
    composita_from_series,
    default_instances,
)

TRIG = {"sin", "x_cos", "tan", "arctan", "sinh", "x_cosh", "arcsin"}


def run(poly_order: int, trig_order: int) -> int:
    failures = 0
    for spec in default_instances():
        order = trig_order if spec.name in TRIG else poly_order
        # tested first: sin_over_x, the one entry without a closed form, has
        # no triangle (its constant term is 1)
        if spec.closed_form is None:
            print(f"{spec.label():<16} N={order:<3} skipped (no closed form)")
            continue
        table = composita_from_series(catalog_series(spec, order), order)
        report = check_closed_form(spec, table)
        if report.verified:
            print(f"{spec.label():<16} N={order:<3} ok")
        else:
            failures += 1
            (n, k), truth, claimed = report.first_failure
            print(
                f"{spec.label():<16} N={order:<3} MISMATCH at ({n},{k}): "
                f"closed form {claimed}, recurrence {truth}"
            )
    print(f"{failures} mismatching entr{'y' if failures == 1 else 'ies'}")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--poly-order", type=int, default=10)
    parser.add_argument("--trig-order", type=int, default=8)
    args = parser.parse_args(argv)
    return run(args.poly_order, args.trig_order)


if __name__ == "__main__":
    sys.exit(main())
