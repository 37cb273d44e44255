"""Run all six identity sweeps at configurable ranges.

Usage:
    python3 scripts/identity_sweeps.py [--max-n 10] [--json]
    python3 scripts/identity_sweeps.py --demonstrate-faults

The fault mode re-runs each checker against a corrupted input and prints
the counterexample it finds, demonstrating that each comparison is live.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from compositae import (
    IdentityReport,
    PowerSeries,
    catalog_series,
    check_associativity,
    check_derivative_identity,
    check_funceq_identity,
    check_inverse_identity,
    check_lambert_identity,
    check_reciprocal_identity,
    composita_from_series,
    inverse_series,
    make_spec,
    reciprocal_composita,
)


@dataclass(frozen=True)
class SweepConfig:
    max_n: int = 10
    funceq_max_n: int = 6
    funceq_m: int = 2
    as_json: bool = False


def _table(name: str, order: int):
    return composita_from_series(catalog_series(make_spec(name), order), order)


def _funceq_table(m: int, max_n: int, max_r: int):
    needed = (m + 1) * max_n + max_r
    g = PowerSeries.of([Fraction(1)] * needed, order=needed - 1)
    return composita_from_series(g.times_x(), needed)


def _reciprocal_inputs(order: int):
    b = catalog_series(make_spec("sin_over_x"), order - 1)
    return b, reciprocal_composita(b, order)


def sweeps(config: SweepConfig) -> list[IdentityReport]:
    n = config.max_n
    assoc = check_associativity(
        _table("geometric", min(n, 8)), _table("sin", min(n, 8)), _table("x_exp", min(n, 8))
    )
    f = catalog_series(make_spec("geometric"), n)
    deriv = check_derivative_identity(f, composita_from_series(f, n))
    fx = catalog_series(make_spec("x_exp"), n)
    tfx = composita_from_series(fx, n)
    inverse = check_inverse_identity(
        tfx, composita_from_series(inverse_series(fx, tfx), n)
    )
    lambert = check_lambert_identity(n)
    funceq = check_funceq_identity(
        _funceq_table(config.funceq_m, config.funceq_max_n, config.funceq_max_n),
        config.funceq_m,
        config.funceq_max_n,
        config.funceq_max_n,
    )
    reciprocal = check_reciprocal_identity(*_reciprocal_inputs(n))
    return [assoc, deriv, inverse, lambert, funceq, reciprocal]


def fault_demonstrations(config: SweepConfig) -> list[IdentityReport]:
    order = min(config.max_n, 8)
    tables = [_table(name, order) for name in ("geometric", "sin", "x_exp")]
    assoc = check_associativity(*tables, fault=(4, 1, Fraction(1)))
    f = catalog_series(make_spec("geometric"), order)
    tf = composita_from_series(f, order)
    deriv = check_derivative_identity(f, tf.with_entry(5, 2, tf[5, 2] + 1))
    fx = catalog_series(make_spec("x_exp"), order)
    tfx = composita_from_series(fx, order)
    tinv = composita_from_series(inverse_series(fx, tfx), order)
    inverse = check_inverse_identity(tfx, tinv.with_entry(4, 2, tinv[4, 2] + 1))
    lambert = check_lambert_identity(config.max_n, fault=(3, 2, Fraction(1)))
    g_table = _funceq_table(1, 6, 2)
    funceq = check_funceq_identity(
        g_table.with_entry(3, 2, g_table[3, 2] + 1), 1, 6, 2
    )
    reciprocal = check_reciprocal_identity(
        *_reciprocal_inputs(order), fault=(5, 3, Fraction(1))
    )
    return [assoc, deriv, inverse, lambert, funceq, reciprocal]


def render(reports: list[IdentityReport], as_json: bool) -> int:
    worst = 0
    for report in reports:
        if as_json:
            print(json.dumps(report.to_record()))
        elif report.verified:
            print(f"{report.identity_name:<14} {report.parameter_range:<32} verified")
        else:
            params, lhs, rhs = report.first_failure
            where = ",".join(str(p) for p in params)
            print(
                f"{report.identity_name:<14} {report.parameter_range:<32} "
                f"counterexample at ({where}): lhs={lhs} rhs={rhs}"
            )
        if not report.verified:
            worst = 3
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=10)
    parser.add_argument("--funceq-m", type=int, default=2)
    parser.add_argument("--funceq-max-n", type=int, default=6)
    parser.add_argument("--json", action="store_true")
    parser.add_argument(
        "--demonstrate-faults",
        action="store_true",
        help="corrupt one input per checker and show the counterexamples",
    )
    args = parser.parse_args(argv)
    config = SweepConfig(
        max_n=args.max_n,
        funceq_max_n=args.funceq_max_n,
        funceq_m=args.funceq_m,
        as_json=args.json,
    )
    if args.demonstrate_faults:
        reports = fault_demonstrations(config)
        code = render(reports, config.as_json)
        # finding the planted faults is the expected outcome here
        return 0 if code == 3 and all(not r.verified for r in reports) else 1
    return render(sweeps(config), config.as_json)


if __name__ == "__main__":
    sys.exit(main())
