"""Acceptance gate: ten end-to-end checks over the whole library.

Every comparison is exact (Fraction equality, zero tolerance).  Each
criterion is one test function that prints a single PASS line once its
assertions hold, so ``pytest tests/test_acceptance.py -v -s`` yields one
pass/fail line per criterion.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from compositae import (
    PowerSeries,
    catalog_series,
    check_associativity,
    check_closed_form,
    check_derivative_identity,
    check_funceq_identity,
    check_inverse_identity,
    check_lambert_identity,
    check_riordan_identity,
    compose_series,
    composita_from_powers,
    composita_from_series,
    composita_oracle,
    inverse_series,
    make_spec,
    riordan_apply,
    riordan_build,
    solve_functional_equation,
)
from compositae.combinatorics import (
    binomial,
    stirling_first_unsigned,
    stirling_second,
)
from helpers import bernoulli_list, catalan, fibonacci_list, gb

SEED = 20260816


def one_plus_x(order: int) -> PowerSeries:
    return PowerSeries.of([1, 1], order=order)


def test_criterion_01_pascal_triangle():
    order = 10
    table = composita_from_series(catalog_series(make_spec("geometric"), order), order)
    for n in range(1, order + 1):
        for k in range(1, n + 1):
            assert table[n, k] == binomial(n - 1, k - 1)
    print("PASS criterion 1: x/(1-x) triangle equals C(n-1,k-1) at N=10")


def test_criterion_02_three_constructions_agree():
    rng = random.Random(SEED)
    order = 9
    for _ in range(25):
        coeffs = [Fraction(0)] + [
            Fraction(rng.randint(-2, 2)) for _ in range(order)
        ]
        f = PowerSeries.of(coeffs, order=order)
        by_recurrence = composita_from_series(f, order)
        by_powers = composita_from_powers(f, order)
        assert by_recurrence == by_powers
        for n in range(1, order + 1):
            for k in range(1, n + 1):
                assert composita_oracle(f, n, k) == by_recurrence[n, k]
    print("PASS criterion 2: oracle, recurrence, and power constructions agree "
          "on 25 random series (n <= 9)")


def test_criterion_03_one_plus_x_family():
    order = 8
    closed = {
        -1: lambda n, k: Fraction(k, 2 * k - n) * binomial(2 * k - n, n - k),
        0: lambda n, k: Fraction(binomial(k, n - k)),
        1: lambda n, k: Fraction(binomial(n - 1, k - 1)),
        2: lambda n, k: Fraction(k, 2 * n - k) * binomial(2 * n - k, n - k),
        3: lambda n, k: Fraction(k, 3 * n - 2 * k) * binomial(3 * n - 2 * k, n - k),
    }
    solutions = {}
    for m in (-1, 0, 1, 2, 3):
        g = one_plus_x(order)
        solutions[m] = solve_functional_equation(g, m, order)
        table = solutions[m].a_table
        for n in range(1, table.order + 1):
            for k in range(1, n + 1):
                if m == -1 and 2 * k - n < 1:
                    continue  # the closed form degenerates off this band
                assert table[n, k] == closed[m](n, k)

    # m = -1 cells the formula misses: cross-check the whole triangle
    # against the composita of x*(1+sqrt(1+4x))/2 built from binomial series.
    root = [gb(Fraction(1, 2), n) * Fraction(4) ** n for n in range(order + 1)]
    a = [(1 + root[0]) / 2] + [v / 2 for v in root[1:]]
    reference = composita_from_series(PowerSeries.of(a, order=order).times_x(), order + 1)
    assert solutions[-1].a_table == reference

    seq = {m: solutions[m].a_series.coeffs for m in solutions}
    assert seq[-1] == (1, 1) + tuple(
        (-1) ** (n - 1) * catalan(n - 1) for n in range(2, order + 1)
    )
    assert seq[0] == (1, 1) + (0,) * (order - 1)
    assert seq[1] == (1,) * (order + 1)  # A000012
    assert seq[2] == tuple(catalan(n) for n in range(order + 1))  # A000108
    assert seq[3] == (1, 1, 3, 12, 55, 273, 1428, 7752, 43263)  # A001764
    print("PASS criterion 3: A = 1 + x*A^m compositae and sequences for m in -1..3")


def test_criterion_04_bernoulli_numbers():
    order = 6
    expm1 = PowerSeries.of(
        [Fraction(0)] + [Fraction(1, math.factorial(n)) for n in range(1, order + 1)],
        order=order,
    )
    outer = PowerSeries.of(
        [Fraction((-1) ** k, k + 1) for k in range(order + 1)], order=order
    )
    a = compose_series(outer, composita_from_series(expm1, order))
    scaled = tuple(a.coeffs[n] * math.factorial(n) for n in range(order + 1))
    assert scaled == (
        Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
        Fraction(-1, 30), Fraction(0), Fraction(1, 42),
    )
    assert list(scaled) == bernoulli_list(order + 1)

    x = PowerSeries.of([0, 1], order=order + 1)
    expm1_long = PowerSeries.of(
        [Fraction(0)] + [Fraction(1, math.factorial(n)) for n in range(1, order + 2)],
        order=order + 1,
    )
    assert (x / expm1_long).truncate(order) == a
    print("PASS criterion 4: x/(e^x - 1) via composition matches division; "
          "a(n)*n! gives the Bernoulli numbers through n=6")


def test_criterion_05_fibonacci_closed_form():
    order = 8

    def closed(n: int, m: int) -> Fraction:
        return sum(
            (binomial(k, n - m - k) * binomial(m + k - 1, m - 1)
             for k in range(0, n - m + 1)),
            Fraction(0),
        )

    column = [closed(n, 1) for n in range(1, order + 1)]
    assert column == [1, 1, 2, 3, 5, 8, 13, 21]
    assert column == fibonacci_list(order)

    table = composita_from_series(catalog_series(make_spec("fib"), order), order)
    for n in range(1, order + 1):
        for m in range(1, n + 1):
            assert table[n, m] == closed(n, m)
    print("PASS criterion 5: x/(1-x-x^2) closed form gives 1,1,2,3,5,8,13,21 "
          "and the full triangle")


def test_criterion_06_lambert_inverse():
    order = 10
    f = catalog_series(make_spec("x_exp"), order)
    tf = composita_from_series(f, order)
    inv = inverse_series(tf)
    for n in range(1, order + 1):
        assert inv.coeffs[n] == Fraction((-n) ** (n - 1), math.factorial(n))
    report = check_inverse_identity(tf, composita_from_series(inv, order))
    assert report.verified
    print("PASS criterion 6: inverse of x*e^x is (-n)^(n-1)/n! through n=10 "
          "and the pair multiplies to the delta table")


def test_criterion_07_closed_form_catalog():
    trig = {"sin", "x_cos", "tan", "arctan", "sinh", "x_cosh"}
    table_entries = [
        spec
        for spec in (
            make_spec("monomial", (Fraction(1),)),
            make_spec("monomial", (Fraction(2),)),
            make_spec("monomial", (Fraction(3),)),
            make_spec("geometric"),
            make_spec("x_exp"),
            make_spec("log1p"),
            make_spec("expm1"),
            make_spec("poly2", (Fraction(1), Fraction(1))),
            make_spec("poly3", (Fraction(1), Fraction(1), Fraction(1))),
            make_spec("poly13", (Fraction(1), Fraction(1))),
            make_spec("poly124", (Fraction(1), Fraction(1), Fraction(2))),
            make_spec("poly4", (Fraction(1), Fraction(1), Fraction(1), Fraction(2))),
            make_spec("sin"),
            make_spec("x_cos"),
            make_spec("tan"),
            make_spec("arctan"),
            make_spec("sinh"),
            make_spec("x_cosh"),
        )
    ]
    for spec in table_entries:
        order = 8 if spec.name in trig else 10
        table = composita_from_series(catalog_series(spec, order), order)
        report = check_closed_form(spec, table)
        assert report.verified, (spec.label(), report.first_failure)

    # Stirling sign conventions: ln(1+x) carries the signed first kind,
    # e^x - 1 the second kind.
    log1p = make_spec("log1p")
    expm1 = make_spec("expm1")
    for n in range(1, 9):
        for k in range(1, n + 1):
            signed = (-1) ** (n - k) * stirling_first_unsigned(n, k)
            assert log1p.closed_form(n, k) == Fraction(
                math.factorial(k) * signed, math.factorial(n)
            )
            assert expm1.closed_form(n, k) == Fraction(
                math.factorial(k) * stirling_second(n, k), math.factorial(n)
            )

    # The cubic's published closed form reads b where it needs c; with the
    # letters taken literally it must fail on any instance with b != c.
    a, b, c = Fraction(1), Fraction(2), Fraction(3)

    def literal_typo(n: int, k: int) -> Fraction:
        acc = Fraction(0)
        for j in range(k + 1):
            c1 = binomial(k, j)
            c2 = binomial(j, n - k - j)
            if c1 and c2:
                acc += c1 * c2 * a ** (k - j) * b ** (2 * j + k - n) * b ** (n - k - j)
        return acc

    spec = make_spec("poly3", (a, b, c))
    truth = composita_from_series(catalog_series(spec, 6), 6)
    assert check_closed_form(spec, truth).verified
    mismatch = next(
        (n, k) for n, k, value in truth.entries() if literal_typo(n, k) != value
    )
    assert mismatch == (3, 1)
    print("PASS criterion 7: all catalog closed forms verify "
          "(one corrected letter, signed Stirling); the literal variant fails")


def test_criterion_08_radical_and_arcsin():
    order = 10
    cube = composita_from_series(catalog_series(make_spec("radical", [3]), order), order)
    for n in range(1, order + 1):
        assert cube[n, 1] == -((-1) ** n) * gb(Fraction(1, 3), n)

    arcsin = composita_from_series(catalog_series(make_spec("arcsin"), 9), 9)
    expected = {
        1: Fraction(1), 2: Fraction(0), 3: Fraction(1, 6), 4: Fraction(0),
        5: Fraction(3, 40), 6: Fraction(0), 7: Fraction(15, 336), 8: Fraction(0),
        9: Fraction(35, 1152),
    }
    for n, value in expected.items():
        assert arcsin[n, 1] == value
    print("PASS criterion 8: radical:3 (1-(1-x)^(1/3)) column through n=10 and "
          "arcsin column through n=9")


def test_criterion_09_identity_sweeps():
    triples = [
        ("geometric", "sin", "x_exp"),
        ("poly2", "geometric", "expm1"),
        ("tan", "poly2", "sinh"),
    ]
    for names in triples:
        tables = [
            composita_from_series(catalog_series(make_spec(n, _params(n)), 8), 8)
            for n in names
        ]
        assert check_associativity(*tables).verified
    fault_tables = [
        composita_from_series(catalog_series(make_spec(n, _params(n)), 8), 8)
        for n in triples[0]
    ]
    assert check_associativity(
        *fault_tables, fault=(4, 1, Fraction(1))
    ).status == "counterexample"

    for name in ("geometric", "sin", "x_exp", "tan"):
        f = catalog_series(make_spec(name, _params(name)), 10)
        assert check_derivative_identity(f, composita_from_series(f, 10)).verified
    f = catalog_series(make_spec("geometric"), 10)
    tf = composita_from_series(f, 10)
    assert check_derivative_identity(
        f, tf.with_entry(5, 2, tf[5, 2] + 1)
    ).status == "counterexample"

    fx = catalog_series(make_spec("x_exp"), 10)
    tfx = composita_from_series(fx, 10)
    tinv = composita_from_series(inverse_series(tfx), 10)
    assert check_inverse_identity(tfx, tinv).verified
    assert check_inverse_identity(
        tfx, tinv.with_entry(4, 2, tinv[4, 2] + 1)
    ).status == "counterexample"

    assert check_lambert_identity(10).verified
    assert check_lambert_identity(10, fault=(7, 3, Fraction(1))).status == "counterexample"

    max_n = max_r = 6
    families = {
        "1/(1-x)": [Fraction(1)] * 40,
        "(e^x-1)/x": [Fraction(1, math.factorial(n + 1)) for n in range(40)],
        "1+x": [Fraction(1), Fraction(1)] + [Fraction(0)] * 38,
    }
    for coeffs in families.values():
        for m in (1, 2, 3):
            needed = (m + 1) * max_n + max_r
            g = PowerSeries.of(coeffs, order=needed - 1)
            table = composita_from_series(g.times_x(), needed)
            assert check_funceq_identity(table, m, max_n, max_r).verified
    g = PowerSeries.of(families["1/(1-x)"], order=13)
    table = composita_from_series(g.times_x(), 14)
    bad = table.with_entry(3, 2, table[3, 2] + 1)
    assert check_funceq_identity(bad, 1, 6, 2).status == "counterexample"
    print("PASS criterion 9: associativity, derivative, inverse, lambert, and "
          "funceq sweeps verify; every checker catches an injected fault")


def _params(name: str) -> tuple[Fraction, ...]:
    return (Fraction(1), Fraction(1)) if name == "poly2" else ()


def test_criterion_10_riordan_arrays():
    order = 8
    g_series = {
        1: PowerSeries.of([1] * (order + 1), order=order),
        2: PowerSeries.of(
            [Fraction(1, math.factorial(n)) for n in range(order + 1)], order=order
        ),
        3: PowerSeries.of(
            [Fraction(0)] + [Fraction(1, n) for n in range(1, order + 1)], order=order
        ),
        4: PowerSeries.of([catalan(n) for n in range(order + 1)], order=order),
    }
    f_series = {
        1: PowerSeries.of([0] + [1] * order, order=order),
        2: PowerSeries.of(
            [Fraction(0)]
            + [Fraction(1, math.factorial(n - 1)) for n in range(1, order + 1)],
            order=order,
        ),
        3: PowerSeries.of(
            [Fraction(0)]
            + [Fraction((-1) ** (n - 1), n) for n in range(1, order + 1)],
            order=order,
        ),
        4: PowerSeries.of(
            [Fraction(0)] + [catalan(n - 1) for n in range(1, order + 1)], order=order
        ),
    }

    def weight(q: int, i: int) -> Fraction:
        if q == 1:
            return Fraction(1)
        if q == 2:
            return Fraction(1, math.factorial(i))
        if q == 3:
            return Fraction(0) if i == 0 else Fraction(1, i)
        return catalan(i)

    def f_power_coeff(r: int, p: int, k: int) -> Fraction:
        if p < k:
            return Fraction(0)
        if r == 1:
            return Fraction(binomial(p - 1, k - 1))
        if r == 2:
            return Fraction(k ** (p - k), math.factorial(p - k))
        if r == 3:
            signed = (-1) ** (p - k) * stirling_first_unsigned(p, k)
            return Fraction(math.factorial(k) * signed, math.factorial(p))
        return Fraction(k, p) * binomial(2 * p - k - 1, p - 1)

    for r in range(1, 5):
        for q in range(1, 5):
            rio = riordan_build(g_series[q], f_series[r])
            for n in range(order + 1):
                for k in range(n + 1):
                    if k == 0:
                        want = g_series[q].coeffs[n]
                    else:
                        want = sum(
                            (weight(q, i) * f_power_coeff(r, n - i, k)
                             for i in range(0, n - k + 1)),
                            Fraction(0),
                        )
                    assert rio[n, k] == want, (r, q, n, k)

    # the three cells with one-term closed forms
    pascal = riordan_build(g_series[1], f_series[1])
    exp_pair = riordan_build(g_series[2], f_series[2])
    cat_pair = riordan_build(g_series[4], f_series[4])
    for n in range(order + 1):
        for k in range(n + 1):
            assert pascal[n, k] == binomial(n, k)
            assert exp_pair[n, k] == Fraction((k + 1) ** (n - k), math.factorial(n - k))
            assert cat_pair[n, k] == Fraction(k + 1, n + 1) * binomial(2 * n - k, n - k)

    from compositae import default_instances

    for spec in default_instances():
        # the triangle of xF by the powers route: both builders run one recurrence
        f = catalog_series(spec, 10)
        shifted = composita_from_powers(f.times_x(), 11)
        rio = riordan_build(f, f.times_x().truncate(10))
        assert check_riordan_identity(rio, shifted).verified, spec.label()

    rng = random.Random(SEED)
    for _ in range(10):
        g = PowerSeries.of([Fraction(rng.randint(-2, 2)) for _ in range(11)], order=10)
        f = PowerSeries.of(
            [Fraction(0)] + [Fraction(rng.randint(-2, 2)) for _ in range(10)], order=10
        )
        b = PowerSeries.of([Fraction(rng.randint(-2, 2)) for _ in range(11)], order=10)
        tf = composita_from_series(f, 10)
        direct = g * compose_series(b, tf)
        assert riordan_apply(riordan_build(g, f), b) == direct
    print("PASS criterion 10: all 16 multiplier/function cells, the shifted-"
          "triangle identity for every catalog entry, and 10 random transforms")
