"""Independent checks of each job's stdout.

The output is parsed back from its ``--format`` and compared with a
result computed by a route the timed path does not take:

* triangles: the catalog's closed form where it is cheap, otherwise
  ``composita_from_powers`` (coefficients read off the powers F^k);
* series: plain ``PowerSeries`` arithmetic, with R(F) evaluated by
  Horner's rule; inverses must satisfy F(A) = x, reciprocals A*B = 1,
  and solutions A - G(x*A^m) = 0;
* identity sweeps: exit 0 and status ``verified``.

``check_job`` returns ``None`` when the output is right and a one-line
reason otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction

from compositae.catalog import catalog_series, parse_function_spec
from compositae.series import PowerSeries
from compositae.triangle import composita_from_powers

# Closed forms that cost less than building the triangle; for the others
# (tan, arctan and the parameterised polynomials sum over compositions)
# the powers route is the cheaper independent check.
_CHEAP_CLOSED_FORMS = {
    "geometric", "fib", "monomial", "poly2", "x_exp", "log1p", "expm1",
    "sin", "sinh", "x_cos", "x_cosh",
}


def _options(argv: list[str]) -> dict[str, list[str]]:
    opts: dict[str, list[str]] = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        opts.setdefault(flag, []).append(value)
    return opts


def parse_triangle(text: str, fmt: str, base: int) -> list[list[Fraction]]:
    """Rows of a lower triangle, first row at index ``base``."""
    if fmt == "triangle":
        return [[Fraction(v) for v in line.split(" ")] for line in text.splitlines()]
    entries = {}
    if fmt == "csv":
        lines = text.splitlines()
        if lines[0] != "n,k,value":
            raise ValueError("missing csv header")
        for line in lines[1:]:
            n, k, value = line.split(",")
            entries[int(n), int(k)] = Fraction(value)
    else:
        for line in text.splitlines():
            record = json.loads(line)
            entries[record["n"], record["k"]] = Fraction(record["value"])
    order = max(n for n, _ in entries)
    rows = [[entries[n, k] for k in range(base, n + 1)] for n in range(base, order + 1)]
    if sum(len(row) for row in rows) != len(entries):
        raise ValueError("entries outside the triangle")
    return rows


def parse_series(text: str, fmt: str, start: int) -> list[Fraction]:
    """Coefficients of a sequence whose first index is ``start``."""
    if fmt == "triangle":
        return [Fraction(v) for v in text.strip().split(",")]
    if fmt == "csv":
        lines = text.splitlines()
        if lines[0] != "n,value":
            raise ValueError("missing csv header")
        pairs = [line.split(",") for line in lines[1:]]
    else:
        pairs = [(r["n"], r["value"]) for r in map(json.loads, text.splitlines())]
    if [int(n) for n, _ in pairs] != list(range(start, start + len(pairs))):
        raise ValueError("sequence indices are not consecutive")
    return [Fraction(v) for _, v in pairs]


def _series(designator: str, order: int) -> PowerSeries:
    return catalog_series(parse_function_spec(designator), order)


def horner(outer: PowerSeries, inner: PowerSeries, order: int) -> PowerSeries:
    """R(F(x)) to ``order`` for F with F(0) = 0, by Horner's rule."""
    f = inner.truncate(order)
    acc = PowerSeries.zero(order)
    for c in reversed(outer.coeffs[: order + 1]):
        acc = acc * f
        acc = PowerSeries((acc.coeffs[0] + c,) + acc.coeffs[1:])
    return acc


def _expected_composita(designator: str, n: int) -> list[list[Fraction]]:
    spec = parse_function_spec(designator)
    if spec.name in _CHEAP_CLOSED_FORMS:
        cf = spec.closed_form
        return [[cf(i, k) for k in range(1, i + 1)] for i in range(1, n + 1)]
    rows = composita_from_powers(catalog_series(spec, n), n).rows
    return [list(row) for row in rows]


def _riordan_rows(g: PowerSeries, f: PowerSeries, n: int) -> list[list[Fraction]]:
    """R(n, k) = [x^n] G F^k from plain series products."""
    columns = []
    power = PowerSeries.one(n)
    for _ in range(n + 1):
        columns.append((g * power).coeffs)
        power = power * f
    return [[columns[k][i] for k in range(i + 1)] for i in range(n + 1)]


def _check_composita(opts, text, fmt):
    n = int(opts["--n"][0])
    rows = parse_triangle(text, fmt, 1)
    return rows == _expected_composita(opts["--fn"][0], n) or "triangle differs from its closed form or powers"


def _check_compose(opts, text, fmt):
    n = int(opts["--n"][0])
    got = parse_series(text, fmt, 0)
    want = horner(_series(opts["--r"][0], n), _series(opts["--fn"][0], n), n)
    return got == list(want.coeffs) or "R(F) differs from Horner's rule"


def _check_inverse(opts, text, fmt):
    n = int(opts["--order"][0])
    a = PowerSeries.of([0] + parse_series(text, fmt, 1))
    if a.order != n:
        return "inverse has the wrong length"
    identity = PowerSeries.of([0, 1], order=n)
    return horner(_series(opts["--fn"][0], n), a, n) == identity or "F(A) != x"


def _check_reciprocal(opts, text, fmt):
    n = int(opts["--order"][0])
    rows = parse_triangle(text, fmt, 1)
    if len(rows) != n:
        return "triangle has the wrong order"
    a = PowerSeries(tuple(row[0] for row in rows))
    if a * _series(opts["--b"][0], n - 1) != PowerSeries.one(n - 1):
        return "A*B != 1"
    want = composita_from_powers(a.times_x(), n).rows
    return rows == [list(row) for row in want] or "triangle is not the composita of x*A"


def _check_solve(opts, text, fmt):
    n, m = int(opts["--order"][0]), int(opts["--m"][0])
    a = PowerSeries.of(parse_series(text, fmt, 0))
    if a.order != n:
        return "solution has the wrong length"
    base = a if m >= 0 else PowerSeries.one(n) / a
    inner = (base ** abs(m)).times_x().truncate(n)
    residual = a - horner(_series(opts["--g"][0], n), inner, n)
    return residual == PowerSeries.zero(n) or "A - G(x*A^m) != 0"


def _check_riordan(opts, text, fmt):
    n = int(opts["--n"][0])
    g, f = _series(opts["--g"][0], n), _series(opts["--fn"][0], n)
    if "--b" in opts:
        got = parse_series(text, fmt, 0)
        want = g * horner(_series(opts["--b"][0], n), f, n)
        return got == list(want.coeffs) or "G*B(F) differs from the series route"
    rows = parse_triangle(text, fmt, 0)
    return rows == _riordan_rows(g, f, n) or "array differs from G*F^k"


def _check_verify(opts, text, fmt):
    status = json.loads(text)["status"] if fmt == "records" else text.strip()
    return status == "verified" or f"sweep reported {status!r}"


_CHECKS = {
    "composita": _check_composita,
    "compose": _check_compose,
    "inverse": _check_inverse,
    "reciprocal": _check_reciprocal,
    "solve": _check_solve,
    "riordan": _check_riordan,
    "verify": _check_verify,
}


def check_job(argv: list[str], code: int, stdout: bytes) -> str | None:
    """``None`` if the job exited 0 with a correct output, else why not."""
    if code != 0:
        return f"exit code {code}"
    opts = _options(argv)
    fmt = opts.get("--format", ["triangle"])[0]
    try:
        verdict = _CHECKS[argv[0]](opts, stdout.decode(), fmt)
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        return f"unparseable output: {exc!r}"
    return None if verdict is True else verdict
