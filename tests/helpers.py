"""Independent oracles and hypothesis strategies shared by the tests.

Everything in this module is deliberately computed without the package
under test: plain list convolutions, math.comb, and textbook recurrences.
When a test compares a package result against a helper, the two sides
share no code.  The reference identity sweeps at the end read the
package's table and series types (and the reciprocal reference multiplies
``PowerSeries``), but share no arithmetic with the checks they test, and
the reference triangle renderers print ``str(v)`` of the ``Fraction``
entries of ``table.rows``.  ``route`` and ``takes_packed_rows`` at the end
compute nothing: they pick or observe the route (packed rows or
``combine``) that the package takes for an integer table.
"""
from __future__ import annotations

import json
import math
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from unittest.mock import patch

from hypothesis import strategies as st

from compositae import CompositaTable, IdentityReport, PowerSeries, _packed, _rows
from compositae.errors import DivisionByNonUnit, InsufficientOrder


def gb(alpha: Fraction, n: int) -> Fraction:
    """Generalized binomial coefficient: alpha over n for rational alpha."""
    out = Fraction(1)
    for i in range(n):
        out *= alpha - i
    return out / math.factorial(n)


def convolve(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] += ai * bj
    return out


def power_coeffs(coeffs: list[Fraction], k: int, order: int) -> list[Fraction]:
    """Coefficients of (sum coeffs[n] x^n)^k by repeated convolution."""
    out = [Fraction(1)] + [Fraction(0)] * order
    base = [Fraction(c) for c in coeffs[: order + 1]]
    base += [Fraction(0)] * (order + 1 - len(base))
    for _ in range(k):
        out = convolve(out, base, order)
    return out


def compose_plain(r: PowerSeries, f: PowerSeries) -> PowerSeries:
    """R(F) by Horner's rule on PowerSeries arithmetic."""
    order = min(r.order, f.order)
    acc = PowerSeries.of([r.coeffs[order]], order=order)
    for k in range(order - 1, -1, -1):
        acc = acc * f.truncate(order) + PowerSeries.of([r.coeffs[k]], order=order)
    return acc


def catalan(n: int) -> Fraction:
    return Fraction(math.comb(2 * n, n), n + 1)


def bernoulli_list(count: int) -> list[Fraction]:
    """B_0..B_{count-1} from the defining recurrence sum C(n+1,j) B_j = 0."""
    values: list[Fraction] = []
    for n in range(count):
        if n == 0:
            values.append(Fraction(1))
            continue
        acc = Fraction(0)
        for j in range(n):
            acc += math.comb(n + 1, j) * values[j]
        values.append(-acc / (n + 1))
    return values


def fibonacci_list(count: int) -> list[int]:
    out = [1, 1]
    while len(out) < count:
        out.append(out[-1] + out[-2])
    return out[:count]


def exp_coeffs(order: int) -> list[Fraction]:
    return [Fraction(1, math.factorial(n)) for n in range(order + 1)]


small_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=4)

small_int_fraction = st.integers(min_value=-2, max_value=2).map(Fraction)


def series_strategy(
    min_order: int = 2,
    max_order: int = 8,
    zero_constant: bool = False,
    unit_linear: bool = False,
    coeffs=small_int_fraction,
):
    """Random PowerSeries; optionally force f(0)=0 and/or f(1)!=0."""

    def build(draw_result):
        order, values = draw_result
        values = list(values[: order + 1])
        values += [Fraction(0)] * (order + 1 - len(values))
        if zero_constant:
            values[0] = Fraction(0)
        if unit_linear and values[1] == 0:
            values[1] = Fraction(1)
        return PowerSeries(tuple(values))

    return st.tuples(
        st.integers(min_value=min_order, max_value=max_order),
        st.lists(coeffs, min_size=max_order + 1, max_size=max_order + 1),
    ).map(build)


# ---------------------------------------------------------------------------
# Reference identity sweeps: the per-term ``Fraction`` loops that the
# package's checks replaced with cross-multiplied integer sums.  They sweep
# in the same order and report the same first failure and entry count.


def reference_derivative(f: PowerSeries, tf: CompositaTable) -> IdentityReport:
    """n * T(n, m) = m * sum_{k=1}^{n-m+1} k f(k) T(n-k, m-1) for n >= m > 1."""
    name = "derivative"
    order = tf.order
    rng = f"1 < m <= n <= {order}"
    checked = 0
    for n in range(2, order + 1):
        for m in range(2, n + 1):
            checked += 1
            lhs = n * tf[n, m]
            rhs = Fraction(0)
            for k in range(1, n - m + 2):
                fk = f.coeffs[k]
                if fk:
                    rhs += k * fk * tf[n - k, m - 1]
            rhs *= m
            if lhs != rhs:
                return IdentityReport(name, rng, checked, ((n, m), lhs, rhs))
    return IdentityReport(name, rng, checked)


def reference_lambert(max_n: int, fault=None) -> IdentityReport:
    """(n+m)^(n-1) = sum_{k=0}^{n-1} C(n,k) (m+k)^(n-1) (-1)^(n-k+1)."""
    name = "lambert"
    rng = f"1 <= m <= n <= {max_n}"
    checked = 0
    for n in range(1, max_n + 1):
        for m in range(1, n + 1):
            checked += 1
            lhs = Fraction((n + m) ** (n - 1))
            rhs = Fraction(0)
            for k in range(0, n):
                sign = -1 if (n - k + 1) % 2 else 1
                rhs += sign * math.comb(n, k) * (m + k) ** (n - 1)
            if fault is not None and fault[:2] == (n, m):
                rhs += fault[2]
            if lhs != rhs:
                return IdentityReport(name, rng, checked, ((n, m), lhs, rhs))
    return IdentityReport(name, rng, checked)


def reference_funceq(g: CompositaTable, m: int, max_n: int, max_r: int) -> IdentityReport:
    """(r/(mn+r)) g((m+1)n+r, mn+r) = sum_{k=1}^{n} (k/n) g((m+1)n-k, mn) g(r+k, r)."""
    if m < 1:
        raise ValueError("the identity is stated for m >= 1")
    needed = (m + 1) * max_n + max_r
    if g.order < needed:
        raise InsufficientOrder(f"g is needed to order {needed}, got {g.order}")
    name = "funceq"
    rng = f"m={m}, 1 <= n <= {max_n}, 1 <= r <= min(n, {max_r})"
    checked = 0
    for n in range(1, max_n + 1):
        for r in range(1, min(n, max_r) + 1):
            checked += 1
            lhs = Fraction(r, m * n + r) * g[(m + 1) * n + r, m * n + r]
            rhs = Fraction(0)
            for k in range(1, n + 1):
                left_factor = g[(m + 1) * n - k, m * n]
                if left_factor:
                    rhs += Fraction(k, n) * left_factor * g[r + k, r]
            if lhs != rhs:
                return IdentityReport(name, rng, checked, ((n, r), lhs, rhs))
    return IdentityReport(name, rng, checked)


def reference_reciprocal(b: PowerSeries, table: CompositaTable, fault=None) -> IdentityReport:
    """The paper's O(N^4) negative-binomial sum for the triangle of x*A(x), A B = 1."""
    b0 = b.coeffs[0]
    if b0 == 0:
        raise DivisionByNonUnit("reciprocal needs a series with nonzero constant term")
    order = table.order
    depth = order - 1
    if b.order < depth:
        raise InsufficientOrder(f"b is needed to order {depth}, got {b.order}")
    name = "reciprocal"
    rng = f"1 <= m <= n <= {order}"

    power_coeffs: list[tuple[Fraction, ...]] = []
    if depth >= 1:
        base = b.truncate(depth)
        p = base
        power_coeffs.append(p.coeffs)
        for _ in range(depth - 1):
            p = p * base
            power_coeffs.append(p.coeffs)

    def b_power(d: int, j: int) -> Fraction:
        # [x^d] B(x)^j, with B^0 = 1
        if j == 0:
            return Fraction(1 if d == 0 else 0)
        return power_coeffs[j - 1][d]

    checked = 0
    for n, m, lhs in table.entries():
        checked += 1
        d = n - m
        rhs = Fraction(0)
        for k in range(1, d + 1):
            inner = Fraction(0)
            for j in range(0, k + 1):
                bp = b_power(d, j)
                if bp:
                    sign = -1 if (k - j) % 2 else 1
                    inner += sign * b0**-j * math.comb(k, j) * bp
            sign_k = -1 if k % 2 else 1
            rhs += sign_k * math.comb(m + k - 1, m - 1) * inner
        rhs = b0**-m if d == 0 else rhs / b0**m
        if fault is not None and fault[:2] == (n, m):
            rhs += fault[2]
        if lhs != rhs:
            return IdentityReport(name, rng, checked, ((n, m), lhs, rhs))
    return IdentityReport(name, rng, checked)


# ---------------------------------------------------------------------------
# Reference triangle renderers: ``str`` of each ``Fraction`` entry, read
# through the table's public ``rows``.  The package prints from its stored
# integer rows instead, and must give the same bytes.


def _reference_cells(table: CompositaTable):
    for n, row in enumerate(table.rows, table.base):
        for k, value in enumerate(row, table.base):
            yield n, k, str(value)


def reference_triangle_text(table: CompositaTable) -> str:
    return "\n".join(" ".join(str(v) for v in row) for row in table.rows)


def reference_triangle_csv(table: CompositaTable) -> str:
    return "\n".join(["n,k,value"] + [f"{n},{k},{v}" for n, k, v in _reference_cells(table)])


def reference_triangle_records(table: CompositaTable) -> str:
    return "\n".join(
        json.dumps({"n": n, "k": k, "value": v}) for n, k, v in _reference_cells(table)
    )


# ---------------------------------------------------------------------------
# Route forcing: the same integer input on packed rows and on ``combine``.


@contextmanager
def route(packed: bool):
    """Send every integer input with a nonzero term to packed rows (any
    slot width), or every input to ``combine``: the kernel's entry points
    (``_rows.recurrence``, behind every triangle and Riordan array, and
    ``_rows.product``, behind every composition) are the only callers of
    ``_rows.tries_packed``, so one patch of it routes every table."""
    tries = (lambda terms, rows, packs_input: terms > 0) if packed else (lambda *args: False)
    with patch.object(_rows, "tries_packed", tries), patch.object(_packed, "LIMIT", float("inf")):
        yield


def takes_packed_rows(build) -> bool:
    """Whether ``build()`` returns a table made on packed rows."""
    made = []

    def spy(real):
        def call(*args):
            rows = real(*args)
            made.append(rows is not None)
            return rows

        return call

    with ExitStack() as stack:
        for name in ("recurrence_rows", "product_rows"):
            stack.enter_context(patch.object(_packed, name, spy(getattr(_packed, name))))
        build()
    return any(made)
