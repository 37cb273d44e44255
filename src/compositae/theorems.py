"""The paper's closed forms and theorems, kept as checks on production tables.

No CLI subcommand imports this module: the CLI builds every triangle by
the recurrence, and these formulas are a second, independent route that
the tests compare it with.  This is the one module that knows which
catalog entries have a closed form: a catalog spec's ``closed_form``
property imports it and asks ``closed_form_formula``.

* Closed-form composita triangles for the catalog entries (polynomials,
  trigonometric and hyperbolic functions, logs and exponentials,
  Fibonacci, the radicals 1 - (1-x)^(1/m) and arcsin), looked up by
  ``closed_form_formula``.  Conventions fixed here: bracket-style
  first-kind Stirling values are signed,
  s(n, k) = (-1)^(n-k) * c(n, k) with c the unsigned cycle count; the
  cubic polynomial triangle carries c (not b) in its final factor;
  trigonometric triangles with a parity constraint return 0 outright
  when n - k is odd.
* The sum, product and Riordan-shift theorems, the Riordan array formula
  and the closed-form check,
  each comparing the production table it is given with the formula, so
  a planted fault is ``table.with_entry(...)``.  Each refuses a table of
  the wrong base (a triangle where it reads a Riordan array, or the
  reverse) before any work.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, Optional, Sequence

from .catalog import FunctionSpec, make_spec
from .combinatorics import (
    binomial,
    kronecker_delta,
    stirling_first_unsigned,
    stirling_second,
)
from .errors import InsufficientOrder, NoClosedForm, OrderMismatch
from .identities import IdentityReport, _powers, _scaled, _sweep
from .series import PowerSeries
from .triangle import CompositaTable, _require_base

ClosedForm = Callable[[int, int], Fraction]


def _signed_stirling_first(n: int, k: int) -> int:
    sign = -1 if (n - k) % 2 else 1
    return sign * stirling_first_unsigned(n, k)


# ---------------------------------------------------------------------------
# closed-form triangles


def _monomial_cf(m: Fraction) -> ClosedForm:
    m = int(m)

    def cf(n: int, k: int) -> Fraction:
        return Fraction(kronecker_delta(n, m * k))

    return cf


def _geometric_cf(n: int, k: int) -> Fraction:
    return Fraction(binomial(n - 1, k - 1))


def _x_exp_cf(n: int, k: int) -> Fraction:
    return Fraction(k ** (n - k), factorial(n - k))


def _log1p_cf(n: int, k: int) -> Fraction:
    return Fraction(factorial(k) * _signed_stirling_first(n, k), factorial(n))


def _expm1_cf(n: int, k: int) -> Fraction:
    return Fraction(factorial(k) * stirling_second(n, k), factorial(n))


def _poly2_cf(a: Fraction, b: Fraction) -> ClosedForm:
    def cf(n: int, k: int) -> Fraction:
        c = binomial(k, n - k)
        if not c:
            return Fraction(0)
        return c * a ** (2 * k - n) * b ** (n - k)

    return cf


def _poly3_cf(a: Fraction, b: Fraction, c: Fraction) -> ClosedForm:
    def cf(n: int, k: int) -> Fraction:
        acc = Fraction(0)
        for j in range(k + 1):
            c1 = binomial(k, j)
            c2 = binomial(j, n - k - j)
            if c1 and c2:
                acc += c1 * c2 * a ** (k - j) * b ** (2 * j + k - n) * c ** (n - k - j)
        return acc

    return cf


def _poly13_cf(a: Fraction, c: Fraction) -> ClosedForm:
    def cf(n: int, k: int) -> Fraction:
        if (3 * k - n) % 2:
            return Fraction(0)
        i = (3 * k - n) // 2
        cm = binomial(k, i)
        if not cm:
            return Fraction(0)
        return cm * a ** i * c ** ((n - k) // 2)

    return cf


def _poly124_cf(a: Fraction, b: Fraction, d: Fraction) -> ClosedForm:
    def cf(n: int, k: int) -> Fraction:
        acc = Fraction(0)
        for j in range(k + 1):
            c1 = binomial(j, n - 4 * k + 3 * j)
            c2 = binomial(k, j)
            if c1 and c2:
                acc += (
                    c1
                    * c2
                    * a ** (4 * k - n - 2 * j)
                    * b ** (n - 4 * k + 3 * j)
                    * d ** (k - j)
                )
        return acc

    return cf


def _poly4_cf(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> ClosedForm:
    def cf(n: int, k: int) -> Fraction:
        acc = Fraction(0)
        for j in range(k + 1):
            cj = binomial(k, j)
            if not cj:
                continue
            for i in range(j, n - k + j + 1):
                c1 = binomial(j, i - j)
                c2 = binomial(k - j, n - 3 * (k - j) - i)
                if c1 and c2:
                    acc += (
                        cj
                        * c1
                        * c2
                        * a ** (2 * j - i)
                        * b ** (i - j)
                        * c ** (4 * (k - j) + i - n)
                        * d ** (n - 3 * (k - j) - i)
                    )
        return acc

    return cf


def _sin_cf(n: int, k: int) -> Fraction:
    if (n - k) % 2:
        return Fraction(0)
    total = 0
    for m in range(k // 2 + 1):
        sign = -1 if ((n + k) // 2 - m) % 2 else 1
        total += sign * binomial(k, m) * (2 * m - k) ** n
    return Fraction(2 * total, 2 ** k * factorial(n))


def _x_cos_cf(n: int, k: int) -> Fraction:
    if n == k:
        return Fraction(1)
    if (n - k) % 2:
        return Fraction(0)
    total = 0
    for j in range((k - 1) // 2 + 1):
        total += binomial(k, j) * (2 * j - k) ** (n - k)
    sign = -1 if ((n - k) // 2) % 2 else 1
    return Fraction(2 * sign * total, 2 ** k * factorial(n - k))


def _tan_cf(n: int, k: int) -> Fraction:
    if (n - k) % 2:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(k, n + 1):
        sign = -1 if ((n + k) // 2 + j) % 2 else 1
        c = binomial(j - 1, k - 1)
        if not c:
            continue
        acc += (
            sign
            * c
            * stirling_second(n, j)
            * factorial(j)
            * Fraction(2) ** (n - j - 1)
        )
    return 2 * acc / factorial(n)


def _arctan_cf(n: int, k: int) -> Fraction:
    # On the live parity class the two prefactor summands coincide, so the
    # prefactor collapses to 2 * (-1)^((n-k)/2); off it the value is 0.
    if (n - k) % 2:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(k, n + 1):
        c = binomial(n - 1, j - 1)
        if not c:
            continue
        acc += Fraction(2 ** j, factorial(j)) * c * _signed_stirling_first(j, k)
    sign = -1 if ((n - k) // 2) % 2 else 1
    return sign * Fraction(factorial(k), 2 ** k) * acc


def _sinh_cf(n: int, k: int) -> Fraction:
    total = 0
    for i in range(k + 1):
        sign = -1 if i % 2 else 1
        total += sign * binomial(k, i) * (k - 2 * i) ** n
    return Fraction(total, 2 ** k * factorial(n))


def _x_cosh_cf(n: int, k: int) -> Fraction:
    total = 0
    for i in range(k + 1):
        total += binomial(k, i) * (k - 2 * i) ** (n - k)
    return Fraction(total, 2 ** k * factorial(n - k))


def _radical_cf(m: Fraction) -> ClosedForm:
    # F^k = sum_j C(k, j) (-1)^j (1-x)^(j/m), so T(n, k) is
    # sum_{j=1}^{k} (-1)^(j+n) C(k, j) C(j/m, n), where
    # C(j/m, n) = prod_{i<n} (j - i*m) / (m^n n!); falling[j][n] is that product
    m = int(m)
    falling: dict[int, list[int]] = {}

    def product(j: int, n: int) -> int:
        row = falling.setdefault(j, [1])
        while len(row) <= n:
            row.append(row[-1] * (j - (len(row) - 1) * m))
        return row[n]

    def cf(n: int, k: int) -> Fraction:
        total = sum((-1) ** j * binomial(k, j) * product(j, n) for j in range(1, k + 1))
        return Fraction((-1) ** n * total, m ** n * factorial(n))

    return cf


# coefficients in a of c_n(a), where e^(a * arcsin x) = sum_n c_n(a) x^n / n!:
# c_0 = 1, c_1 = a and c_n = c_(n-2) * (a^2 + (n-2)^2)
_ARCSIN_POLYS: list[tuple[int, ...]] = [(1,), (0, 1)]


def _arcsin_cf(n: int, k: int) -> Fraction:
    # T(n, k) = (k!/n!) [a^k] c_n(a), the central factorial numbers
    if (n - k) % 2:
        return Fraction(0)
    polys = _ARCSIN_POLYS
    while len(polys) <= n:
        prev, square = polys[-2], (len(polys) - 2) ** 2
        polys.append(tuple(square * c + d for c, d in zip(prev + (0, 0), (0, 0) + prev)))
    return Fraction(factorial(k) * polys[n][k], factorial(n))


def _fib_cf(n: int, m: int) -> Fraction:
    acc = 0
    for j in range(n - m + 1):
        c1 = binomial(j, n - m - j)
        c2 = binomial(m + j - 1, m - 1)
        if c1 and c2:
            acc += c1 * c2
    return Fraction(acc)


# catalog entries without parameters, and builders taking the parameters
# of those with them; an entry in neither (sin_over_x, a raw list) has no
# closed form.  No other module records which have one.
_FIXED: dict[str, ClosedForm] = {
    "geometric": _geometric_cf,
    "x_exp": _x_exp_cf,
    "log1p": _log1p_cf,
    "expm1": _expm1_cf,
    "sin": _sin_cf,
    "x_cos": _x_cos_cf,
    "tan": _tan_cf,
    "arctan": _arctan_cf,
    "sinh": _sinh_cf,
    "x_cosh": _x_cosh_cf,
    "fib": _fib_cf,
    "arcsin": _arcsin_cf,
}
_BUILDERS: dict[str, Callable[..., ClosedForm]] = {
    "monomial": _monomial_cf,
    "poly2": _poly2_cf,
    "poly3": _poly3_cf,
    "poly13": _poly13_cf,
    "poly124": _poly124_cf,
    "poly4": _poly4_cf,
    "radical": _radical_cf,
}


def closed_form_formula(name: str, parameters: Sequence[Fraction] = ()) -> Optional[ClosedForm]:
    """The closed-form triangle of catalog entry ``name`` with
    ``parameters``, or None when the paper gives none for it."""
    if name in _BUILDERS:
        return _BUILDERS[name](*parameters)
    return _FIXED.get(name)


def default_instances() -> list[FunctionSpec]:
    """Canonical parameter choices of the catalog entries, for the tests' sweeps."""
    one = Fraction(1)
    two = Fraction(2)
    return [
        make_spec("monomial", (one,)),
        make_spec("monomial", (two,)),
        make_spec("monomial", (Fraction(3),)),
        make_spec("geometric"),
        make_spec("x_exp"),
        make_spec("log1p"),
        make_spec("expm1"),
        make_spec("poly2", (one, one)),
        make_spec("poly3", (one, one, one)),
        make_spec("poly13", (one, one)),
        make_spec("poly124", (one, one, two)),
        make_spec("poly4", (one, one, one, two)),
        make_spec("sin"),
        make_spec("x_cos"),
        make_spec("tan"),
        make_spec("arctan"),
        make_spec("sinh"),
        make_spec("x_cosh"),
        make_spec("sin_over_x"),
        make_spec("fib"),
        make_spec("arcsin"),
        make_spec("radical", (two,)),
    ]


def catalog_closed_form(spec: FunctionSpec, n: int, k: int) -> Fraction:
    """Evaluate the entry's closed-form triangle at (n, k)."""
    formula = _formula_of(spec)
    if not 1 <= k <= n:
        raise ValueError("closed forms are defined for 1 <= k <= n")
    return formula(n, k)


def _formula_of(spec: FunctionSpec) -> ClosedForm:
    formula = closed_form_formula(spec.name, spec.parameters)
    if formula is None:
        raise NoClosedForm(f"{spec.label()} has no closed-form composita")
    return formula


# ---------------------------------------------------------------------------
# theorems


def check_sum_identity(
    tf: CompositaTable, tg: CompositaTable, t_sum: CompositaTable
) -> IdentityReport:
    """The paper's sum theorem for the triangle of F(x) + G(x):

        T(n, k) = F(n, k) + G(n, k)
                  + sum_{j=1}^{k-1} C(k, j) sum_{i=j}^{n-k+j} F(i, j) G(n-i, k-j),

    the binomial expansion of (F + G)^k read off at x^n.  Every entry of
    ``t_sum`` is compared with the formula over the triangles of F and G.
    """
    _require_base("check_sum_identity", 1, tf, tg, t_sum)
    if not tf.order == tg.order == t_sum.order:
        raise OrderMismatch(f"orders differ: {tf.order}, {tg.order}, {t_sum.order}")

    def formula(n: int, k: int) -> Fraction:
        rhs = tf[n, k] + tg[n, k]
        for j in range(1, k):
            cross = sum(tf[i, j] * tg[n - i, k - j] for i in range(j, n - k + j + 1))
            rhs += binomial(k, j) * cross
        return rhs

    return _sweep("sum", f"1 <= k <= n <= {tf.order}", t_sum, formula)


def check_product_identity(
    tf: CompositaTable, b: PowerSeries, t_prod: CompositaTable
) -> IdentityReport:
    """The paper's product theorem for the triangle of F(x) * B(x):

        T(n, k) = sum_{i=k}^{n} F(i, k) [x^(n-i)] B(x)^k.

    Every entry of ``t_prod`` is compared with the formula, a convolution
    of column k of F's triangle with B^k over one denominator; B is needed
    to order ``tf.order - 1``.
    """
    _require_base("check_product_identity", 1, tf, t_prod)
    order = tf.order
    if t_prod.order != order:
        raise OrderMismatch(f"orders differ: {order} vs {t_prod.order}")
    if b.order < order - 1:
        raise InsufficientOrder(f"b is needed to order {order - 1}, got {b.order}")
    columns = [_scaled(tf.column(k)) for k in range(1, order + 1)]
    powers = _powers(b, order, order)

    def formula(n: int, k: int) -> Fraction:
        (f_nums, f_den), (p_nums, p_den), d = columns[k - 1], powers[k], n - k
        return Fraction(sum(f_nums[i] * p_nums[d - i] for i in range(d + 1)), f_den * p_den)

    return _sweep("product", f"1 <= k <= n <= {order}", t_prod, formula)


def check_riordan_identity(rio: CompositaTable, t_xf: CompositaTable) -> IdentityReport:
    """The (F, xF) Riordan array is the triangle of xF shifted by one:
    R(n, k) = T_xF(n + 1, k + 1) for 0 <= k <= n <= ``rio.order``.

    ``rio`` is the array (base 0) and ``t_xf`` the triangle of xF.
    """
    _require_base("check_riordan_identity", 0, rio)
    _require_base("check_riordan_identity", 1, t_xf)
    if t_xf.order < rio.order + 1:
        raise InsufficientOrder(
            f"the triangle of xF is needed to order {rio.order + 1}, got {t_xf.order}"
        )
    rng = f"0 <= k <= n <= {rio.order}"
    return _sweep("riordan", rng, rio, lambda n, k: t_xf[n + 1, k + 1])


def check_riordan_formula(rio: CompositaTable, g: PowerSeries, tf: CompositaTable) -> IdentityReport:
    """The paper's Riordan array of the pair (G, F) from F's triangle:

        R(n, 0) = g(n),  R(n, k) = sum_{i=0}^{n-k} g(i) T_F(n-i, k),

    column k of G(x) * F(x)^k read off at x^n.  Every entry of ``rio``
    (base 0) is compared with the formula, a convolution of G with column
    k of F's triangle over one denominator; G is needed to ``rio.order``.
    """
    _require_base("check_riordan_formula", 0, rio)
    _require_base("check_riordan_formula", 1, tf)
    order = rio.order
    if tf.order != order:
        raise OrderMismatch(f"orders differ: {order} vs {tf.order}")
    if g.order < order:
        raise InsufficientOrder(f"g is needed to order {order}, got {g.order}")
    g_nums, g_den = _scaled(g.coeffs[: order + 1])
    columns = [_scaled(tf.column(k)) for k in range(1, order + 1)]

    def formula(n: int, k: int) -> Fraction:
        if k == 0:
            return Fraction(g_nums[n], g_den)
        (f_nums, f_den), d = columns[k - 1], n - k
        return Fraction(sum(g_nums[i] * f_nums[d - i] for i in range(d + 1)), g_den * f_den)

    return _sweep("riordan_formula", f"0 <= k <= n <= {order}", rio, formula)


def check_closed_form(spec: FunctionSpec, table: CompositaTable) -> IdentityReport:
    """The catalog's closed form against ``table``, the triangle of the
    spec's series: lhs is the table's entry, rhs the closed form's."""
    _require_base("check_closed_form", 1, table)
    formula = _formula_of(spec)
    rng = f"{spec.label()}, 1 <= k <= n <= {table.order}"
    return _sweep("closed_form", rng, table, formula)
