"""The composita by literal enumeration of compositions: a ground truth
for the tests, and the CLI's ``oracle`` subcommand.

No production route runs it, so it lives apart from ``triangle``, which
every CLI call compiles; only the ``oracle`` handler imports this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import InsufficientOrder
from .series import PowerSeries
from .triangle import _require_composable

# The most composition prefixes composita_oracle may have to enumerate: a
# second or two of work (n = 1200, k = 1199 has 719,399).
ORACLE_MAX_PREFIXES = 10**6


def composita_oracle(f: PowerSeries, n: int, k: int) -> Fraction:
    """Sum of coefficient products over all k-part compositions of n.

    Exponential-time reference implementation; use it to cross-check the
    fast routes on small inputs only.  The enumeration visits at most
    C(n, k - 1) - 1 prefixes of compositions (all of them for a dense F),
    and a call where that bound exceeds ``ORACLE_MAX_PREFIXES`` raises
    ValueError before it starts.
    """
    _require_composable(f)
    if n > f.order:
        raise InsufficientOrder(f"series only known to order {f.order}, asked about n={n}")
    if not 1 <= k <= n:
        raise ValueError("the part count k must satisfy 1 <= k <= n")
    prefixes = comb(n, k - 1) - 1
    if prefixes > ORACLE_MAX_PREFIXES:
        raise ValueError(
            f"the oracle would enumerate up to {prefixes} composition prefixes for"
            f" n={n}, k={k}; its cap is {ORACLE_MAX_PREFIXES}"
        )
    coeffs = f.coeffs
    total = Fraction(0)
    # Depth first over the parts chosen so far, with an explicit stack: a
    # composition has up to n parts, more than the recursion limit allows.
    stack = [(n, k, Fraction(1))]  # (remaining sum, parts left, product so far)
    while stack:
        remaining, parts, acc = stack.pop()
        if parts == 1:
            total += acc * coeffs[remaining]
            continue
        # each of the remaining parts needs at least 1
        for part in range(1, remaining - parts + 2):
            c = coeffs[part]
            if c:
                stack.append((remaining - part, parts - 1, acc * c))
    return total
