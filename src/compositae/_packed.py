"""Integer rows packed into one big integer (Kronecker substitution).

Where every scalar and row of a linear combination is an integer, a row
can be packed into one ``int`` with a fixed-width signed slot per entry:
a scalar times a row, or a sum of rows, is then one big-integer operation
instead of one per entry.  There are two routines: ``recurrence_rows``
behind ``_rows.recurrence``, the Riordan recurrence, which builds both
``riordan_build``'s arrays and ``composita_from_series``'s triangles, and
``product_rows`` behind ``calculus.composita_compose``, the product of two
lower-triangular tables.  Each returns the same canonical ``(nums, 1)``
rows that ``_rows.combine`` would, or None where an entry could need a
slot wider than 64 bytes (``combine`` is faster there), and the caller
then runs ``combine``.

Only ``_rows`` and ``calculus`` import this module, and only for integer
inputs with enough terms per row and enough work (``_rows.tries_packed``),
so that other calls do not compile it.
"""

from __future__ import annotations

import sys
from itertools import compress
from operator import mul
from typing import Sequence

from ._rows import Row, Scalars

# Entries must be below this: slots wider than 64 bytes never beat
# combine (crossover in CHANGES.md).
LIMIT = 1 << 511
_WORDS = sys.byteorder == "little"


class Slots:
    """Rows packed with one signed slot of ``size`` bytes per entry.

    Entry j of a row sits at bit ``8 * size * j``.  ``Slots(bound)`` holds
    entries up to ``bound`` in absolute value: its slots carry the bits of
    ``bound`` plus a sign bit (at least 8 bytes, a machine word, which is
    unpacked in C).  A row packs as the signed sum of its slots.
    Unpacking adds the bias 2^(8 * size - 1) to every slot, so that no
    slot borrows from the next, and flips each slot's top bit back to read
    it as signed.
    """

    __slots__ = ("size", "_sign")

    def __init__(self, bound: int) -> None:
        self.size = max(8, (bound.bit_length() + 8) // 8)
        self._sign = bytes(self.size - 1) + b"\x80"

    def _bias(self, width: int) -> int:
        return int.from_bytes(self._sign * width, "little")

    def pack(self, nums: Sequence[int]) -> int:
        """The sum of ``nums[j] * 2^(8 * size * j)``."""
        size = self.size
        bias = self._bias(len(nums))
        # two's-complement slots; flipping each top bit adds the bias
        data = b"".join([v.to_bytes(size, "little", signed=True) for v in nums])
        return (int.from_bytes(data, "little") ^ bias) - bias

    def unpack(self, packed: int, width: int) -> tuple[int, ...]:
        """The ``width`` entries of a packed row."""
        size = self.size
        bias = self._bias(width)
        data = ((packed + bias) ^ bias).to_bytes(size * width, "little")
        if size == 8 and _WORDS:
            return tuple(memoryview(data).cast("q"))
        from_bytes = int.from_bytes
        return tuple([from_bytes(data[i : i + size], "little", signed=True) for i in range(0, len(data), size)])


def recurrence_rows(g_terms: Scalars, f_terms: Scalars, n_max: int) -> tuple[Row, ...] | None:
    """Rows 0..n_max of the Riordan array (G, F) of an integer G and F,
    from their nonzero ``(i, value, 1)`` terms.

    Packed row n is g(n) plus the sum of f(i) times packed row n - i,
    shifted one slot; u(n) = |g(n)| + sum |f(i)| * u(n - i) bounds every
    entry of row n.
    """
    seeds = {i: num for i, num, _ in g_terms}
    fs = [0] * f_terms[-1][0]
    for i, num, _ in f_terms:
        fs[i - 1] = num
    sizes = list(map(abs, fs))
    bound = []
    for n in range(n_max + 1):
        u = abs(seeds.get(n, 0)) + sum(map(mul, sizes, reversed(bound)))
        if u >= LIMIT:
            return None
        bound.append(u)
    slots = Slots(max(bound))
    shift = 8 * slots.size
    packed = []
    rows = []
    for n in range(n_max + 1):
        acc = seeds.get(n, 0) + sum(compress(map(mul, fs, reversed(packed)), fs))
        rows.append((slots.unpack(acc, n + 1), 1))
        packed.append(acc << shift)
    return tuple(rows)


def product_rows(left: Sequence[Row], right: Sequence[Row]) -> tuple[Row, ...] | None:
    """Rows of the lower-triangular product of two integer tables: row n
    is the sum of ``left[n][k]`` times ``right[k]``, as wide as
    ``left[n]``.  Row n is bounded by the sum of |left[n][k]| times the
    largest entry of ``right[k]``; the slots also hold ``right``."""
    peaks = [max(map(abs, nums)) for nums, _ in right]
    bound = max(max(peaks), *(sum(map(mul, map(abs, nums), peaks)) for nums, _ in left))
    if bound >= LIMIT:
        return None
    slots = Slots(bound)
    packed = [slots.pack(nums) for nums, _ in right]
    return tuple(
        (slots.unpack(sum(compress(map(mul, nums, packed), nums)), len(nums)), 1) for nums, _ in left
    )
