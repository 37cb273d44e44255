"""Deterministic text renderings shared by the CLI and tests.

Three shapes for triangles (plain rows, CSV, JSON-record lines) and the
same three for coefficient sequences.  Values always render as exact
rationals: "p/q", or bare "p" for integers, the text of ``str(Fraction)``.
A triangle is printed from its stored integer rows, and a sequence from
one integer row ``(nums, den)`` (``_rows``), such as a series'
``int_row``, through the one routine ``_texts``: a row whose denominator
is 1 prints its numerators, any other row reduces each entry with one
gcd, and no ``Fraction`` is built.  A record line is written
directly, not through ``json``, whose import would cost every records
call a few milliseconds: it holds only ints and the ASCII text of a
rational, so it is byte-for-byte what ``json.dumps`` makes of the same
dict.  The module writes and never reads: the strict CSV reader that the
tests round-trip ``triangle_csv`` through is ``parse_triangle_csv`` in
``tests/helpers.py``, so no CLI call compiles it.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Iterator, Sequence

from ._rows import Row
from .triangle import CompositaTable


def _texts(nums: Sequence[int], den: int) -> Iterable[str]:
    """``str(Fraction(v, den))`` for each v in ``nums``."""
    if den == 1:
        return map(str, nums)
    gcds = [gcd(v, den) for v in nums]
    return [str(v // g) if g == den else f"{v // g}/{den // g}" for v, g in zip(nums, gcds)]


def _cells(table: CompositaTable) -> Iterator[tuple[int, int, str]]:
    """(n, k, text) of every entry, row by row."""
    for n, row in enumerate(table.int_rows, table.base):
        yield from ((n, k, text) for k, text in enumerate(_texts(*row), table.base))


def triangle_text(table: CompositaTable) -> str:
    """One row per line, entries space-separated, left-aligned."""
    return "\n".join(" ".join(_texts(*row)) for row in table.int_rows)


def triangle_csv(table: CompositaTable) -> str:
    return "\n".join(["n,k,value"] + [f"{n},{k},{v}" for n, k, v in _cells(table)])


def triangle_records(table: CompositaTable) -> str:
    return "\n".join(f'{{"n": {n}, "k": {k}, "value": "{v}"}}' for n, k, v in _cells(table))


def series_text(row: Row) -> str:
    """The entries of ``row``, comma-separated."""
    return ",".join(_texts(*row))


def series_csv(row: Row, start: int = 0) -> str:
    """The entries of ``row`` under the header n,value, numbered from ``start``."""
    lines = ["n,value"]
    lines.extend(f"{n},{v}" for n, v in enumerate(_texts(*row), start=start))
    return "\n".join(lines)


def series_records(row: Row, start: int = 0) -> str:
    return "\n".join(
        f'{{"n": {n}, "value": "{v}"}}' for n, v in enumerate(_texts(*row), start=start)
    )
