"""Deterministic text renderings shared by the CLI and tests.

Three shapes for triangles (plain rows, CSV, JSON-record lines) and the
same three for coefficient sequences.  Values always render as exact
rationals: "p/q", or bare "p" for integers.  A record line is written
directly, not through ``json``, whose import would cost every records
call a few milliseconds: it holds only ints and the ASCII text of a
rational, so it is byte-for-byte what ``json.dumps`` makes of the same
dict.  ``parse_triangle_csv`` is the strict inverse of ``triangle_csv``
for composita triangles and Riordan arrays alike: it reads the base index
from the smallest row number and rejects a missing, repeated or
out-of-triangle entry, so a round trip reproduces a table exactly or
fails.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .series import parse_int, parse_rational
from .triangle import CompositaTable


def triangle_text(table: CompositaTable) -> str:
    """One row per line, entries space-separated, left-aligned."""
    return "\n".join(" ".join(str(v) for v in row) for row in table.rows)


def triangle_csv(table: CompositaTable) -> str:
    lines = ["n,k,value"]
    lines.extend(f"{n},{k},{v}" for n, k, v in table.entries())
    return "\n".join(lines)


def triangle_records(table: CompositaTable) -> str:
    return "\n".join(
        f'{{"n": {n}, "k": {k}, "value": "{v!s}"}}' for n, k, v in table.entries()
    )


def series_text(values: Sequence[Fraction]) -> str:
    return ",".join(str(v) for v in values)


def series_csv(values: Sequence[Fraction], start: int = 0) -> str:
    lines = ["n,value"]
    lines.extend(f"{n},{v}" for n, v in enumerate(values, start=start))
    return "\n".join(lines)


def series_records(values: Sequence[Fraction], start: int = 0) -> str:
    return "\n".join(
        f'{{"n": {n}, "value": "{v!s}"}}' for n, v in enumerate(values, start=start)
    )


def parse_triangle_csv(text: str) -> CompositaTable:
    """Rebuild a table from ``triangle_csv`` output; the smallest n read
    is its base index (1 for a composita triangle, 0 for a Riordan array)."""
    entries: dict[tuple[int, int], Fraction] = {}
    for line in text.strip().splitlines():
        line = line.strip()
        if not line or line == "n,k,value":
            continue
        n_text, k_text, value_text = line.split(",")
        key = (parse_int(n_text), parse_int(k_text))
        if key in entries:
            raise ValueError(f"entry {key} appears twice")
        entries[key] = parse_rational(value_text)
    if not entries:
        raise ValueError("no triangle entries found")
    base = min(n for n, _ in entries)
    if base not in (0, 1):
        raise ValueError(f"the first row must be n = 0 or n = 1, not n = {base}")
    rows = []
    for n in range(base, max(n for n, _ in entries) + 1):
        try:
            rows.append(tuple(entries.pop((n, k)) for k in range(base, n + 1)))
        except KeyError as exc:
            raise ValueError(f"entry {exc.args[0]} is missing") from None
    if entries:
        raise ValueError(f"entry {min(entries)} lies outside the triangle")
    return CompositaTable(rows, base=base)
