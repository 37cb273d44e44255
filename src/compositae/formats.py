"""Deterministic text renderings shared by the CLI and tests.

Three shapes for triangles (plain rows, CSV, JSON-record lines) and the
same three for coefficient sequences.  Values always render as exact
rationals: "p/q", or bare "p" for integers.  The CSV parsers are strict
inverses of the writers so round-trips reproduce tables exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Protocol, Sequence

from .riordan import RiordanTable
from .triangle import CompositaTable


class _Triangle(Protocol):
    BASE_INDEX: int

    @property
    def order(self) -> int: ...

    def entries(self): ...

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]: ...


def triangle_text(table: _Triangle) -> str:
    """One row per line, entries space-separated, left-aligned."""
    return "\n".join(" ".join(str(v) for v in row) for row in table.rows)


def triangle_csv(table: _Triangle) -> str:
    lines = ["n,k,value"]
    lines.extend(f"{n},{k},{v}" for n, k, v in table.entries())
    return "\n".join(lines)


def triangle_records(table: _Triangle) -> str:
    import json  # only this format needs it; the CLI starts without it

    return "\n".join(
        json.dumps({"n": n, "k": k, "value": str(v)})
        for n, k, v in table.entries()
    )


def series_text(values: Sequence[Fraction]) -> str:
    return ",".join(str(v) for v in values)


def series_csv(values: Sequence[Fraction], start: int = 0) -> str:
    lines = ["n,value"]
    lines.extend(f"{n},{v}" for n, v in enumerate(values, start=start))
    return "\n".join(lines)


def series_records(values: Sequence[Fraction], start: int = 0) -> str:
    import json  # only this format needs it; the CLI starts without it

    return "\n".join(
        json.dumps({"n": n, "value": str(v)})
        for n, v in enumerate(values, start=start)
    )


def _parse_csv_entries(text: str) -> dict[tuple[int, int], Fraction]:
    entries: dict[tuple[int, int], Fraction] = {}
    for line in text.strip().splitlines():
        line = line.strip()
        if not line or line == "n,k,value":
            continue
        n_text, k_text, value_text = line.split(",")
        entries[(int(n_text), int(k_text))] = Fraction(value_text)
    return entries


def parse_composita_csv(text: str) -> CompositaTable:
    """Rebuild a (1,1)-based triangle from ``triangle_csv`` output."""
    entries = _parse_csv_entries(text)
    if not entries:
        raise ValueError("no triangle entries found")
    order = max(n for n, _ in entries)
    rows = tuple(
        tuple(entries[(n, k)] for k in range(1, n + 1)) for n in range(1, order + 1)
    )
    return CompositaTable(rows)


def parse_riordan_csv(text: str) -> RiordanTable:
    """Rebuild a (0,0)-based triangle from ``triangle_csv`` output."""
    entries = _parse_csv_entries(text)
    if not entries:
        raise ValueError("no triangle entries found")
    order = max(n for n, _ in entries)
    rows = tuple(
        tuple(entries[(n, k)] for k in range(0, n + 1)) for n in range(0, order + 1)
    )
    return RiordanTable(rows)
