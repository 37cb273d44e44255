"""The package's public names: ``compositae.__all__`` lists each one once,
in sorted order, and every listed name resolves.  Adding or removing one
changes the count below on purpose."""

from __future__ import annotations

import compositae


def test_every_public_name_resolves():
    missing = [name for name in compositae.__all__ if not hasattr(compositae, name)]
    assert missing == []
    namespace: dict = {}
    exec("from compositae import *", namespace)
    assert set(compositae.__all__) <= set(namespace)


def test_public_names_are_sorted_and_unique():
    assert list(compositae.__all__) == sorted(set(compositae.__all__))


def test_public_name_count():
    assert len(compositae.__all__) == 43
    assert "parse_series" not in compositae.__all__  # raw_coefficients is the one grammar
