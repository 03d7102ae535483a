"""Shared fixtures: cached small fields, the textbook GF(2) rank oracle and an
extended-run gate."""

from __future__ import annotations

import os

import numpy as np
import pytest

from apnlab.gf2n import Field, field_new

_FIELDS: dict[int, Field] = {}


def get_field(n: int) -> Field:
    """Default-modulus field, cached across tests (tables are immutable)."""
    if n not in _FIELDS:
        _FIELDS[n] = field_new(n)
    return _FIELDS[n]


def naive_rank(dense: np.ndarray) -> int:
    """Textbook GF(2) Gaussian elimination on a dense 0/1 array."""
    a = np.array(dense, dtype=np.uint8) & 1
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        pivots = np.nonzero(a[r:, c])[0]
        if pivots.size == 0:
            continue
        p = r + int(pivots[0])
        a[[r, p]] = a[[p, r]]
        hit = np.nonzero(a[:, c])[0]
        hit = hit[hit != r]
        a[hit] ^= a[r]
        r += 1
        if r == rows:
            break
    return r


@pytest.fixture
def field8() -> Field:
    return get_field(8)


def extended_enabled() -> bool:
    return os.environ.get("APNLAB_EXTENDED", "") == "1"


requires_extended = pytest.mark.skipif(
    not extended_enabled(),
    reason="release-gating check; set APNLAB_EXTENDED=1 to run",
)
