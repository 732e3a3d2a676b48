"""Seed derivation and size splitting for every sharded campaign.

A campaign's master seed expands into one seed per work unit (a chaos or
fleet campaign, a fuzz batch, a serve cell) through :func:`derive_seeds`,
and a campaign measured in items (programs, requests) splits into per-unit
sizes through :func:`split_sizes`.  The sequential drivers and the CLI's
sharded path both call these, so unit ``i`` gets the same seed and size
wherever it runs.
"""

from __future__ import annotations

import random


def derive_seeds(seed: int, count: int) -> list[int]:
    """Expand ``seed`` into ``count`` per-unit seeds.

    The list is prefix-stable: the first ``k`` seeds of a longer campaign
    are the seeds of the ``k``-unit campaign."""
    if count <= 0:
        raise ValueError("count must be positive")
    master = random.Random(seed)
    return [master.randrange(2 ** 32) for _ in range(count)]


def split_sizes(total: int, size: int) -> list[int]:
    """Split ``total`` items into units of ``size`` (the last may be short)."""
    if total <= 0:
        raise ValueError("total must be positive")
    if size <= 0:
        raise ValueError("size must be positive")
    full, rest = divmod(total, size)
    return [size] * full + ([rest] if rest else [])
