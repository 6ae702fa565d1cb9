"""Exact scalar draws for the search path.

Breeding makes many single draws from short option tuples: a layer width,
an activation, a grid dimension, a mutation operator, a parent.
``Generator.choice`` with ``replace=True`` makes each of them with one
underlying draw — ``integers(0, n)`` when uniform, one ``random()`` searched
against the cumulative weights when weighted — but spends most of the call
on argument handling (array conversion, shape products, probability
validation).  The functions here make that same underlying draw and nothing
else, so they return what ``Generator.choice`` returns and leave the
generator in the same state; the seeded run digests in the tests pin that.

Draws *without* replacement (tournaments, feature subsets) stay on
``Generator.choice(..., replace=False)``: its Floyd-plus-shuffle has no
cheaper exact equivalent.

This module imports nothing from the package, so both :mod:`repro.core` and
:mod:`repro.hardware` can use it.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence, TypeVar

import numpy as np

__all__ = ["pick", "pick_weighted", "weights_cdf"]

T = TypeVar("T")


def pick(rng: np.random.Generator, options: Sequence[T]) -> T:
    """One uniform draw from ``options``: ``rng.choice(options)``, as the element itself."""
    return options[int(rng.integers(0, len(options)))]


def weights_cdf(probabilities) -> list[float]:
    """The cumulative distribution ``Generator.choice`` searches for ``p=probabilities``.

    Built as numpy builds it — a running sum divided by its last entry — so
    :func:`pick_weighted` lands on the same index for the same draw.
    """
    cdf = np.asarray(probabilities, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def pick_weighted(rng: np.random.Generator, cdf: list[float]) -> int:
    """One weighted index draw: ``rng.choice(len(cdf), p=probabilities)``.

    ``cdf`` comes from :func:`weights_cdf`; the probabilities are not
    re-validated here, so callers pass non-negative weights that sum to one.
    """
    return bisect_right(cdf, rng.random())
