"""Small quadrature helpers shared by the analytic modules."""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["gauss_nodes"]


@functools.lru_cache(maxsize=32)
def gauss_nodes(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w
