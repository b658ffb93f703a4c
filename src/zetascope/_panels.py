"""The composite Gauss-Legendre panel rule with one doubling check, shared by
the mollifier's integrals and Selberg's integrated explicit formula."""

import numpy as np

from .errors import QuadratureFailureError

_RUN_VALUES = 1 << 18  # integrand values the panel rule holds at once


def _panel_rule(integrand, edges, panels: int, *, order: int, tol: float, message: str):
    """Composite order-point Gauss-Legendre rule on the panel edges
    edges(panels) and edges(2 panels): returns the finer sum, or raises
    QuadratureFailureError(message) when the two differ by more than tol.

    integrand maps nodes to values, nodes on the last axis (several values
    per node give a sum of that shape). Runs of whole panels hold at most
    about _RUN_VALUES values, so neither the panel count nor the values per
    node raise the memory peak.
    """
    x, w = np.polynomial.legendre.leggauss(order)

    def total(e):
        run = max(1, _RUN_VALUES // (order * np.size(integrand(e[:1]))))
        lo, hi = e[:-1], e[1:]
        acc = 0.0
        for i in range(0, len(lo), run):
            a, b = lo[i : i + run], hi[i : i + run]
            half = 0.5 * (b - a)
            nodes = (0.5 * (a + b)[:, None] + half[:, None] * x).ravel()
            acc = acc + integrand(nodes) @ (half[:, None] * w).ravel()
        return acc

    coarse, fine = total(edges(panels)), total(edges(2 * panels))
    diff = float(np.max(np.abs(coarse - fine)))
    if diff > tol:
        raise QuadratureFailureError(f"{message}: panel doubling moved the sum by {diff:.3g} > {tol:g}")
    return fine
