"""Shared quadrature grids: trapezoid on log axes and panelled Gauss-Legendre,
and the central-difference derivative."""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np


@functools.lru_cache(maxsize=32)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def log_axis_grid(u_lo: float, u_hi: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes y = exp(u) and weights for int f(y) d^x y on (0, inf).

    Trapezoid rule in u = log y; spectrally accurate for integrands smooth
    and decaying on the log axis.
    """
    n = int(np.ceil((u_hi - u_lo) / h)) + 1
    u = u_lo + h * np.arange(n)
    w = np.full(n, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return np.exp(u), w


def gl_panels(a: float, b: float, n_panels: int, order: int = 24) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [a, b] split into equal panels."""
    x0, w0 = _leggauss(order)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    xs = (mid[:, None] + half * x0[None, :]).ravel()
    ws = np.broadcast_to(half * w0, (n_panels, len(w0))).ravel()
    return xs, ws


def gl_rows(lo: np.ndarray, hi: np.ndarray):
    """Per-row Gauss-Legendre rules on [lo_i, hi_i], 16 panels of order 24,
    in blocks of 32 rows: yields (sl, t, w) with t, w of shape (block, 384)
    for the rows lo[sl], hi[sl].  Blocks bound the temporaries a vectorised
    integrand makes: for a whole 757-point Gram grid each complex one would
    take 4.6 MB."""
    s, ws = gl_panels(0.0, 1.0, 16, order=24)
    for i in range(0, len(lo), 32):
        sl = slice(i, i + 32)
        span = (hi[sl] - lo[sl])[:, None]
        yield sl, lo[sl, None] + span * s, span * ws


def gl_panels_graded(
    a: float, b: float, density, order: int = 16, min_panels: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Panelled GL with panel widths adapted to a local frequency density.

    density(x) estimates radians per unit length near x; each panel spans
    roughly one cycle so a fixed order resolves the oscillation.
    """
    edges = [a]
    x = a
    while x < b:
        f = max(density(x), 1e-9)
        step = min(2 * np.pi / f, (b - a))
        x = min(x + step, b)
        edges.append(x)
    if len(edges) - 1 < min_panels:
        return gl_panels(a, b, min_panels, order)
    x0, w0 = _leggauss(order)
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        xs.append(mid + half * x0)
        ws.append(half * w0)
    return np.concatenate(xs), np.concatenate(ws)


def central_difference(f: Callable, order: int, h: float) -> Callable:
    """Central finite-difference derivative of the given order with step h
    (scalar input); f itself for order 0."""
    if order == 0:
        return f
    coeffs = [(-1) ** i * math.comb(order, i) for i in range(order + 1)]

    def df(y: float):
        return sum(c * f(y + (order / 2 - i) * h) for i, c in enumerate(coeffs)) / h**order

    return df
