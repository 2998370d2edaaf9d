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


def equal_panels(a, b, n_panels) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints and half-widths of n_panels >= 1 equal panels on [a, b].

    a, b and n_panels broadcast together; the panels of the rows are laid
    end to end.  The edges are np.linspace's, i * (b - a)/n + a with the
    last one b, and every panel of a row has the row's first half-width.
    """
    a, b, n = np.broadcast_arrays(
        np.asarray(a, dtype=float), np.asarray(b, dtype=float), np.asarray(n_panels, dtype=np.intp)
    )
    a, b, n = a.ravel(), b.ravel(), n.ravel()
    step = (b - a) / n
    first = np.cumsum(n) - n
    row = np.repeat(np.arange(n.size), n)
    i = np.arange(row.size) - first[row]
    sa, aa = step[row], a[row]
    lo = i * sa + aa
    hi = (i + 1) * sa + aa
    hi[first + n - 1] = b
    half = 0.5 * (hi[first] - lo[first])
    return 0.5 * (lo + hi), half[row]


def gl_panels(a: float, b: float, n_panels: int, order: int = 24) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [a, b] split into n_panels equal
    panels, bitwise gl_from_panels(*equal_panels(a, b, n_panels), order)."""
    # equal_panels' edges i * (b - a)/n + a, the last one b, and its one
    # half-width, made once each and with no per-panel gathers; the same
    # products and sums, so the same bits
    x0, w0 = _leggauss(order)
    n = int(n_panels)
    edges = np.arange(n + 1) * ((b - a) / n) + a
    edges[-1] = b
    half = 0.5 * (edges[1] - edges[0])
    return (half * x0 + (0.5 * (edges[:-1] + edges[1:]))[:, None]).ravel(), np.tile(half * w0, n)


def gl_from_panels(mid: np.ndarray, half: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights of the panels with midpoints mid and
    half-widths half, panel after panel."""
    x0, w0 = _leggauss(order)
    # (panels, order) arrays are laid out panel after panel as they are
    # made, so .ravel() copies nothing
    xs = (half[:, None] * x0 + mid[:, None]).ravel()
    ws = (half[:, None] * w0).ravel()
    return xs, ws


# quadrature points per block of gl_sums, so that each float temporary of a
# block takes 64 kB (a row with more points is a block of its own)
BLOCK = 1 << 13


def gl_sums(counts, panels, summand, order: int) -> list[float]:
    """Gauss-Legendre sums over many rows of panels, one flat array at a time.

    Row i has counts[i] panels; panels(sl) gives the midpoints and
    half-widths of the panels of the rows sl, row after row (equal_panels
    or graded_panels laid end to end).  summand(s, w, rows) gives the terms
    at the points s with weights w, point j lying in row rows[j].  Rows go
    through summand in blocks of at most BLOCK points, and each row's sum is
    np.sum over its own contiguous slice: numpy's pairwise sum of a slice is
    bit for bit the sum that an array of that row alone would give, which a
    row-wise reduction of a padded grid would not be.
    """
    points = [order * int(c) for c in counts]
    out: list[float] = []
    start = 0
    while start < len(points):
        stop, acc = start + 1, points[start]
        while stop < len(points) and acc + points[stop] <= BLOCK:
            acc += points[stop]
            stop += 1
        s, w = gl_from_panels(*panels(slice(start, stop)), order)
        vals = summand(s, w, np.repeat(np.arange(start, stop), points[start:stop]))
        lo = 0
        for p in points[start:stop]:
            out.append(float(vals[lo : lo + p].sum()))
            lo += p
        start = stop
    return out


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


def graded_panels(a: float, b: float, density, min_panels: int = 1) -> tuple[list, list]:
    """Midpoints and half-widths of panels on [a, b] adapted to a local
    frequency density, as lists of floats.

    density(x) estimates radians per unit length near x; each panel spans
    roughly one cycle so a fixed order resolves the oscillation.  Fewer than
    min_panels panels give way to min_panels equal ones (equal_panels).
    """
    edges = [a]
    x = a
    while x < b:
        f = max(density(x), 1e-9)
        step = min(2 * np.pi / f, (b - a))
        x = min(x + step, b)
        edges.append(x)
    if len(edges) - 1 < min_panels:
        mid, half = equal_panels(a, b, min_panels)
        return mid.tolist(), half.tolist()
    spans = list(zip(edges[:-1], edges[1:]))
    return [0.5 * (lo + hi) for lo, hi in spans], [0.5 * (hi - lo) for lo, hi in spans]


def central_difference(f: Callable, order: int, h: float) -> Callable:
    """Central finite-difference derivative of the given order with step h
    (scalar input); f itself for order 0."""
    if order == 0:
        return f
    coeffs = [(-1) ** i * math.comb(order, i) for i in range(order + 1)]

    def df(y: float):
        return sum(c * f(y + (order / 2 - i) * h) for i, c in enumerate(coeffs)) / h**order

    return df
