"""Andrew's monotone chain over every point: the convex-hull oracle.

:func:`repro.spatial.geometry.convex_hull_indices` drops the points strictly
inside the octagon of the eight extremes before running the same chain; this
is the chain over the whole input, with no prefilter, which the production
function must reproduce index for index and in the same order.
"""

from __future__ import annotations

import numpy as np


def convex_hull_indices(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Indices of the convex hull of ``(xs, ys)``, counter-clockwise.

    Points are sorted by ``(x, y)`` (ties by index), exact duplicates collapse
    onto their first occurrence, collinear points on hull edges are dropped,
    and degenerate inputs reduce to the two extreme points (or one point).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size == 0:
        return np.empty(0, dtype=np.intp)
    order = np.lexsort((ys, xs))
    keep = np.ones(order.size, dtype=bool)
    keep[1:] = (np.diff(xs[order]) != 0.0) | (np.diff(ys[order]) != 0.0)
    order = order[keep]
    if order.size <= 2:
        return order

    def chain(indices: np.ndarray) -> list[int]:
        hull: list[int] = []
        for idx in indices:
            while len(hull) >= 2:
                o, a = hull[-2], hull[-1]
                cross = (xs[a] - xs[o]) * (ys[idx] - ys[o]) - (
                    ys[a] - ys[o]
                ) * (xs[idx] - xs[o])
                if cross <= 0.0:
                    hull.pop()
                else:
                    break
            hull.append(int(idx))
        return hull

    lower = chain(order)
    upper = chain(order[::-1])
    return np.asarray(lower[:-1] + upper[:-1], dtype=np.intp)
