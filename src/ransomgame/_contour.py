"""Zero-level contour extraction from a 2-D scalar field (marching squares)."""

from __future__ import annotations

from collections import defaultdict

import numpy as np


def _interp(p0, p1, v0, v1):
    """Point where the field crosses zero on the edge p0-p1."""
    t = v0 / (v0 - v1)
    return (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))


def _cell_segments(xs, ys, values, i, j):
    """Zero-crossing segments ((p, key), (q, key)) of one grid cell.

    Corner order is (i,j), (i+1,j), (i+1,j+1), (i,j+1) in (row=x-axis,
    col=y-axis) indexing.  A crossing's key is its grid position: the node
    when that corner's value is exactly zero, else the edge's two nodes in
    ascending order, so both cells sharing an edge key its crossing alike.
    """
    n = len(ys)
    nodes = (i * n + j, (i + 1) * n + j, (i + 1) * n + j + 1, i * n + j + 1)
    corners = ((xs[i], ys[j]), (xs[i + 1], ys[j]),
               (xs[i + 1], ys[j + 1]), (xs[i], ys[j + 1]))
    vals = (values[i, j], values[i + 1, j], values[i + 1, j + 1], values[i, j + 1])
    # Exact zeros count as positive so every node has a deterministic side.
    inside = [v > 0.0 or v == 0.0 for v in vals]
    pts = []
    for e in range(4):
        f = (e + 1) % 4
        if inside[e] != inside[f]:
            key = (nodes[e] if vals[e] == 0.0 else nodes[f] if vals[f] == 0.0
                   else (min(nodes[e], nodes[f]), max(nodes[e], nodes[f])))
            pts.append((_interp(corners[e], corners[f], vals[e], vals[f]), key))
    if len(pts) < 4:
        return [(pts[0], pts[1])] if pts else []
    # Saddle cell: split by the sign of the center average, pairing crossings
    # so each segment separates the corner matching the center from its
    # neighbours.
    center_in = (vals[0] + vals[1] + vals[2] + vals[3]) / 4.0 >= 0.0
    if center_in == inside[0]:
        return [(pts[0], pts[1]), (pts[2], pts[3])]
    return [(pts[3], pts[0]), (pts[1], pts[2])]


def _chain(segments):
    """Join segments sharing endpoints into polylines, deterministically."""
    # A contour through a grid node yields zero-length pieces; drop them.
    keyed = [(p, q, kp, kq) for (p, kp), (q, kq) in segments if kp != kq]
    adjacency = defaultdict(list)
    for si, (_, _, kp, kq) in enumerate(keyed):
        adjacency[kp].append((si, 0))
        adjacency[kq].append((si, 1))

    used = [False] * len(keyed)
    polylines = []
    for start in range(len(keyed)):
        if used[start]:
            continue
        used[start] = True
        p, q, kp, kq = keyed[start]
        # Extend forward from q, then backward from p.
        forward, backward = [], []
        for key, line in ((kq, forward), (kp, backward)):
            while True:
                options = [(si, side) for si, side in adjacency[key] if not used[si]]
                if not options:
                    break
                si, side = options[0]
                used[si] = True
                line.append(keyed[si][1 - side])
                key = keyed[si][3 - side]
        backward.reverse()
        polylines.append(np.asarray(backward + [p, q] + forward))
    return polylines


def zero_contours(xs: np.ndarray, ys: np.ndarray, values: np.ndarray) -> list:
    """Polylines where a field sampled at xs x ys crosses zero.

    ``values[i, j]`` is the field at ``(xs[i], ys[j])``.  Crossing points are
    linearly interpolated along cell edges, so a field linear in each cell is
    located exactly.  Returns a list of (k, 2) float arrays.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (len(xs), len(ys)):
        raise ValueError(f"field shape {values.shape} does not match axes "
                         f"({len(xs)}, {len(ys)})")
    # Only cells whose corners lie on both sides of zero yield segments;
    # argwhere lists them in the same row-major order as a full scan.
    inside = values >= 0.0
    first = inside[:-1, :-1]
    crossed = ((first != inside[1:, :-1]) | (first != inside[1:, 1:])
               | (first != inside[:-1, 1:]))
    segments = []
    for i, j in np.argwhere(crossed).tolist():
        segments.extend(_cell_segments(xs, ys, values, i, j))
    return _chain(segments)
