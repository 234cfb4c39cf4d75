import numpy as np
import pytest

from ransomgame._contour import zero_contours


def _interp(p0, p1, v0, v1):
    t = v0 / (v0 - v1)
    return (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))


def _key(p):
    """Merge endpoints that differ only by rounding noise."""
    return (round(p[0], 12), round(p[1], 12))


def _reference_cell_segments(xs, ys, values, i, j):
    """One cell's segments as the first marching-squares version built them."""
    corners = ((xs[i], ys[j]), (xs[i + 1], ys[j]),
               (xs[i + 1], ys[j + 1]), (xs[i], ys[j + 1]))
    vals = (values[i, j], values[i + 1, j], values[i + 1, j + 1], values[i, j + 1])
    inside = [v > 0.0 or v == 0.0 for v in vals]
    crossings = []
    for e in range(4):
        e2 = (e + 1) % 4
        if inside[e] != inside[e2]:
            crossings.append((e, _interp(corners[e], corners[e2], vals[e], vals[e2])))
    if len(crossings) == 2:
        segments = [(crossings[0][1], crossings[1][1])]
    elif len(crossings) == 4:
        center_in = (vals[0] + vals[1] + vals[2] + vals[3]) / 4.0 >= 0.0
        if center_in == inside[0]:
            segments = [(crossings[0][1], crossings[1][1]),
                        (crossings[2][1], crossings[3][1])]
        else:
            segments = [(crossings[3][1], crossings[0][1]),
                        (crossings[1][1], crossings[2][1])]
    else:
        segments = []
    return [(p, q) for p, q in segments if _key(p) != _key(q)]


def _reference_chain(segments):
    """Chaining that keys every endpoint on each lookup and prepends by insert."""
    adjacency = {}
    for si, (p, q) in enumerate(segments):
        adjacency.setdefault(_key(p), []).append((si, 0))
        adjacency.setdefault(_key(q), []).append((si, 1))
    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        p, q = segments[start]
        line = [p, q]
        for endpoint, append in ((q, True), (p, False)):
            current = endpoint
            while True:
                options = [(si, side) for si, side in adjacency.get(_key(current), [])
                           if not used[si]]
                if not options:
                    break
                si, side = options[0]
                used[si] = True
                nxt = segments[si][1 - side]
                if append:
                    line.append(nxt)
                else:
                    line.insert(0, nxt)
                current = nxt
        polylines.append(np.asarray(line))
    return polylines


def _reference_zero_contours(xs, ys, values):
    """Marching squares over every cell, crossed or not."""
    values = np.asarray(values, dtype=np.float64)
    segments = []
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            segments.extend(_reference_cell_segments(xs, ys, values, i, j))
    return _reference_chain(segments)


def _checkerboard(n):
    return np.where(np.add.outer(np.arange(n), np.arange(n)) % 2 == 0, 1.0, -1.0)


def _node_zeros():
    # Zeros and negative zeros on nodes, lines through nodes and flat patches.
    values = np.add.outer(np.arange(-4.0, 5.0), np.arange(-3.0, 4.0))
    values[values == 0.0] = -0.0
    values[0, :3] = 0.0
    values[5, 5] = -0.0
    return values


class TestZeroContours:
    def test_linear_field_located_exactly(self):
        # f(x, y) = x + y - 1 is linear on every cell edge, so interpolated
        # crossings sit exactly on the line x + y = 1.
        xs = np.linspace(0.0, 1.0, 21)
        ys = np.linspace(0.0, 1.0, 21)
        values = xs[:, None] + ys[None, :] - 1.0
        lines = zero_contours(xs, ys, values)
        assert lines
        points = np.vstack(lines)
        assert np.max(np.abs(points[:, 0] + points[:, 1] - 1.0)) < 1e-12

    def test_circle_yields_closed_loop(self):
        xs = np.linspace(-2.0, 2.0, 81)
        ys = np.linspace(-2.0, 2.0, 81)
        values = xs[:, None] ** 2 + ys[None, :] ** 2 - 1.0
        lines = zero_contours(xs, ys, values)
        assert len(lines) == 1
        loop = lines[0]
        assert np.allclose(loop[0], loop[-1])
        radii = np.hypot(loop[:, 0], loop[:, 1])
        cell = xs[1] - xs[0]
        assert np.max(np.abs(radii - 1.0)) < cell

    def test_no_crossings_no_lines(self):
        xs = ys = np.linspace(0.0, 1.0, 5)
        assert zero_contours(xs, ys, np.ones((5, 5))) == []
        assert zero_contours(xs, ys, -np.ones((5, 5))) == []

    def test_two_separate_bands(self):
        # f(x, y) = sin-free two-stripe field: zero lines at x = 0.25, 0.75.
        xs = np.linspace(0.0, 1.0, 101)
        ys = np.linspace(0.0, 1.0, 11)
        values = -(xs[:, None] - 0.25) * (xs[:, None] - 0.75) + 0.0 * ys[None, :]
        lines = zero_contours(xs, ys, values)
        assert len(lines) == 2
        centers = sorted(float(np.mean(line[:, 0])) for line in lines)
        assert centers[0] == pytest.approx(0.25, abs=1e-6)
        assert centers[1] == pytest.approx(0.75, abs=1e-6)

    def test_determinism(self):
        rng = np.random.default_rng(0)
        xs = np.linspace(0.0, 1.0, 30)
        ys = np.linspace(0.0, 1.0, 30)
        values = rng.normal(size=(30, 30))
        a = zero_contours(xs, ys, values)
        b = zero_contours(xs, ys, values)
        assert len(a) == len(b)
        for la, lb in zip(a, b):
            assert np.array_equal(la, lb)

    def test_saddle_cells_handled(self):
        # A checkerboard sign pattern forces the ambiguous marching case.
        xs = ys = np.linspace(0.0, 1.0, 4)
        values = np.array([[1.0, -1.0, 1.0, -1.0],
                           [-1.0, 1.0, -1.0, 1.0],
                           [1.0, -1.0, 1.0, -1.0],
                           [-1.0, 1.0, -1.0, 1.0]])
        lines = zero_contours(xs, ys, values)
        assert lines
        points = np.vstack(lines)
        assert np.all((points >= 0.0) & (points <= 1.0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            zero_contours(np.arange(3.0), np.arange(4.0), np.zeros((3, 3)))


class TestMatchesFullScan:
    @pytest.mark.parametrize("name,values", [
        ("random", np.random.default_rng(1).normal(size=(40, 33))),
        ("random_shifted", np.random.default_rng(2).normal(0.8, 1.0, size=(25, 60))),
        ("checkerboard", _checkerboard(9)),
        ("checkerboard_offset", _checkerboard(8) * 2.0 + 0.5),
        ("node_zeros", _node_zeros()),
        ("all_zero", np.zeros((6, 5))),
        ("all_negative_zero", np.full((6, 5), -0.0)),
        ("all_positive", np.full((7, 4), 3.0)),
        ("all_negative", np.full((7, 4), -3.0)),
        ("one_row", np.array([[1.0, -1.0, 2.0]])),
        # Long closed and open lines, started mid-line so both chaining
        # directions run for hundreds of steps.
        ("circle", np.add.outer(np.linspace(-2, 2, 120) ** 2,
                                np.linspace(-2, 2, 90) ** 2) - 1.7),
        ("wave", np.sin(np.add.outer(np.linspace(0, 9, 150), np.linspace(0, 4, 150) ** 2))),
    ])
    def test_every_polyline_equal(self, name, values):
        xs = np.geomspace(0.01, 1.0, values.shape[0])
        ys = np.linspace(-1.0, 2.0, values.shape[1])
        got = zero_contours(xs, ys, values)
        want = _reference_zero_contours(xs, ys, values)
        assert len(got) == len(want)
        for line, expected in zip(got, want):
            assert np.array_equal(line, expected)
