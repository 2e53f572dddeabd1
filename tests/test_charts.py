import re

import numpy as np

from twoproc.charts import HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, WIDTH, line_chart


def per_point_polyline(x, y, x_lo, x_hi, y_lo, y_hi) -> str:
    """Polyline points formatted one point at a time, as scalar px/py calls would."""
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B
    pts = []
    for a, b in zip(x, y):
        X = MARGIN_L + (a - x_lo) / (x_hi - x_lo) * plot_w
        Y = MARGIN_T + (y_hi - b) / (y_hi - y_lo) * plot_h
        pts.append(f"{X:.2f},{Y:.2f}")
    return " ".join(pts)


def test_polyline_points_match_per_point_format():
    rng = np.random.default_rng(11)
    x = np.sort(rng.uniform(0.0, 50.0, 5000))
    y1 = rng.uniform(-1e-3, 1.0, 5000)
    y2 = np.exp(-x)
    svg = line_chart([("a", x, y1), ("b", x, y2)], title="t", ylabel="p")
    lines = re.findall(r'<polyline points="([^"]*)"', svg)
    y_lo, y_hi = float(min(y1.min(), y2.min())), float(max(y1.max(), y2.max()))
    pad = 0.05 * (y_hi - y_lo)
    bounds = (float(x.min()), float(x.max()), y_lo - pad, y_hi + pad)
    assert lines == [per_point_polyline(x, y1, *bounds), per_point_polyline(x, y2, *bounds)]
