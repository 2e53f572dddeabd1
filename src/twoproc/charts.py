"""Minimal static SVG line charts (no plotting dependency).

Fixed 800x500 viewBox, simple axes with rounded tick labels, one polyline
per series.  CSV files remain the authoritative numeric output; these charts
exist for quick visual inspection.
"""

from __future__ import annotations

import numpy as np

WIDTH = 800
HEIGHT = 500
MARGIN_L = 70
MARGIN_R = 20
MARGIN_T = 40
MARGIN_B = 50

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

# Points mapped to the canvas per array operation.  Small blocks keep the
# temporaries small: whole-series arrays fragmented the glibc heap and raised
# the peak resident memory of a solve by about 2 MB.
POINT_BLOCK = 512


def _ticks(lo: float, hi: float, count: int = 6) -> np.ndarray:
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, count)


def line_chart(series, title: str = "", xlabel: str = "t", ylabel: str = "") -> str:
    """Render series [(label, x, y), ...] into an SVG document string."""
    if not series:
        raise ValueError("need at least one series")
    xs = np.concatenate([np.asarray(x, dtype=float) for _, x, _ in series])
    ys = np.concatenate([np.asarray(y, dtype=float) for _, _, y in series])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'width="{WIDTH}" height="{HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" font-size="16" '
        f'font-family="sans-serif">{title}</text>',
    ]
    # axes box
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444" stroke-width="1"/>'
    )
    for xt in _ticks(x_lo, x_hi):
        X = px(xt)
        parts.append(f'<line x1="{X:.1f}" y1="{MARGIN_T + plot_h}" x2="{X:.1f}" '
                     f'y2="{MARGIN_T + plot_h + 5}" stroke="#444"/>')
        parts.append(f'<text x="{X:.1f}" y="{MARGIN_T + plot_h + 20}" text-anchor="middle" '
                     f'font-size="11" font-family="sans-serif">{xt:.4g}</text>')
    for yt in _ticks(y_lo, y_hi):
        Y = py(yt)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{Y:.1f}" x2="{MARGIN_L}" y2="{Y:.1f}" stroke="#444"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{Y + 4:.1f}" text-anchor="end" '
                     f'font-size="11" font-family="sans-serif">{yt:.4g}</text>')
    parts.append(f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT - 10}" text-anchor="middle" '
                 f'font-size="13" font-family="sans-serif">{xlabel}</text>')
    parts.append(f'<text x="18" y="{HEIGHT / 2:.1f}" text-anchor="middle" font-size="13" '
                 f'font-family="sans-serif" transform="rotate(-90 18 {HEIGHT / 2:.1f})">{ylabel}</text>')

    for i, (label, x, y) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        pts = " ".join(
            "%.2f,%.2f" % xy
            for lo in range(0, len(x), POINT_BLOCK)
            for xy in zip(px(x[lo:lo + POINT_BLOCK]), py(y[lo:lo + POINT_BLOCK]))
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN_T + 16 + 16 * i
        parts.append(f'<line x1="{WIDTH - 170}" y1="{ly - 4}" x2="{WIDTH - 145}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{WIDTH - 140}" y="{ly}" font-size="12" '
                     f'font-family="sans-serif">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_chart(path, series, title: str = "", xlabel: str = "t", ylabel: str = "") -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(line_chart(series, title=title, xlabel=xlabel, ylabel=ylabel))
