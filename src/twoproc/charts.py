"""Minimal static SVG line charts (no plotting dependency).

Fixed 800x500 viewBox, simple axes with rounded tick labels, one polyline
per series.  CSV files remain the authoritative numeric output; these charts
exist for quick visual inspection.  This module renders only; the CLI writes
the files.
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
# "0." to "999." and "00," to "99," (after an x) then "00 " to "99 " (after a y), NUL-padded to 4 bytes
_WHOLE = np.array([b"%d." % i for i in range(1000)], dtype="S4").view(np.uint32)
_HUNDREDTHS = np.array([b"%02d%c" % (i, c) for c in b", " for i in range(100)], dtype="S4").view(np.uint32)


def _escape(text: str) -> str:
    """Text as SVG character data: any Unicode, with &, < and > as entities."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float, count: int = 6) -> np.ndarray:
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, count)


def _points(x: np.ndarray, y: np.ndarray) -> str:
    """The points "%.2f,%.2f" % (x, y), joined by spaces, in one array pass.

    A coordinate in [0, 1000) whose hundredfold lies more than 1e-6 from a half rounds to the
    nearest hundredth as `%` rounds its exact value.  Its digits are two table words, its
    whole part with the point and its hundredths with the separator, padded with NUL bytes
    that are dropped.  A point with any other coordinate (near a tie, negative, NaN, or
    999.995 and up) is formatted by `%`.
    """
    xy = np.stack([x, y], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # a coordinate that overflows is not plain
        scaled = xy * 100.0
        cents = np.rint(scaled)
        plain = ~np.signbit(xy) & (cents < 1e5) & (np.abs(np.abs(scaled - cents) - 0.5) > 1e-6)
    cents = np.where(plain, cents, 0.0).astype(np.intp)
    whole = cents // 100
    words = np.empty(xy.shape + (2,), dtype=np.uint32)
    words[..., 0] = _WHOLE[whole]
    words[..., 1] = _HUNDREDTHS[cents - 100 * whole + [0, 100]]
    text = words.tobytes().replace(b"\0", b"").decode("ascii")
    if not plain.all():
        ends = np.cumsum(np.count_nonzero(words.view(np.uint8).reshape(len(xy), -1), axis=1))
        pieces, at = [], 0
        for k in np.flatnonzero(~plain.all(axis=1)):
            pieces += [text[at:ends[k - 1] if k else 0], "%.2f,%.2f " % (x[k], y[k])]
            at = ends[k]
        text = "".join(pieces) + text[at:]
    return text[:-1]


def line_chart(series, title: str = "", xlabel: str = "t", ylabel: str = "") -> str:
    """Render series [(label, x, y), ...] into an SVG document string; the texts are escaped here."""
    if not series:
        raise ValueError("need at least one series")
    title, xlabel, ylabel = _escape(title), _escape(xlabel), _escape(ylabel)
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
        pts = " ".join(_points(px(x[lo:lo + POINT_BLOCK]), py(y[lo:lo + POINT_BLOCK]))
                       for lo in range(0, len(x), POINT_BLOCK))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN_T + 16 + 16 * i
        parts.append(f'<line x1="{WIDTH - 170}" y1="{ly - 4}" x2="{WIDTH - 145}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{WIDTH - 140}" y="{ly}" font-size="12" '
                     f'font-family="sans-serif">{_escape(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
