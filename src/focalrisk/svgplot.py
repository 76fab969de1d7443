"""Minimal deterministic static SVG line plots and histograms.

Fixed viewBox, round-number tick placement, no external fonts or scripts;
rerunning with identical inputs yields byte-identical markup.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 60, 20, 30, 45


def _nice_step(span: float, target_ticks: int = 10) -> float:
    raw = span / target_ticks
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0 else 1.0
    for m in (1.0, 2.0, 5.0, 10.0):
        if m * mag >= raw:
            return m * mag
    return 10.0 * mag


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    step = _nice_step(hi - lo)
    # by index: far from 0, t += step can fall below half an ulp of t and never advance
    first = math.ceil(lo / step)
    ticks = (first * step + i * step
             for i in range(math.floor((hi + 1e-12 * step) / step) - first + 1))
    return list(dict.fromkeys(0.0 if abs(t) < 1e-12 * step else t for t in ticks))  # distinct


def _widen(lo: float, hi: float) -> tuple[float, float]:
    """[lo, hi], or, if it has zero width, widened at each end by 0.5, or by 2 ulps of lo
    where 0.5 would round away."""
    pad = max(0.5, 2 * math.ulp(lo))
    return (lo - pad, hi + pad) if lo == hi else (lo, hi)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


class _Frame:
    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo, y_hi

    def px(self, x):
        return MARGIN_L + (x - self.x_lo) / (self.x_hi - self.x_lo) * (
            WIDTH - MARGIN_L - MARGIN_R
        )

    def py(self, y):
        return HEIGHT - MARGIN_B - (y - self.y_lo) / (self.y_hi - self.y_lo) * (
            HEIGHT - MARGIN_T - MARGIN_B
        )


def _axes(frame: _Frame, title: str) -> list[str]:
    parts = [
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="black"/>',
        f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    for t in _ticks(frame.x_lo, frame.x_hi):
        x = frame.px(t)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{HEIGHT - MARGIN_B}" '
            f'x2="{_fmt(x)}" y2="{HEIGHT - MARGIN_B + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    for t in _ticks(frame.y_lo, frame.y_hi):
        y = frame.py(t)
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{_fmt(y)}" '
            f'x2="{MARGIN_L}" y2="{_fmt(y)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    return parts


def _document(parts: list[str]) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        + "\n".join(parts)
        + "\n</svg>\n"
    )


def render_curves(
    x: np.ndarray,
    curves: Sequence[tuple[str, str, np.ndarray]],
    bands: Sequence[tuple[str, np.ndarray, np.ndarray]] = (),
    title: str = "",
) -> str:
    """Line plot with optional shaded bands: curves are (label, color, y)."""
    ys = [c[2] for c in curves] + [b for _, lo, hi in bands for b in (lo, hi)]
    y_lo, y_hi = _widen(min(float(np.min(v)) for v in ys), max(float(np.max(v)) for v in ys))
    pad = 0.05 * (y_hi - y_lo)
    frame = _Frame(*_widen(float(x[0]), float(x[-1])), y_lo - pad, y_hi + pad)
    parts = []
    for color, lo, hi in bands:
        fwd = " ".join(f"{_fmt(frame.px(a))},{_fmt(frame.py(b))}" for a, b in zip(x, hi))
        bwd = " ".join(
            f"{_fmt(frame.px(a))},{_fmt(frame.py(b))}" for a, b in zip(x[::-1], lo[::-1])
        )
        parts.append(
            f'<polygon points="{fwd} {bwd}" fill="{color}" fill-opacity="0.25" stroke="none"/>'
        )
    for label, color, y in curves:
        pts = " ".join(f"{_fmt(frame.px(a))},{_fmt(frame.py(b))}" for a, b in zip(x, y))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
    legend_y = MARGIN_T + 15
    for label, color, _ in curves:
        parts.append(
            f'<line x1="{MARGIN_L + 10}" y1="{legend_y}" x2="{MARGIN_L + 40}" '
            f'y2="{legend_y}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L + 46}" y="{legend_y + 4}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
        legend_y += 18
    parts.extend(_axes(frame, title))
    return _document(parts)


def render_histograms(
    hists: Sequence[tuple[str, str, np.ndarray, np.ndarray]],
    title: str = "",
) -> str:
    """Overlaid histograms: (label, color, edges, counts)."""
    x_lo = min(float(e[0]) for _, _, e, _ in hists)
    x_hi = max(float(e[-1]) for _, _, e, _ in hists)
    y_hi = max(int(np.max(c)) for _, _, _, c in hists)
    frame = _Frame(x_lo, x_hi, 0.0, y_hi * 1.05)
    parts = []
    for label, color, edges, counts in hists:
        for i, c in enumerate(counts):
            if c == 0:
                continue
            x0, x1 = frame.px(edges[i]), frame.px(edges[i + 1])
            y0 = frame.py(float(c))
            parts.append(
                f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
                f'height="{_fmt(frame.py(0.0) - y0)}" fill="{color}" '
                f'fill-opacity="0.45" stroke="{color}"/>'
            )
    legend_y = MARGIN_T + 15
    for label, color, _, _ in hists:
        parts.append(
            f'<rect x="{MARGIN_L + 10}" y="{legend_y - 8}" width="14" height="10" '
            f'fill="{color}" fill-opacity="0.45"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L + 30}" y="{legend_y + 1}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
        legend_y += 18
    parts.extend(_axes(frame, title))
    return _document(parts)
