"""Dependency-free SVG scatter plots for d = 1 data and fitted lines.

Output is byte-deterministic: fixed canvas, fixed palette, and fixed
coordinate formatting, so identical inputs render identical files.
"""

from __future__ import annotations

import numpy as np

from .core import DataSet, Hyperplane, predict
from .errors import ContractViolation

WIDTH, HEIGHT = 640.0, 480.0
MARGIN_LEFT, MARGIN_RIGHT = 62.0, 18.0
MARGIN_TOP, MARGIN_BOTTOM = 18.0, 46.0
PALETTE = ("#1f6fb4", "#c4422d", "#3d8f4e", "#7a5fa6")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick(v: float) -> str:
    return f"{v:.6g}"


def _text(s: str) -> str:
    """``s`` as the content of a text element: &, < and > escaped."""
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Frame:
    """Affine map from data coordinates to the pixel plot area."""

    def __init__(self, x_vals, y_vals):
        x_lo, x_hi = float(np.min(x_vals)), float(np.max(x_vals))
        y_lo, y_hi = float(np.min(y_vals)), float(np.max(y_vals))
        x_pad = 0.05 * (x_hi - x_lo) or 1.0
        y_pad = 0.05 * (y_hi - y_lo) or 1.0
        self.x_lo, self.x_hi = x_lo - x_pad, x_hi + x_pad
        self.y_lo, self.y_hi = y_lo - y_pad, y_hi + y_pad
        self.px_lo = MARGIN_LEFT
        self.px_hi = WIDTH - MARGIN_RIGHT
        self.py_lo = HEIGHT - MARGIN_BOTTOM
        self.py_hi = MARGIN_TOP

    def px(self, x: float) -> float:
        t = (x - self.x_lo) / (self.x_hi - self.x_lo)
        return self.px_lo + t * (self.px_hi - self.px_lo)

    def py(self, y: float) -> float:
        t = (y - self.y_lo) / (self.y_hi - self.y_lo)
        return self.py_lo + t * (self.py_hi - self.py_lo)


def render_plot(data: DataSet, lines, deviation=None, title: str | None = None) -> str:
    """Render points plus labeled lines; returns the SVG document text.

    ``lines`` is a sequence of (label, Hyperplane, style) with style
    "solid" or "dashed".  ``deviation`` of (agent, reported_value) marks
    the agent's true point and hollow reported point.
    """
    if data.d != 1:
        raise ContractViolation("plots are defined for d = 1 data only")
    xs = data.xs[:, 0]
    y_candidates = [data.ys]
    if deviation is not None:
        agent, reported = int(deviation[0]), float(deviation[1])
        if not 0 <= agent < data.n:
            raise ContractViolation(f"deviation agent {agent} out of range")
        y_candidates.append(np.array([reported]))
    frame = _Frame(xs, np.concatenate(y_candidates))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" '
        f'height="{HEIGHT:.0f}" viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">',
        f'<rect x="0" y="0" width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="#ffffff"/>',
        '<clipPath id="plotarea">'
        f'<rect x="{_fmt(frame.px_lo)}" y="{_fmt(frame.py_hi)}" '
        f'width="{_fmt(frame.px_hi - frame.px_lo)}" '
        f'height="{_fmt(frame.py_lo - frame.py_hi)}"/></clipPath>',
    ]

    # axes box and ticks
    parts.append(
        f'<rect x="{_fmt(frame.px_lo)}" y="{_fmt(frame.py_hi)}" '
        f'width="{_fmt(frame.px_hi - frame.px_lo)}" '
        f'height="{_fmt(frame.py_lo - frame.py_hi)}" '
        'fill="none" stroke="#444444" stroke-width="1"/>'
    )
    for tx in np.linspace(frame.x_lo, frame.x_hi, 5):
        px = frame.px(tx)
        parts.append(f'<line x1="{_fmt(px)}" y1="{_fmt(frame.py_lo)}" '
                     f'x2="{_fmt(px)}" y2="{_fmt(frame.py_lo + 5)}" '
                     'stroke="#444444" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{_fmt(frame.py_lo + 18)}" '
                     'font-family="monospace" font-size="11" fill="#222222" '
                     f'text-anchor="middle">{_tick(tx)}</text>')
    for ty in np.linspace(frame.y_lo, frame.y_hi, 5):
        py = frame.py(ty)
        parts.append(f'<line x1="{_fmt(frame.px_lo - 5)}" y1="{_fmt(py)}" '
                     f'x2="{_fmt(frame.px_lo)}" y2="{_fmt(py)}" '
                     'stroke="#444444" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(frame.px_lo - 8)}" y="{_fmt(py + 4)}" '
                     'font-family="monospace" font-size="11" fill="#222222" '
                     f'text-anchor="end">{_tick(ty)}</text>')

    # fitted lines, clipped to the plot area
    parts.append('<g clip-path="url(#plotarea)">')
    for index, (label, line, style) in enumerate(lines):
        color = PALETTE[index % len(PALETTE)]
        y1 = predict(line, [frame.x_lo])
        y2 = predict(line, [frame.x_hi])
        dash = ' stroke-dasharray="7,5"' if style == "dashed" else ""
        parts.append(
            f'<line x1="{_fmt(frame.px(frame.x_lo))}" y1="{_fmt(frame.py(y1))}" '
            f'x2="{_fmt(frame.px(frame.x_hi))}" y2="{_fmt(frame.py(y2))}" '
            f'stroke="{color}" stroke-width="2"{dash}/>'
        )
    parts.append('</g>')

    # data points
    for x, y in zip(xs, data.ys):
        parts.append(f'<circle cx="{_fmt(frame.px(x))}" cy="{_fmt(frame.py(y))}" '
                     'r="3.5" fill="#222222"/>')

    if deviation is not None:
        agent, reported = int(deviation[0]), float(deviation[1])
        x = xs[agent]
        parts.append(
            f'<line x1="{_fmt(frame.px(x))}" y1="{_fmt(frame.py(data.ys[agent]))}" '
            f'x2="{_fmt(frame.px(x))}" y2="{_fmt(frame.py(reported))}" '
            'stroke="#888888" stroke-width="1" stroke-dasharray="3,3"/>'
        )
        parts.append(f'<circle cx="{_fmt(frame.px(x))}" cy="{_fmt(frame.py(reported))}" '
                     'r="4.5" fill="none" stroke="#222222" stroke-width="1.5"/>')

    # legend
    ly = MARGIN_TOP + 14.0
    for index, (label, line, style) in enumerate(lines):
        color = PALETTE[index % len(PALETTE)]
        dash = ' stroke-dasharray="7,5"' if style == "dashed" else ""
        lx = frame.px_lo + 10.0
        parts.append(f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" '
                     f'x2="{_fmt(lx + 26)}" y2="{_fmt(ly - 4)}" '
                     f'stroke="{color}" stroke-width="2"{dash}/>')
        parts.append(f'<text x="{_fmt(lx + 32)}" y="{_fmt(ly)}" '
                     'font-family="monospace" font-size="12" '
                     f'fill="#222222">{_text(label)}</text>')
        ly += 16.0

    if title:
        parts.append(f'<text x="{_fmt(WIDTH / 2)}" y="{_fmt(HEIGHT - 8)}" '
                     'font-family="monospace" font-size="12" fill="#222222" '
                     f'text-anchor="middle">{_text(title)}</text>')
    parts.append('</svg>')
    return "\n".join(parts) + "\n"
