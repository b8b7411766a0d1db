"""Static two-panel log-log line plots written as standalone SVG files.

The benchmark harness emits accuracy/work diagrams as plain SVG so that
results can be inspected in any browser without a plotting dependency.
Curves are drawn per label; a ``None`` entry in a curve breaks the line,
leaving a visible gap (used to mark unstable sweep points).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from html import escape
from pathlib import Path
from typing import Mapping, Optional, Sequence, Tuple

__all__ = ["Panel", "two_panel_svg", "PALETTE"]

# Okabe–Ito colorblind-safe palette, cycled when there are more curves.
PALETTE = (
    "#0072b2",
    "#d55e00",
    "#009e73",
    "#cc79a7",
    "#e69f00",
    "#56b4e9",
    "#f0e442",
    "#000000",
    "#999999",
    "#7f3c8d",
)

Point = Optional[Tuple[float, float]]


@dataclass(frozen=True)
class Panel:
    """One log-log panel: a title, axis labels, and named curves.

    Each curve is a sequence of (x, y) pairs in data coordinates with
    ``None`` marking a gap; non-positive or non-finite coordinates are
    treated as gaps as well (they have no logarithm to plot).
    """

    title: str
    xlabel: str
    ylabel: str
    curves: Mapping[str, Sequence[Point]] = field(default_factory=dict)


_WIDTH, _HEIGHT = 1040, 440
_PLOT_W, _PLOT_H = 380, 300
_MARGIN_LEFT, _MARGIN_TOP = 78, 58
_PANEL_STRIDE = 520
_FONT = "font-family='Helvetica, Arial, sans-serif'"


def _usable(point: Point) -> Optional[Tuple[float, float]]:
    if point is None:
        return None
    x, y = point
    if not (math.isfinite(x) and math.isfinite(y) and x > 0 and y > 0):
        return None
    return math.log10(x), math.log10(y)


def _bounds(curves: Mapping[str, Sequence[Point]]) -> Tuple[float, float, float, float]:
    xs, ys = [], []
    for pts in curves.values():
        for p in pts:
            logp = _usable(p)
            if logp is not None:
                xs.append(logp[0])
                ys.append(logp[1])
    if not xs:
        return -1.0, 1.0, -1.0, 1.0
    x0, x1 = math.floor(min(xs)), math.ceil(max(xs))
    y0, y1 = math.floor(min(ys)), math.ceil(max(ys))
    if x0 == x1:
        x0, x1 = x0 - 1, x1 + 1
    if y0 == y1:
        y0, y1 = y0 - 1, y1 + 1
    return float(x0), float(x1), float(y0), float(y1)


def _decade_label(exponent: int) -> str:
    return f"1e{exponent:+d}".replace("+0", "+").replace("-0", "-") if abs(exponent) >= 10 else f"1e{exponent}"


def _tick_exponents(lo: float, hi: float, limit: int = 9) -> Sequence[int]:
    exps = list(range(int(math.ceil(lo)), int(math.floor(hi)) + 1))
    step = 1
    while len(exps[::step]) > limit:
        step += 1
    return exps[::step]


class _PanelRenderer:
    def __init__(self, panel: Panel, origin_x: float):
        self.panel = panel
        self.ox = origin_x
        self.oy = _MARGIN_TOP
        self.x0, self.x1, self.y0, self.y1 = _bounds(panel.curves)

    def _px(self, logx: float) -> float:
        return self.ox + (logx - self.x0) / (self.x1 - self.x0) * _PLOT_W

    def _py(self, logy: float) -> float:
        return self.oy + _PLOT_H - (logy - self.y0) / (self.y1 - self.y0) * _PLOT_H

    def render(self, parts: list) -> None:
        ox, oy = self.ox, self.oy
        parts.append(
            f"<rect x='{ox}' y='{oy}' width='{_PLOT_W}' height='{_PLOT_H}' "
            "fill='white' stroke='#333333' stroke-width='1'/>"
        )
        parts.append(
            f"<text x='{ox + _PLOT_W / 2}' y='{oy - 22}' text-anchor='middle' "
            f"{_FONT} font-size='15' font-weight='bold'>"
            f"{escape(self.panel.title, quote=False)}</text>"
        )
        for exp in _tick_exponents(self.x0, self.x1):
            px = self._px(float(exp))
            parts.append(
                f"<line x1='{px:.2f}' y1='{oy}' x2='{px:.2f}' y2='{oy + _PLOT_H}' "
                "stroke='#dddddd' stroke-width='0.7'/>"
            )
            parts.append(
                f"<text x='{px:.2f}' y='{oy + _PLOT_H + 18}' text-anchor='middle' "
                f"{_FONT} font-size='11'>{_decade_label(exp)}</text>"
            )
        for exp in _tick_exponents(self.y0, self.y1):
            py = self._py(float(exp))
            parts.append(
                f"<line x1='{ox}' y1='{py:.2f}' x2='{ox + _PLOT_W}' y2='{py:.2f}' "
                "stroke='#dddddd' stroke-width='0.7'/>"
            )
            parts.append(
                f"<text x='{ox - 8}' y='{py + 4:.2f}' text-anchor='end' "
                f"{_FONT} font-size='11'>{_decade_label(exp)}</text>"
            )
        parts.append(
            f"<text x='{ox + _PLOT_W / 2}' y='{oy + _PLOT_H + 40}' text-anchor='middle' "
            f"{_FONT} font-size='13'>{escape(self.panel.xlabel, quote=False)}</text>"
        )
        parts.append(
            f"<text x='{ox - 58}' y='{oy + _PLOT_H / 2}' text-anchor='middle' {_FONT} "
            f"font-size='13' transform='rotate(-90 {ox - 58} {oy + _PLOT_H / 2})'>"
            f"{escape(self.panel.ylabel, quote=False)}</text>"
        )
        any_points = any(_usable(p) for pts in self.panel.curves.values() for p in pts)
        if not any_points:
            parts.append(
                f"<text x='{ox + _PLOT_W / 2}' y='{oy + _PLOT_H / 2}' text-anchor='middle' "
                f"{_FONT} font-size='13' fill='#888888'>no data</text>"
            )
            return
        for idx, (label, pts) in enumerate(self.panel.curves.items()):
            color = PALETTE[idx % len(PALETTE)]
            self._render_curve(parts, pts, color)
            legend_y = oy + 14 + 15 * idx
            legend_x = ox + _PLOT_W - 120
            parts.append(
                f"<line x1='{legend_x}' y1='{legend_y - 4}' x2='{legend_x + 20}' "
                f"y2='{legend_y - 4}' stroke='{color}' stroke-width='2'/>"
            )
            parts.append(
                f"<text x='{legend_x + 26}' y='{legend_y}' {_FONT} font-size='11'>"
                f"{escape(label, quote=False)}</text>"
            )

    def _render_curve(self, parts: list, pts: Sequence[Point], color: str) -> None:
        segments: list = [[]]
        for p in pts:
            logp = _usable(p)
            if logp is None:
                if segments[-1]:
                    segments.append([])
                continue
            segments[-1].append((self._px(logp[0]), self._py(logp[1])))
        for seg in segments:
            if len(seg) >= 2:
                coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in seg)
                parts.append(
                    f"<polyline points='{coords}' fill='none' stroke='{color}' "
                    "stroke-width='1.8'/>"
                )
            for x, y in seg:
                parts.append(
                    f"<circle cx='{x:.2f}' cy='{y:.2f}' r='2.6' fill='{color}'/>"
                )


def two_panel_svg(left: Panel, right: Panel, path) -> Path:
    """Write a side-by-side pair of log-log panels to ``path`` and return it."""
    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{_WIDTH}' height='{_HEIGHT}' "
        f"viewBox='0 0 {_WIDTH} {_HEIGHT}'>",
        f"<rect width='{_WIDTH}' height='{_HEIGHT}' fill='white'/>",
    ]
    _PanelRenderer(left, _MARGIN_LEFT).render(parts)
    _PanelRenderer(right, _MARGIN_LEFT + _PANEL_STRIDE).render(parts)
    parts.append("</svg>")
    out = Path(path)
    out.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return out
