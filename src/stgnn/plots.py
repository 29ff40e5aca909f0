"""Minimal standalone SVG writer for ROC curves (no plotting dependency)."""

from __future__ import annotations

PALETTE = ("#1b6ca8", "#c0392b", "#27ae60", "#8e44ad", "#e67e22",
           "#16a085", "#7f8c8d", "#2c3e50")

WIDTH = 560
HEIGHT = 560
MARGIN = 64


def _x(fpr: float) -> float:
    return MARGIN + fpr * (WIDTH - 2 * MARGIN)


def _y(tpr: float) -> float:
    return HEIGHT - MARGIN - tpr * (HEIGHT - 2 * MARGIN)


def roc_svg(curves: list[tuple[str, list[tuple[float, float]]]]) -> str:
    """Render labelled (fpr, tpr) curves plus the chance diagonal."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#444"/>',
        f'<line x1="{_x(0):.1f}" y1="{_y(0):.1f}" x2="{_x(1):.1f}" y2="{_y(1):.1f}" '
        f'stroke="#999" stroke-dasharray="6,4"/>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(f'<text x="{_x(tick):.1f}" y="{HEIGHT - MARGIN + 20}" font-size="12" '
                     f'text-anchor="middle" fill="#333">{tick:g}</text>')
        parts.append(f'<text x="{MARGIN - 10}" y="{_y(tick) + 4:.1f}" font-size="12" '
                     f'text-anchor="end" fill="#333">{tick:g}</text>')
    parts.append(f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT - MARGIN + 44}" font-size="14" '
                 f'text-anchor="middle" fill="#111">false positive rate</text>')
    parts.append(f'<text x="20" y="{HEIGHT / 2:.1f}" font-size="14" text-anchor="middle" '
                 f'fill="#111" transform="rotate(-90 20 {HEIGHT / 2:.1f})">true positive rate</text>')
    for i, (label, points) in enumerate(curves):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{_x(fpr):.2f},{_y(tpr):.2f}" for fpr, tpr in points)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        y = MARGIN + 18 + 16 * i
        parts.append(f'<line x1="{WIDTH - MARGIN - 150}" y1="{y - 4}" x2="{WIDTH - MARGIN - 126}" '
                     f'y2="{y - 4}" stroke="{color}" stroke-width="1.6"/>')
        parts.append(f'<text x="{WIDTH - MARGIN - 120}" y="{y}" font-size="12" '
                     f'fill="#111">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

