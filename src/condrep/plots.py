"""Hand-written SVG text for the loss curve and per-strategy accuracy
bars with confidence whiskers, rendered from the CSV outputs. Self-contained
vector files, no network access, no plotting dependency."""
from __future__ import annotations

from xml.sax.saxutils import escape, quoteattr

from .evaluate import EvalReport
from .io import read_accuracy_csv, read_loss_csv

WIDTH, HEIGHT = 640, 400
MARGIN_LEFT, MARGIN_BOTTOM, MARGIN_TOP = 70, 50, 30
PLOT_W = WIDTH - MARGIN_LEFT - 30
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM


def _svg(elements: list[str], title: str) -> str:
    body = "\n  ".join(elements)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">\n'
            f'  <rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
            f'  <text x="{WIDTH / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>\n'
            f"  {body}\n</svg>\n")


def _axes() -> list[str]:
    x0, y0 = MARGIN_LEFT, MARGIN_TOP + PLOT_H
    return [
        f'<line x1="{x0}" y1="{MARGIN_TOP}" x2="{x0}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + PLOT_W}" y2="{y0}" stroke="black"/>',
    ]


def loss_curve_svg(loss_csv) -> str:
    points = read_loss_csv(loss_csv)
    epochs = [p[0] for p in points]
    losses = [p[1] for p in points]
    lo, hi = min(losses), max(losses)
    span = (hi - lo) or 1.0
    xs = [MARGIN_LEFT + PLOT_W * (e - epochs[0]) / max(epochs[-1] - epochs[0], 1)
          for e in epochs]
    ys = [MARGIN_TOP + PLOT_H * (1.0 - (v - lo) / span) for v in losses]
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    elements = _axes()
    elements.append(f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="2"/>')
    elements.append(f'<text x="{MARGIN_LEFT}" y="{HEIGHT - 12}" font-size="11">'
                    f'epoch 0..{epochs[-1]}, loss {lo:.4g}..{hi:.4g}</text>')
    return _svg(elements, "training loss")


def accuracy_bars_svg(accuracy_csv) -> str:
    """One bar per strategy column; height is mean accuracy on a fixed [0, 1]
    scale (mean * PLOT_H pixels), whiskers are the 95% confidence interval,
    both as :meth:`EvalReport.from_accuracies` computes them."""
    columns = read_accuracy_csv(accuracy_csv)
    names = sorted(columns)
    elements = _axes()
    slot = PLOT_W / len(names)
    base_y = MARGIN_TOP + PLOT_H
    for i, name in enumerate(names):
        report = EvalReport.from_accuracies(name, columns[name])
        height = report.mean * PLOT_H
        bar_w = slot * 0.6
        x = MARGIN_LEFT + slot * i + slot * 0.2
        y = base_y - height
        cx = x + bar_w / 2
        elements.append(f'<rect x="{x!r}" y="{y!r}" width="{bar_w!r}" height="{height!r}" '
                        f'fill="steelblue" data-strategy={quoteattr(name)} '
                        f'data-mean="{report.mean!r}" data-ci95="{report.ci95!r}"/>')
        whisk = report.ci95 * PLOT_H
        elements.append(f'<line x1="{cx!r}" y1="{y - whisk!r}" x2="{cx!r}" y2="{y + whisk!r}" '
                        f'stroke="black"/>')
        elements.append(f'<line x1="{cx - 5!r}" y1="{y - whisk!r}" x2="{cx + 5!r}" '
                        f'y2="{y - whisk!r}" stroke="black"/>')
        elements.append(f'<line x1="{cx - 5!r}" y1="{y + whisk!r}" x2="{cx + 5!r}" '
                        f'y2="{y + whisk!r}" stroke="black"/>')
        elements.append(f'<text x="{cx!r}" y="{base_y + 16}" text-anchor="middle" '
                        f'font-size="10">{escape(name)}</text>')
    return _svg(elements, "episode accuracy (95% CI)")
