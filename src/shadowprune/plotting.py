"""Hand-emitted SVG scatter plots of the two-feature model space.

Uniformity runs on the horizontal axis and black pixels rate on the
vertical one.  Linear models additionally get a solid decision boundary,
two dashed margin lines at decision values +-1, and rings around the
support vectors; RBF models plot points only and note why.

Everything is drawn in raw feature coordinates (normalization is folded
into the line equations), and the affine data-to-screen transform is
recorded in an SVG comment so tests can map screen geometry back to
data space at full precision.  Line endpoints are serialized via repr
for the same reason.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DimensionMismatch
from .fileio import write_file
from .pipeline import FeatureTable
from .svm import KERNEL_LINEAR, SvmModel, decision_values

COLOR_GOOD = "#2b6cb0"   # label +1
COLOR_POOR = "#dd6b20"   # label -1
COLOR_BOUNDARY = "#63b3ed"
COLOR_MARGIN = "#ed8936"
COLOR_RING = "#1a202c"

# Canvas geometry and axis labels.
WIDTH = 640
HEIGHT = 480
MARGIN_LEFT = 70
MARGIN_RIGHT = 20
MARGIN_TOP = 20
MARGIN_BOTTOM = 50
X_LABEL = "uniformity"
Y_LABEL = "black pixels rate"
# Share of each axis's data span left empty beyond its extreme points.
PAD_FRACTION = 0.05


def _padded_range(values: np.ndarray, pad: float) -> tuple[float, float]:
    lo = float(values.min())
    hi = float(values.max())
    if hi == lo:
        lo -= 0.5
        hi += 0.5
    span = hi - lo
    return lo - pad * span, hi + pad * span


def _raw_space_line(model: SvmModel) -> tuple[float, float, float]:
    """Fold the normalizer into the linear decision function.

    Returns (w_rate, w_unif, b) with f(z) = w_rate*z0 + w_unif*z1 - b in
    raw feature coordinates.
    """
    w = np.asarray(model.w, dtype=np.float64)
    b = float(model.b)
    if model.normalizer is not None:
        lo = np.asarray(model.normalizer.mins, dtype=np.float64)
        span = np.asarray(model.normalizer.maxs, dtype=np.float64) - lo
        w = w / span
        b = b + float(np.sum(w * lo))
    return float(w[0]), float(w[1]), b


def _clip_line(
    w_y: float, w_x: float, c: float,
    x_lo: float, x_hi: float, y_lo: float, y_hi: float,
) -> tuple[tuple[float, float], tuple[float, float]] | None:
    """Segment of the line w_y*y + w_x*x = c inside a data-space rect.

    Here x is the plot abscissa (uniformity) and y the ordinate (rate).
    Returns None when the line misses the rectangle.
    """
    eps = 1e-9 * max(abs(x_hi - x_lo), abs(y_hi - y_lo))
    hits: list[tuple[float, float]] = []
    if w_y != 0.0:
        for x_edge in (x_lo, x_hi):
            y = (c - w_x * x_edge) / w_y
            if y_lo - eps <= y <= y_hi + eps:
                hits.append((x_edge, y))
    if w_x != 0.0:
        for y_edge in (y_lo, y_hi):
            x = (c - w_y * y_edge) / w_x
            if x_lo - eps <= x <= x_hi + eps:
                hits.append((x, y_edge))
    unique: list[tuple[float, float]] = []
    for p in hits:
        if all(abs(p[0] - q[0]) > eps or abs(p[1] - q[1]) > eps for q in unique):
            unique.append(p)
    if len(unique) < 2:
        return None
    # farthest pair, in case the line cuts a corner and hits 3 edges
    best = (unique[0], unique[1])
    best_d = -1.0
    for i in range(len(unique)):
        for j in range(i + 1, len(unique)):
            d = (unique[i][0] - unique[j][0]) ** 2 + (unique[i][1] - unique[j][1]) ** 2
            if d > best_d:
                best_d = d
                best = (unique[i], unique[j])
    return best


def render_svg(table: FeatureTable, model: SvmModel) -> str:
    """Build the complete SVG document as a string."""
    if model.support_x.shape[1] != 2:
        raise DimensionMismatch(
            f"plotting needs a 2-feature model, got {model.support_x.shape[1]}"
        )
    if len(table) == 0:
        raise DimensionMismatch("plotting needs at least one feature row")
    # before _raw_space_line, so a zero-span normalizer raises, not warns
    values = decision_values(model, table.x).tolist()

    rates = table.x[:, 0]
    unifs = table.x[:, 1]
    x_lo, x_hi = _padded_range(unifs, PAD_FRACTION)
    y_lo, y_hi = _padded_range(rates, PAD_FRACTION)

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    ax = plot_w / (x_hi - x_lo)
    bx = MARGIN_LEFT - ax * x_lo
    # screen y grows downward; flip the data axis
    ay = -plot_h / (y_hi - y_lo)
    by = (MARGIN_TOP + plot_h) - ay * y_lo

    def sx(x: float) -> float:
        return ax * x + bx

    def sy(y: float) -> float:
        return ay * y + by

    out: list[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    out.append(
        f"<!-- data-to-screen: x_screen = {ax!r} * x + {bx!r}; "
        f"y_screen = {ay!r} * y + {by!r} -->"
    )
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    out.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" '
        f'width="{plot_w}" height="{plot_h}" fill="none" stroke="#a0aec0"/>'
    )

    # axis labels and extremes
    mid_x = MARGIN_LEFT + plot_w / 2
    mid_y = MARGIN_TOP + plot_h / 2
    out.append(
        f'<text x="{mid_x:.1f}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{X_LABEL}</text>'
    )
    out.append(
        f'<text x="16" y="{mid_y:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 16 {mid_y:.1f})">{Y_LABEL}</text>'
    )
    tick = (
        '<text x="{x:.1f}" y="{y:.1f}" text-anchor="{anchor}" '
        'font-family="sans-serif" font-size="11" fill="#4a5568">{val}</text>'
    )
    out.append(tick.format(x=MARGIN_LEFT, y=HEIGHT - 32,
                           anchor="middle", val=f"{x_lo:.4g}"))
    out.append(tick.format(x=MARGIN_LEFT + plot_w, y=HEIGHT - 32,
                           anchor="middle", val=f"{x_hi:.4g}"))
    out.append(tick.format(x=MARGIN_LEFT - 6, y=MARGIN_TOP + plot_h,
                           anchor="end", val=f"{y_lo:.4g}"))
    out.append(tick.format(x=MARGIN_LEFT - 6, y=MARGIN_TOP + 10,
                           anchor="end", val=f"{y_hi:.4g}"))

    if model.kernel == KERNEL_LINEAR:
        w_rate, w_unif, b = _raw_space_line(model)
        lines = (
            ("boundary", b, COLOR_BOUNDARY, None),
            ("margin-plus", b + 1.0, COLOR_MARGIN, "6 4"),
            ("margin-minus", b - 1.0, COLOR_MARGIN, "6 4"),
        )
        for line_id, c, color, dash in lines:
            seg = _clip_line(w_rate, w_unif, c, x_lo, x_hi, y_lo, y_hi)
            if seg is None:
                out.append(f"<!-- {line_id}: outside the plotted range -->")
                continue
            (x1, y1), (x2, y2) = seg
            dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
            out.append(
                f'<line id="{line_id}" x1="{sx(x1)!r}" y1="{sy(y1)!r}" '
                f'x2="{sx(x2)!r}" y2="{sy(y2)!r}" stroke="{color}" '
                f'stroke-width="2"{dash_attr}/>'
            )
    else:
        out.append("<!-- no boundary line: rbf kernel has no linear separator -->")

    points = list(zip(table.x.tolist(), table.y.tolist()))
    # support vector rings under the data points
    for ((rate, unif), label), f in zip(points, values):
        if label * f <= 1.0 + model.tolerance:
            out.append(
                f'<circle class="sv-ring" cx="{sx(unif):.2f}" '
                f'cy="{sy(rate):.2f}" r="7" '
                f'fill="none" stroke="{COLOR_RING}" stroke-width="1.5"/>'
            )
    for (rate, unif), label in points:
        color = COLOR_GOOD if label == 1 else COLOR_POOR
        out.append(
            f'<circle class="pt" cx="{sx(unif):.2f}" '
            f'cy="{sy(rate):.2f}" r="4" fill="{color}"/>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(path: str | Path, table: FeatureTable, model: SvmModel) -> None:
    write_file(path, render_svg(table, model), "SVG")
