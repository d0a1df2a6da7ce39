"""SVG scatter plots: geometry checked by inverting the recorded transform."""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from shadowprune.errors import DimensionMismatch, IoError
from shadowprune.features import Normalizer
from shadowprune.pipeline import FeatureTable
from shadowprune.plotting import PlotSpec, render_svg, write_svg
from shadowprune.svm import TrainConfig, TrainingSet, decision_value, train

_FLOAT = r"[-+0-9.eE]+"
TRANSFORM_RE = re.compile(
    rf"x_screen = ({_FLOAT}) \* x \+ ({_FLOAT}); "
    rf"y_screen = ({_FLOAT}) \* y \+ ({_FLOAT})"
)


def toy_model():
    data = TrainingSet(
        np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([-1.0, 1.0])
    )
    return train(data, TrainConfig(kernel="linear", C=1e6, tolerance=1e-6))


def table(x, y) -> FeatureTable:
    """Rows (rate, unif) with labels, one photo per tree."""
    n = len(y)
    return FeatureTable(tuple(f"t{i + 1}" for i in range(n)), ("p1",) * n,
                        np.array(x, dtype=np.float64).reshape(n, 2), y)


def toy_rows():
    return table([[0.0, 0.0], [1.0, 1.0]], [-1, 1])


def parse_transform(svg: str):
    match = TRANSFORM_RE.search(svg)
    assert match is not None, "missing data-to-screen comment"
    return tuple(float(g) for g in match.groups())


def elements(svg: str, local_name: str):
    root = ET.fromstring(svg)
    return [el for el in root.iter() if el.tag.endswith("}" + local_name)]


def line_endpoints_data(svg: str, line_id: str):
    """Both endpoints of an SVG line mapped back to (unif, rate) space."""
    ax, bx, ay, by = parse_transform(svg)
    for el in elements(svg, "line"):
        if el.get("id") == line_id:
            x1, y1 = float(el.get("x1")), float(el.get("y1"))
            x2, y2 = float(el.get("x2")), float(el.get("y2"))
            return ((x1 - bx) / ax, (y1 - by) / ay), ((x2 - bx) / ax, (y2 - by) / ay)
    raise AssertionError(f"no line with id {line_id}")


def slope(p1, p2):
    return (p2[1] - p1[1]) / (p2[0] - p1[0])


class TestLinearPlot:
    def test_document_is_well_formed(self):
        svg = render_svg(toy_rows(), toy_model())
        root = ET.fromstring(svg)
        assert root.tag.endswith("}svg")

    def test_boundary_passes_center(self):
        svg = render_svg(toy_rows(), toy_model())
        p1, p2 = line_endpoints_data(svg, "boundary")
        # distance from (0.5, 0.5) to the drawn chord, in data units
        d = np.array(p2) - np.array(p1)
        to_center = np.array([0.5, 0.5]) - np.array(p1)
        dist = abs(d[0] * to_center[1] - d[1] * to_center[0]) / np.hypot(*d)
        assert dist < 1e-9

    def test_margins_parallel_to_boundary(self):
        svg = render_svg(toy_rows(), toy_model())
        s0 = slope(*line_endpoints_data(svg, "boundary"))
        s1 = slope(*line_endpoints_data(svg, "margin-plus"))
        s2 = slope(*line_endpoints_data(svg, "margin-minus"))
        assert abs(s1 - s0) < 1e-9
        assert abs(s2 - s0) < 1e-9

    def test_margin_lines_dashed_boundary_solid(self):
        svg = render_svg(toy_rows(), toy_model())
        styles = {el.get("id"): el.get("stroke-dasharray") for el in elements(svg, "line")}
        assert styles["boundary"] is None
        assert styles["margin-plus"] is not None
        assert styles["margin-minus"] is not None

    def test_endpoints_sit_on_decision_levels(self):
        model = toy_model()
        svg = render_svg(toy_rows(), model)
        for line_id, level in (("boundary", 0.0), ("margin-plus", 1.0),
                               ("margin-minus", -1.0)):
            for unif, rate in line_endpoints_data(svg, line_id):
                f = decision_value(model, np.array([rate, unif]))
                assert f == pytest.approx(level, abs=1e-6)

    def test_normalized_model_lines_in_raw_space(self):
        # model trained on scaled coords; plot rows stay raw
        nz = Normalizer(mins=(0.0, 0.0), maxs=(1.0, 100.0))
        raw = np.array([[0.1, 20.0], [0.2, 30.0], [0.8, 70.0], [0.9, 90.0]])
        scaled = raw / np.array([1.0, 100.0])
        data = TrainingSet(scaled, np.array([1.0, 1.0, -1.0, -1.0]))
        model = train(data, TrainConfig(kernel="linear", C=100.0)).with_context(
            normalizer=nz
        )
        svg = render_svg(table(raw, [1, 1, -1, -1]), model)
        for unif, rate in line_endpoints_data(svg, "boundary"):
            f = decision_value(model, np.array([rate, unif]))
            assert f == pytest.approx(0.0, abs=1e-6)

    def test_support_vector_rings(self):
        svg = render_svg(toy_rows(), toy_model())
        rings = [el for el in elements(svg, "circle") if el.get("class") == "sv-ring"]
        points = [el for el in elements(svg, "circle") if el.get("class") == "pt"]
        assert len(rings) == 2
        assert len(points) == 2

    def test_point_count_and_colors(self):
        rows = table([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]], [-1, 1, -1])
        svg = render_svg(rows, toy_model())
        points = [el for el in elements(svg, "circle") if el.get("class") == "pt"]
        assert len(points) == 3
        fills = {el.get("fill") for el in points}
        assert len(fills) == 2

    def test_line_outside_range_noted(self):
        svg = render_svg(table([[0.2, 0.2], [0.3, 0.3]], [-1, 1]), toy_model())
        assert "boundary: outside the plotted range" in svg
        assert not any(el.get("id") == "boundary" for el in elements(svg, "line"))

    def test_axis_labels_present(self):
        svg = render_svg(toy_rows(), toy_model(), PlotSpec())
        texts = [el.text for el in elements(svg, "text")]
        assert "uniformity" in texts
        assert "black pixels rate" in texts


class TestRbfPlot:
    def test_no_lines_and_notice(self):
        data = TrainingSet(
            np.array([[0.1, 0.1], [0.9, 0.9], [0.1, 0.9], [0.9, 0.1]]),
            np.array([1.0, 1.0, -1.0, -1.0]),
        )
        model = train(data, TrainConfig(kernel="rbf", C=10.0))
        svg = render_svg(table(data.x, data.y), model)
        assert elements(svg, "line") == []
        assert "no boundary line: rbf kernel has no linear separator" in svg
        assert len(elements(svg, "circle")) >= 4


class TestValidation:
    def test_empty_rows(self):
        with pytest.raises(DimensionMismatch):
            render_svg(table([], []), toy_model())

    def test_wrong_dimension_model(self):
        data = TrainingSet(
            np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), np.array([-1.0, 1.0])
        )
        model = train(data, TrainConfig(kernel="linear", C=10.0))
        with pytest.raises(DimensionMismatch):
            render_svg(toy_rows(), model)

    def test_write_svg(self, tmp_path):
        path = tmp_path / "plot.svg"
        write_svg(path, toy_rows(), toy_model())
        assert path.read_text().startswith("<?xml")

    def test_write_svg_bad_path(self, tmp_path):
        with pytest.raises(IoError):
            write_svg(tmp_path / "no" / "plot.svg", toy_rows(), toy_model())
