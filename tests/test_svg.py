import math
import xml.etree.ElementTree as ET

import pytest

from mixbiotic.generators import WsParams
from mixbiotic.measures import PolarPoint
from mixbiotic.svg import (
    PHASE_COLORS,
    RADAR_AXES,
    render_phase_svg,
    render_radar_svg,
    render_trajectory_svg,
)
from mixbiotic.sweep import MeshSpec, SweepConfig, build_mesh, run_sweep


def parse(svg_text):
    return ET.fromstring(svg_text)


@pytest.fixture(scope="module")
def small_grid():
    cfg = SweepConfig(network=WsParams(20, 4, 0.5), trials=1, t_max=10, n_0=3, base_seed=4)
    return run_sweep(cfg, build_mesh(MeshSpec(grid_step=0.5, extra_points=[])))


class TestPhaseSvg:
    def test_valid_xml_with_cell_per_point(self, small_grid):
        root = parse(render_phase_svg(small_grid))
        rects = root.findall(".//{http://www.w3.org/2000/svg}rect")
        # one cell per mesh point, plus frame, legend, and background
        assert len(rects) >= len(small_grid.points) + 4

    def test_legend_names_all_phases(self, small_grid):
        text = render_phase_svg(small_grid)
        for phase in PHASE_COLORS:
            assert phase in text

    def test_deterministic(self, small_grid):
        assert render_phase_svg(small_grid) == render_phase_svg(small_grid)

    def test_empty_grid_rejected(self, small_grid):
        from mixbiotic.sweep import PhaseGrid

        with pytest.raises(ValueError):
            render_phase_svg(PhaseGrid([], small_grid.config))


class TestTrajectorySvg:
    def test_single_point_on_axis(self):
        text = render_trajectory_svg([PolarPoint(2.0, 0.0)])
        root = parse(text)
        assert root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert "circle" in text  # start/end markers

    def test_all_zero_trace(self):
        text = render_trajectory_svg([PolarPoint(0.0, 0.0), PolarPoint(0.0, 0.0)])
        assert parse(text).tag.endswith("svg")

    def test_deterministic(self):
        points = [PolarPoint(r, r / 10) for r in range(1, 6)]
        assert render_trajectory_svg(points) == render_trajectory_svg(points)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            render_trajectory_svg([])

    def test_quarter_plane_geometry(self):
        # theta = pi/2 should land directly above the origin
        text = render_trajectory_svg([PolarPoint(1.0, math.pi / 2)])
        root = parse(text)
        circle = root.findall(".//{http://www.w3.org/2000/svg}circle")[0]
        assert float(circle.get("cx")) == pytest.approx(50.0, abs=0.5)  # margin x


class TestRadarSvg:
    def test_polygon_per_case_and_axis_labels(self):
        cases = [("a", [0.5] * 9), ("b", [1.0] * 9)]
        text = render_radar_svg(cases)
        root = parse(text)
        polygons = root.findall(".//{http://www.w3.org/2000/svg}polygon")
        assert len(polygons) == 4 + 2  # rings + cases
        for axis in RADAR_AXES:
            assert axis in text

    def test_wrong_axis_count_rejected(self):
        with pytest.raises(ValueError):
            render_radar_svg([("a", [0.5] * 8)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            render_radar_svg([])

    def test_deterministic(self):
        cases = [("x", [0.1 * i for i in range(9)])]
        assert render_radar_svg(cases) == render_radar_svg(cases)
