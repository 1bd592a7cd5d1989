import numpy as np
import pytest

from fraclab import (
    FouParams,
    IncrementVector,
    SamplingGrid,
    SeedSpec,
    Trajectory,
    increments,
    make_grid,
    second_order_increments,
)
from fraclab.grids import _MAX_CELLS


class TestSamplingGrid:
    def test_nodes_and_horizon(self):
        grid = SamplingGrid(delta=0.25, count=4)
        assert grid.horizon == pytest.approx(1.0)
        np.testing.assert_allclose(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_make_grid_rounds_to_whole_cells(self):
        grid = make_grid(0.1, 1.0)
        assert grid.count == 10
        assert grid.delta == 0.1

    @pytest.mark.parametrize("delta,count", [(0.0, 5), (-1.0, 5), (0.1, 0)])
    def test_invalid_parameters_rejected(self, delta, count):
        with pytest.raises(ValueError):
            SamplingGrid(delta=delta, count=count)

    def test_coarsen_keeps_every_factor_th_node(self):
        grid = SamplingGrid(delta=0.1, count=12)
        for factor in (1, 2, 3, 4, 6, 12):
            coarse = grid.coarsen(factor)
            assert coarse == SamplingGrid(delta=0.1 * factor, count=12 // factor)
            np.testing.assert_allclose(coarse.nodes, grid.nodes[::factor], rtol=1e-15)
            assert coarse.horizon == pytest.approx(grid.horizon, rel=1e-15)

    @pytest.mark.parametrize("factor", [0, -2, 5, 24])
    def test_coarsen_needs_a_dividing_factor(self, factor):
        with pytest.raises(ValueError, match="cannot coarsen a 12-cell grid"):
            SamplingGrid(delta=0.1, count=12).coarsen(factor)

    def test_cell_count_capped_before_allocation(self):
        # a grid holds no arrays, so the cap is checked on the count alone
        assert SamplingGrid(delta=1.0, count=_MAX_CELLS).count == _MAX_CELLS
        with pytest.raises(ValueError, match=f"{_MAX_CELLS + 1} cells exceeds"):
            SamplingGrid(delta=1.0, count=_MAX_CELLS + 1)

    @pytest.mark.parametrize(
        "delta, horizon, message",
        [
            (1e-320, 1.0, "no finite cell count"),
            (0.005, 1e308, "no finite cell count"),
            (1e-9, 1.0, "1000000000 cells exceeds"),
        ],
    )
    def test_make_grid_rejects_unbuildable_counts(self, delta, horizon, message):
        with pytest.raises(ValueError, match=message):
            make_grid(delta, horizon)


class TestTrajectory:
    def test_length_must_match_grid(self):
        grid = SamplingGrid(delta=1.0, count=3)
        with pytest.raises(ValueError):
            Trajectory(grid, np.zeros(3))  # needs count + 1 nodes

    def test_non_finite_values_rejected(self):
        grid = SamplingGrid(delta=1.0, count=2)
        with pytest.raises(ValueError):
            Trajectory(grid, np.array([0.0, np.nan, 1.0]))

    def test_increments_are_first_differences(self):
        grid = SamplingGrid(delta=0.5, count=3)
        x = Trajectory(grid, np.array([0.0, 1.0, -1.0, 2.0]))
        dv = increments(x)
        assert isinstance(dv, IncrementVector)
        np.testing.assert_allclose(dv.values, [1.0, -2.0, 3.0])

    def test_second_differences(self):
        grid = SamplingGrid(delta=0.5, count=3)
        x = Trajectory(grid, np.array([0.0, 1.0, -1.0, 2.0]))
        np.testing.assert_allclose(second_order_increments(x), [-3.0, 5.0])

    def test_second_differences_vanish_on_linear_path(self):
        grid = SamplingGrid(delta=1.0, count=5)
        x = Trajectory(grid, 3.0 * grid.nodes + 2.0)
        np.testing.assert_allclose(second_order_increments(x), 0.0, atol=1e-14)


class TestFouParams:
    def test_valid(self):
        p = FouParams(theta=0.0, sigma=1.0, hurst=0.5)
        assert p.theta == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(theta=-0.1, sigma=1.0, hurst=0.5),
            dict(theta=1.0, sigma=0.0, hurst=0.5),
            dict(theta=1.0, sigma=-2.0, hurst=0.5),
            dict(theta=1.0, sigma=1.0, hurst=0.0),
            dict(theta=1.0, sigma=1.0, hurst=1.0),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FouParams(**kwargs)


class TestSeedSpec:
    def test_same_seed_same_stream(self):
        a = SeedSpec(42, 3).rng(0).standard_normal(8)
        b = SeedSpec(42, 3).rng(0).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_replicates_decorrelated(self):
        a = SeedSpec(42, 0).rng(0).standard_normal(8)
        b = SeedSpec(42, 1).rng(0).standard_normal(8)
        assert not np.allclose(a, b)

    def test_streams_decorrelated(self):
        a = SeedSpec(42, 0).rng(0).standard_normal(8)
        b = SeedSpec(42, 0).rng(1).standard_normal(8)
        assert not np.allclose(a, b)
