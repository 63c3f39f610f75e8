import numpy as np
import pytest

from hankellab import Grid, MultiIndex, TransformPlan


@pytest.fixture(scope="session")
def plan_half():
    """Self-dual d=1 plan at alpha = 1/2, the workhorse for operator tests."""
    grid = Grid.build(MultiIndex((0.5,)), R=16.0, n=768)
    return TransformPlan.build(grid)


@pytest.fixture(scope="session")
def plan_2d():
    grid = Grid.build(MultiIndex((0.5, 1.0)), R=10.0, n=224)
    return TransformPlan.build(grid)


def gaussian_bump(grid, center, width):
    c = np.broadcast_to(np.atleast_1d(center), (grid.d,))
    return grid.sample(lambda *xs: np.exp(
        -np.sum(((np.stack(xs, axis=-1) - c) / width) ** 2, axis=-1)))
