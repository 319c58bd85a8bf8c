import math

import pytest

from hensim.scenarios import (
    CouplingLaw,
    GaussianSpec,
    SingleQubitScenario,
    TwoQubitScenario,
    time_grid,
)

BAD = [math.nan, math.inf, -math.inf]


def single(omega_a=0.0, xb=0.8, yb=0.6):
    return SingleQubitScenario(omega_a, CouplingLaw(1.0), xb, yb, GaussianSpec(0.0, 1.0))


def two(omega_a=0.0, omega_b=0.0, x=0.2, y=0.8):
    return TwoQubitScenario(omega_a, omega_b, CouplingLaw(1.0), x, y,
                            GaussianSpec(0.0, 1.0), GaussianSpec(0.0, 0.0))


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("build", [
    lambda v: GaussianSpec(v, 1.0),
    lambda v: GaussianSpec(0.0, v),
    lambda v: CouplingLaw(v),
    lambda v: single(omega_a=v),
    lambda v: single(xb=complex(v, 0.0)),
    lambda v: two(omega_a=v),
    lambda v: two(omega_b=v),
    lambda v: two(x=v),
    lambda v: time_grid(v, 10),
], ids=["mean", "variance", "alpha", "single-omega_a", "xb", "two-omega_a", "omega_b", "x",
        "t_max"])
def test_non_finite_rejected(build, bad):
    with pytest.raises(ValueError, match="must be finite"):
        build(bad)
