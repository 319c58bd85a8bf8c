import math

import numpy as np
import pytest

from hensim.scenarios import SingleQubitScenario, TwoQubitScenario, coupling_c, time_grid

BAD = [math.nan, math.inf, -math.inf]


def single(omega_a=0.0, xb=0.8, yb=0.6, var=1.0):
    return SingleQubitScenario(omega_a, 1.0, xb, yb, var)


def two(omega_a=0.0, omega_b=0.0, alpha=1.0, x=0.2, var_b=0.0):
    return TwoQubitScenario(omega_a, omega_b, alpha, x, 1.0, var_b)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("build", [
    lambda v: two(var_b=v),
    lambda v: single(var=v),
    lambda v: two(alpha=v),
    lambda v: single(omega_a=v),
    lambda v: single(xb=complex(v, 0.0)),
    lambda v: two(omega_a=v),
    lambda v: two(omega_b=v),
    lambda v: two(x=v),
    lambda v: time_grid(v, 10),
], ids=["var_b", "variance", "alpha", "single-omega_a", "xb", "two-omega_a", "omega_b", "x",
        "t_max"])
def test_non_finite_rejected(build, bad):
    with pytest.raises(ValueError, match="must be finite"):
        build(bad)


class TestCouplingFactor:
    @pytest.mark.parametrize("alpha", [1e154, 1.34e154, 1e160, 1e300])
    def test_finite_for_huge_alpha(self, alpha):
        c = coupling_c(alpha)
        # 1 - c ~ 1/(8 alpha^2) is far below one ulp of 1, so c rounds to 1.0
        assert math.isfinite(c) and 0.0 < c <= 1.0

    def test_matches_former_form(self):
        def former(alpha):
            return math.sqrt(4.0 * alpha**2 - 1.0) / (2.0 * alpha)

        rng = np.random.default_rng(5)
        alphas = np.concatenate([np.geomspace(0.5, 1e6, 2001), rng.uniform(0.5, 2.0, 2000),
                                 rng.uniform(0.5, 1e6, 2000)])
        for alpha in alphas:
            c, old = coupling_c(alpha), former(alpha)
            if alpha >= 0.51:
                assert abs(c - old) <= 1e-15
            else:
                # both forms lose digits like 1/c as c -> 0, so compare the squares
                assert abs(c * c - old * old) <= 1e-15
        assert coupling_c(0.5) == 0.0
