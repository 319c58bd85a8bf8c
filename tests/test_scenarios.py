import math
import re
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hensim.scenarios import SingleQubitScenario, TwoQubitScenario, coupling_c, subset, time_grid

BAD = [math.nan, math.inf, -math.inf]


def single(omega_a=0.0, xb=0.8, var=1.0):
    return SingleQubitScenario(omega_a, 1.0, xb, var)


def two(omega_a=0.0, alpha=1.0, x=0.2, var_b=0.0):
    return TwoQubitScenario(omega_a, alpha, x, 1.0, var_b)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("build", [
    lambda v: two(var_b=v),
    lambda v: single(var=v),
    lambda v: two(alpha=v),
    lambda v: single(omega_a=v),
    lambda v: single(xb=complex(v, 0.0)),
    lambda v: two(omega_a=v),
    lambda v: two(x=v),
    lambda v: time_grid(v, 10),
], ids=["var_b", "variance", "alpha", "single-omega_a", "xb", "two-omega_a", "x", "t_max"])
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



@settings(max_examples=500)
@given(data=st.data(), points=st.integers(2, 10**4))
@example(data=None, points=2)
@example(data=None, points=10**4)
def test_grid_step_is_the_kernels_step(data, points):
    # the realization kernels evaluate at k * (t_max / (points - 1)): that step
    # is time_grid's second point bit for bit, from the smallest normal step
    # (t_max = (points - 1) * 2^-1022, taken when data is None) to t_max = 1e300
    floor = (points - 1) * sys.float_info.min
    t_max = floor if data is None else data.draw(st.floats(floor, 1e300))
    step = t_max / (points - 1)
    assert step >= sys.float_info.min
    assert time_grid(t_max, points)[1].tobytes() == np.float64(step).tobytes()


class TestStackedRecords:
    # one record of R cases holds (R, 1) columns; one bad entry refuses the
    # whole stack with the message that entry's own scalar record gets
    R = 4
    GOOD = {SingleQubitScenario: {"omega_a": 0.0, "alpha": 1.0, "xb": 0.8 + 0j, "var": 1.0},
            TwoQubitScenario: {"omega_a": 0.0, "alpha": 1.0, "x": 0.2, "var_a": 1.0, "var_b": 0.0}}

    def columns(self, record):
        return {name: np.full((self.R, 1), v) for name, v in self.GOOD[record].items()}

    def test_good_stack_is_accepted(self):
        s = TwoQubitScenario(**self.columns(TwoQubitScenario))
        assert s.alpha.shape == (self.R, 1) and np.array_equal(s.y, np.full((self.R, 1), 0.8))
        assert SingleQubitScenario(**self.columns(SingleQubitScenario)).xb.shape == (self.R, 1)

    def test_yb_follows_from_xb(self):
        # yb = sqrt(1 - |xb|^2), a real column for a stack of complex amplitudes
        xb = np.array([[0.0], [0.6j], [0.8 * np.exp(2j)], [1.0]])
        s = SingleQubitScenario(0.0, 1.0, xb, 1.0)
        assert s.yb.shape == (self.R, 1) and s.yb.dtype == float
        assert np.array_equal(s.yb, np.sqrt(1.0 - np.abs(xb) ** 2))
        np.testing.assert_allclose(s.yb, [[1.0], [0.8], [0.6], [0.0]], rtol=0.0, atol=1e-15)
        assert single(xb=0.6).yb == np.sqrt(1.0 - 0.6**2)

    @pytest.mark.parametrize("record, field, bad, message", [
        (TwoQubitScenario, "alpha", 0.3, "alpha must be >= 1/2, got 0.3"),
        (SingleQubitScenario, "alpha", 0.3, "alpha must be >= 1/2, got 0.3"),
        (TwoQubitScenario, "x", 1.5, "x must lie in [0, 1], got 1.5"),
        (TwoQubitScenario, "var_b", -1.0, "var_b must be nonnegative, got -1.0"),
        (TwoQubitScenario, "var_a", -1.0, "var_a must be nonnegative, got -1.0"),
        (SingleQubitScenario, "var", -1.0, "var must be nonnegative, got -1.0"),
        (TwoQubitScenario, "omega_a", math.nan, "omega_a must be finite, got nan"),
        (SingleQubitScenario, "omega_a", math.nan, "omega_a must be finite, got nan"),
        (SingleQubitScenario, "xb", complex(math.inf, 0.0), "xb must be finite, got (inf+0j)"),
        (SingleQubitScenario, "xb", 0.9 + 1.2j, "|xb| must be <= 1, got 1.5"),
    ])
    def test_one_bad_entry_refuses_the_stack(self, record, field, bad, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            record(**{**self.GOOD[record], field: bad})
        columns = self.columns(record)
        columns[field][2] = bad
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            record(**columns)

    def test_message_names_the_first_bad_entry(self):
        columns = self.columns(TwoQubitScenario)
        columns["alpha"][1], columns["alpha"][3] = 0.4, 0.3
        with pytest.raises(ValueError, match=r"^alpha must be >= 1/2, got 0\.4$"):
            TwoQubitScenario(**columns)


class TestSubset:
    # subset reuses the checked entries of the stack it takes its cases from:
    # it runs no check, and gives the record dataclasses.replace would build
    # from the same gathered fields; every record built from outside values is
    # still checked
    STACKS = {
        TwoQubitScenario: dict(omega_a=3.0, alpha=np.linspace(0.5, 3.0, 6), x=0.2,
                               var_a=np.linspace(0.1, 2.0, 6), var_b=np.arange(6.0)),
        SingleQubitScenario: dict(omega_a=np.arange(6.0), alpha=2.0,
                                  xb=0.6 * np.exp(1j * np.arange(6.0)), var=1.0),
    }
    KEEPS = {"mask": np.array([True, False, True, True, False, True]),
             "index": np.array([4, 0, 0, 2]), "slice": slice(1, 5), "column": (slice(2, 6), None)}

    @pytest.mark.parametrize("keep", KEEPS.values(), ids=KEEPS.keys())
    @pytest.mark.parametrize("record", STACKS, ids=lambda r: r.__name__)
    def test_subset_reuses_checked_entries(self, monkeypatch, record, keep):
        s = record(**self.STACKS[record])
        built = replace(s, **{name: v[keep] for name, v in vars(s).items() if np.ndim(v)})
        checks = []
        monkeypatch.setattr(record, "__post_init__", lambda r: checks.append(r))
        out = subset(s, keep)
        assert checks == [] and type(out) is record
        for f in fields(record):
            got, want = getattr(out, f.name), getattr(built, f.name)
            assert np.shape(got) == np.shape(want), f.name
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), f.name

    def test_records_from_outside_values_are_still_checked(self):
        s = TwoQubitScenario(**self.STACKS[TwoQubitScenario])
        with pytest.raises(ValueError, match=r"^alpha must be >= 1/2, got 0\.3$"):
            replace(subset(s, slice(1, 3)), alpha=0.3)
        with pytest.raises(ValueError, match=r"^x must lie in \[0, 1\], got 1\.5$"):
            TwoQubitScenario(**{**self.STACKS[TwoQubitScenario], "x": 1.5})
        with pytest.raises(ValueError, match=r"^var must be nonnegative, got -1\.0$"):
            SingleQubitScenario(**{**self.STACKS[SingleQubitScenario], "var": -1.0})
