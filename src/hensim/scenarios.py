"""Parameter records for ensemble experiments.

All values are dimensionless: frequencies in units of omega_0, times in units
of 1/omega_0 (omega_0 = 1 throughout). Records are frozen dataclasses; once
constructed they can be shared freely across workers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

_NORM_TOL = 1e-12


def _require_finite(**values):
    for name, value in values.items():
        if not cmath.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def coupling_c(alpha: float) -> float:
    """Amplitude factor sqrt(1 - 1/(4 alpha^2)) of the coupling law: in [0, 1) for any finite alpha.

    Formed from r = 1/(2 alpha), which cannot overflow; it rounds to 1.0
    in double precision from alpha of about 7e7 on.
    """
    r = 0.5 / alpha
    return math.sqrt((1.0 - r) * (1.0 + r))


def _check_model(s, variances):
    """Every field finite, alpha >= 1/2 and the named variance fields >= 0."""
    _require_finite(**{f.name: getattr(s, f.name) for f in fields(s)})
    if not (s.alpha >= 0.5):
        raise ValueError(f"alpha must be >= 1/2, got {s.alpha}")
    for name in variances:
        if not (getattr(s, name) >= 0.0):
            raise ValueError(f"{name} must be nonnegative, got {getattr(s, name)}")


@dataclass(frozen=True)
class SingleQubitScenario:
    """Working qubit A (frequency omega_a) coupled to auxiliary qubit B.

    B's level spacing is drawn from a mean-zero Gaussian of variance ``var``
    and sets the coupling f(eps) = sqrt(alpha^2 - 1/4) (eps - omega_a), alpha >= 1/2.
    Initial state: A in its ground state, B in xb|+> + yb|->.
    """

    omega_a: float
    alpha: float
    xb: complex
    yb: complex
    var: float

    def __post_init__(self):
        _check_model(self, ("var",))
        norm = abs(self.xb) ** 2 + abs(self.yb) ** 2
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"|xb|^2 + |yb|^2 must be 1, got {norm!r}")


@dataclass(frozen=True)
class TwoQubitScenario:
    """Two working qubits in a Bell state; the first one coupled to an auxiliary qubit.

    The auxiliary qubit starts in the mixture x |+><+| + y |-><-|, y = 1 - x.
    Its level spacing is drawn from a mean-zero Gaussian of variance var_a and
    sets the coupling as in SingleQubitScenario (longitudinal relaxation); the
    second working qubit's spacing carries a mean-zero Gaussian shift of
    variance var_b (transverse relaxation).
    """

    omega_a: float
    omega_b: float
    alpha: float
    x: float
    var_a: float
    var_b: float

    def __post_init__(self):
        _check_model(self, ("var_a", "var_b"))
        if not (0.0 <= self.x <= 1.0):
            raise ValueError(f"x must lie in [0, 1], got {self.x}")

    @property
    def y(self) -> float:
        return 1.0 - self.x


@dataclass
class Trajectory:
    """Time grid plus per-time named value columns, with provenance metadata.

    ``meta`` records at least the source tag ("analytic" or "monte-carlo") and,
    for sampled trajectories, the sample count and master seed.
    """

    times: np.ndarray
    columns: dict[str, np.ndarray]
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or len(self.times) == 0:
            raise ValueError("times must be a nonempty 1-d grid")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        for name, col in self.columns.items():
            col = np.asarray(col)
            if col.shape != self.times.shape:
                raise ValueError(
                    f"column {name!r} has length {col.shape}, expected {self.times.shape}"
                )
            self.columns[name] = col


@dataclass
class XState:
    """The five nonzero entries (a, b, c, d, z) of a two-qubit X state.

    In the standard {|++>, |+->, |-+>, |-->} basis the diagonal is
    (b, a, d, c) and z sits on the |++><--| corner; a, b, c, d are real and z
    is complex. The entries may be scalars or arrays over realizations and
    times, for one realization or for an ensemble average.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    z: np.ndarray


def time_grid(t_max: float, points: int = 400) -> np.ndarray:
    """Uniform grid of ``points`` samples on [0, t_max] (default density 400)."""
    _require_finite(t_max=t_max)
    if t_max <= 0 or points < 2:
        raise ValueError("need t_max > 0 and at least 2 points")
    return np.linspace(0.0, float(t_max), int(points))
