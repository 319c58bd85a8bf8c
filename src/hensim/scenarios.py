"""Parameter records for ensemble experiments.

A record holds only what can change an output: yb = sqrt(1 - |xb|^2) follows
from xb, as a global phase of the auxiliary state changes nothing, and no
record has the second working qubit's mean frequency, which only turns z by a
local phase that concurrence cannot see.

All values are dimensionless: frequencies in units of omega_0, times in units
of 1/omega_0 (omega_0 = 1 throughout). Records are frozen dataclasses; once
constructed they can be shared freely across workers. A record's fields are
scalars, or for a stack of cases arrays that broadcast together, one entry
per case (the oracle suite's stacks hold (R, 1) columns). A record built from
outside values (a constructor or dataclasses.replace) checks every entry, its
messages naming the bad entry's own value; subset reuses a stack's checked entries.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields

import numpy as np


def _require(ok, value, message: str):
    """Raise ValueError(message.format(v)) unless ok holds for every entry.

    v is value itself where ok is a scalar; for a stack (ok an array of
    value's shape) it is the first entry of value where ok fails, as a Python
    number, so the message reads as that entry's scalar record would.
    """
    if not np.all(ok):
        if np.ndim(ok):
            value = np.asarray(value)[~ok][0].item()
        raise ValueError(message.format(value))


def _require_finite(**values):
    for name, value in values.items():
        _require(np.isfinite(value), value, f"{name} must be finite, got {{!r}}")


def coupling_c(alpha):
    """Amplitude factor sqrt(1 - 1/(4 alpha^2)) of the coupling law: in [0, 1) for any finite alpha.

    alpha is a scalar or an array, one value per scenario of a stack. Formed
    as the product of (alpha -+ 1/2) / alpha, which cannot overflow and,
    since alpha - 1/2 is exact for alpha <= 1, does not cancel near
    alpha = 1/2; it rounds to 1.0 in double precision from alpha of about
    7e7 on.
    """
    return np.sqrt((alpha - 0.5) / alpha * ((alpha + 0.5) / alpha))


def _check_model(s, variances):
    """Every field finite, alpha >= 1/2 and the named variance fields >= 0."""
    _require_finite(**{f.name: getattr(s, f.name) for f in fields(s)})
    _require(s.alpha >= 0.5, s.alpha, "alpha must be >= 1/2, got {}")
    for name in variances:
        _require(getattr(s, name) >= 0.0, getattr(s, name), f"{name} must be nonnegative, got {{}}")


@dataclass(frozen=True)
class SingleQubitScenario:
    """Working qubit A (frequency omega_a) coupled to auxiliary qubit B.

    B's level spacing is drawn from a mean-zero Gaussian of variance ``var``
    and sets the coupling f(eps) = sqrt(alpha^2 - 1/4) (eps - omega_a), alpha >= 1/2.
    Initial state: A in its ground state, B in xb|+> + yb|->, |xb| <= 1 and
    yb = sqrt(1 - |xb|^2) real.
    """

    omega_a: float
    alpha: float
    xb: complex
    var: float

    def __post_init__(self):
        _check_model(self, ("var",))
        _require(abs(self.xb) <= 1.0, abs(self.xb), "|xb| must be <= 1, got {}")

    @property
    def yb(self) -> float:
        return np.sqrt(1.0 - np.abs(self.xb) ** 2)


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
    alpha: float
    x: float
    var_a: float
    var_b: float

    def __post_init__(self):
        _check_model(self, ("var_a", "var_b"))
        _require((0.0 <= self.x) & (self.x <= 1.0), self.x, "x must lie in [0, 1], got {}")

    @property
    def y(self) -> float:
        return 1.0 - self.x


def subset(s, keep):
    """The record of the cases of stack s that ``keep`` indexes; a scalar field stays as it is.

    It reuses s's entries without a second check: each was checked when s was
    built, and hensim never writes a record's arrays in place."""
    out = object.__new__(type(s))
    vars(out).update(vars(s), **{name: v[keep] for name, v in vars(s).items() if np.ndim(v)})
    return out


def time_grid(t_max: float, points: int) -> np.ndarray:
    """Uniform grid of ``points`` samples on [0, t_max]."""
    _require_finite(t_max=t_max)
    # the kernels evaluate at k * step, and at a subnormal step np.linspace's
    # points stray up to (points - 1) / 2 subnormal units from those times
    if points < 2 or t_max / (points - 1) < sys.float_info.min:
        raise ValueError(f"need at least 2 points and t_max >= (points - 1) * {sys.float_info.min!r}"
                         f" (a normal time step), got t_max = {t_max!r} at {points} points")
    return np.linspace(0.0, float(t_max), int(points))
