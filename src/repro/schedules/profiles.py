"""Learning-rate *profiles*.

The paper (Section 3) decomposes a learning-rate schedule into:

* a **profile** — a continuous function ``p(s)`` of training progress
  ``s = t / T`` that dictates the shape of the decay, normalised so that
  ``p(0) = 1`` (the multiplier on the initial learning rate); and
* a **sampling rate** — how often the learning rate is re-sampled from the
  profile (see :mod:`repro.schedules.sampling`).

This module implements every profile discussed in the paper plus a couple of
common extras.  All profiles are pure, stateless callables on ``s in [0, 1]``
and support vectorised evaluation on numpy arrays.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "Profile",
    "LinearProfile",
    "REXProfile",
    "CosineProfile",
    "ExponentialProfile",
    "StepApproxProfile",
    "PolynomialProfile",
    "ConstantProfile",
    "PiecewiseConstantProfile",
    "DelayedLinearProfile",
    "CompositeProfile",
]


#: how far outside [0, 1] a progress value may stray (float round-off) before it is rejected
_PROGRESS_SLACK = 1e-9


def _progress_error(low: float, high: float) -> ValueError:
    return ValueError(f"progress values must lie in [0, 1], got range [{low}, {high}]")


def _validate_progress(s: np.ndarray | float) -> np.ndarray:
    arr = np.asarray(s, dtype=np.float64)
    if np.any(arr < -_PROGRESS_SLACK) or np.any(arr > 1.0 + _PROGRESS_SLACK):
        raise _progress_error(arr.min(), arr.max())
    return np.clip(arr, 0.0, 1.0)


def _validate_scalar_progress(s: float) -> float:
    """:func:`_validate_progress` for one Python number, without building an array."""
    s = float(s)
    if s < -_PROGRESS_SLACK or s > 1.0 + _PROGRESS_SLACK:
        raise _progress_error(s, s)
    # max/min keep NaN and -0.0 exactly as np.clip does
    return min(max(s, 0.0), 1.0)


#: ``**`` applied element by element to Python floats
_PY_POW = np.frompyfunc(pow, 2, 1)


def _pow_each(base: np.ndarray | float, exponent: np.ndarray | float) -> np.ndarray:
    """``base ** exponent`` per element through C ``pow``, as a Python float takes it.

    numpy's array power loop (squaring for exponent 2, its own vectorised
    ``pow`` otherwise) can differ from C ``pow`` in the last bit, while a 0-d
    value and a Python float both go through C ``pow``.  A schedule takes its
    per-step value as a Python float, so array progress (``Profile.curve``,
    Figure 2) takes the same route and agrees with it bit for bit.
    """
    return np.asarray(_PY_POW(base, exponent), dtype=np.float64)


class Profile:
    """Base class for learning-rate profiles.

    Sub-classes implement :meth:`value` on clipped progress, which is an array
    or (on the per-step scalar path) a Python float.  The public entry point
    :meth:`__call__` accepts scalars or arrays and returns the same kind.
    """

    #: short identifier used by the registry and result tables
    name: str = "profile"

    def value(self, s: np.ndarray) -> np.ndarray:
        """Evaluate the profile on already clipped progress (subclass hook)."""
        raise NotImplementedError

    def __call__(self, s: np.ndarray | float) -> np.ndarray | float:
        if isinstance(s, (float, int)):
            # A schedule asks for one value per optimiser step; plain float
            # arithmetic is bitwise equal to the 0-d array path and ~20x cheaper.
            return float(self.value(_validate_scalar_progress(s)))
        arr = _validate_progress(s)
        out = self.value(arr)
        if np.isscalar(s) or (isinstance(s, np.ndarray) and s.ndim == 0):
            return float(out)
        return out

    def curve(self, num_points: int = 101) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate the profile on an evenly spaced grid (for plotting)."""
        if num_points < 2:
            raise ValueError("num_points must be at least 2")
        s = np.linspace(0.0, 1.0, num_points)
        return s, np.asarray(self.value(s), dtype=np.float64)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class LinearProfile(Profile):
    """``p(s) = 1 - s`` — the linear schedule's profile [Li et al., 2020]."""

    name = "linear"

    def value(self, s: np.ndarray) -> np.ndarray:
        """``1 - s``."""
        return 1.0 - s


class REXProfile(Profile):
    """The Reflected Exponential (REX) profile — the paper's proposal.

    The paper defines (Section 4.1):

        ``eta_t = eta_0 * (1 - s) / (1/2 + 1/2 * (1 - s))``  with ``s = t/T``.

    This class generalises the two constants into ``alpha`` and ``beta`` (the
    paper's profile is ``alpha = beta = 0.5``), normalised so that
    ``p(0) = 1`` for any choice.  The generalisation is exposed only for the
    ablation benchmarks; the default arguments reproduce the paper exactly.

    Properties worth noting (and tested in ``tests/test_profiles.py``):

    * ``p(0) = 1`` and ``p(1) = 0``;
    * ``p(s) >= 1 - s`` for all ``s`` (REX lies above the linear profile, i.e.
      it holds the learning rate higher for longer — the "interpolation
      between linear and delayed linear" the paper describes);
    * the decay is steepest near the end of training ("aggressively decreases
      the learning rate towards the end", the reflection of exponential decay).
    """

    name = "rex"

    def __init__(self, alpha: float = 0.5, beta: float = 0.5) -> None:
        if alpha <= 0 or beta < 0:
            raise ValueError("REX requires alpha > 0 and beta >= 0")
        self.alpha = float(alpha)
        self.beta = float(beta)

    def value(self, s: np.ndarray) -> np.ndarray:
        """``(1 - s) * (alpha + beta) / (alpha + beta * (1 - s))``."""
        remaining = 1.0 - s
        normaliser = self.alpha + self.beta  # makes p(0) == 1
        return remaining * normaliser / (self.alpha + self.beta * remaining)

    def __repr__(self) -> str:
        return f"REXProfile(alpha={self.alpha}, beta={self.beta})"


class CosineProfile(Profile):
    """``p(s) = (1 + cos(pi * s)) / 2`` — cosine annealing [Loshchilov & Hutter]."""

    name = "cosine"

    def value(self, s: np.ndarray) -> np.ndarray:
        """``(1 + cos(pi * s)) / 2``."""
        return 0.5 * (1.0 + np.cos(np.pi * s))


class ExponentialProfile(Profile):
    """``p(s) = exp(gamma * s)`` — exponential decay.

    The paper tunes ``gamma`` and reports that ``gamma = -3`` works best for
    the exponential *schedule*; the step-approximation profile uses a steeper
    gamma (see :class:`StepApproxProfile`).
    """

    name = "exponential"

    def __init__(self, gamma: float = -3.0) -> None:
        if gamma >= 0:
            raise ValueError(f"exponential decay requires gamma < 0, got {gamma}")
        self.gamma = float(gamma)

    def value(self, s: np.ndarray) -> np.ndarray:
        """``exp(gamma * s)``."""
        return np.exp(self.gamma * s)

    def __repr__(self) -> str:
        return f"ExponentialProfile(gamma={self.gamma})"


class StepApproxProfile(ExponentialProfile):
    """Exponential profile tuned to approximate the 50-75 step schedule.

    Table 2 of the paper benchmarks "the 50-75 step schedule approximated as a
    tuned exponentially decaying profile".  With decay factor 0.1 applied at
    50% of training, the matching exponential has ``exp(gamma * 0.5) = 0.1``,
    i.e. ``gamma = 2 * ln(0.1) ≈ -4.61``; sampling this profile at the 50% and
    75% milestones recovers multipliers 0.1 and ≈0.03, close to the step
    schedule's 0.1 and 0.01.
    """

    name = "step_approx"

    def __init__(self, decay_factor: float = 0.1, first_milestone: float = 0.5) -> None:
        if not 0 < decay_factor < 1:
            raise ValueError(f"decay_factor must be in (0, 1), got {decay_factor}")
        if not 0 < first_milestone < 1:
            raise ValueError(f"first_milestone must be in (0, 1), got {first_milestone}")
        self.decay_factor = float(decay_factor)
        self.first_milestone = float(first_milestone)
        super().__init__(gamma=math.log(decay_factor) / first_milestone)

    def __repr__(self) -> str:
        return (
            f"StepApproxProfile(decay_factor={self.decay_factor}, "
            f"first_milestone={self.first_milestone})"
        )


class PolynomialProfile(Profile):
    """``p(s) = (1 - s) ** power`` — polynomial decay (power=1 is linear)."""

    name = "polynomial"

    def __init__(self, power: float = 2.0) -> None:
        if power <= 0:
            raise ValueError(f"power must be positive, got {power}")
        self.power = float(power)

    def value(self, s: np.ndarray) -> np.ndarray:
        """``(1 - s) ** power``."""
        remaining = 1.0 - s
        if isinstance(remaining, float):
            return remaining**self.power
        return _pow_each(remaining, self.power)

    def __repr__(self) -> str:
        return f"PolynomialProfile(power={self.power})"


class ConstantProfile(Profile):
    """``p(s) = 1`` — no decay (the paper's bare-optimizer baseline)."""

    name = "constant"

    def value(self, s: np.ndarray) -> np.ndarray:
        """``1`` everywhere."""
        if isinstance(s, float):
            return 1.0
        return np.ones_like(s)


class PiecewiseConstantProfile(Profile):
    """Step-function profile: multiply by ``factor`` after each milestone.

    With the defaults (milestones 0.5 and 0.75, factor 0.1) this is the exact
    profile of the paper's step schedule ("decay the learning rate by 0.1 at
    1/2 epochs and again by 0.1 at 3/4 epochs").
    """

    name = "step"

    def __init__(
        self, milestones: Sequence[float] = (0.5, 0.75), factor: float = 0.1
    ) -> None:
        milestones = tuple(sorted(float(m) for m in milestones))
        if not milestones:
            raise ValueError("at least one milestone is required")
        if any(not 0 < m < 1 for m in milestones):
            raise ValueError(f"milestones must lie in (0, 1), got {milestones}")
        if not 0 < factor < 1:
            raise ValueError(f"factor must be in (0, 1), got {factor}")
        self.milestones = milestones
        self.factor = float(factor)

    def value(self, s: np.ndarray) -> np.ndarray:
        """``factor ** (number of milestones crossed by s)``."""
        crossings = 0.0
        for m in self.milestones:
            crossings = crossings + (s >= m) * 1.0
        if isinstance(crossings, float):
            return self.factor**crossings
        return _pow_each(self.factor, crossings)

    def __repr__(self) -> str:
        return f"PiecewiseConstantProfile(milestones={self.milestones}, factor={self.factor})"


class DelayedLinearProfile(Profile):
    """Hold the initial learning rate until ``delay_fraction``, then decay linearly to 0.

    This is the "Linear Delayed X%" variant of Figure 3, which motivates REX:
    delaying the onset of decay helps for large budgets but adds a
    hyperparameter.  REX interpolates between this and the plain linear
    profile with no extra knob.
    """

    name = "delayed_linear"

    def __init__(self, delay_fraction: float) -> None:
        if not 0.0 <= delay_fraction < 1.0:
            raise ValueError(f"delay_fraction must be in [0, 1), got {delay_fraction}")
        self.delay_fraction = float(delay_fraction)

    def value(self, s: np.ndarray) -> np.ndarray:
        """``1`` until the delay point, then linear decay to 0."""
        d = self.delay_fraction
        decayed = (1.0 - s) / (1.0 - d)
        if isinstance(s, float):
            # max/min keep NaN exactly as np.clip does
            return 1.0 if s <= d else min(max(decayed, 0.0), 1.0)
        return np.where(s <= d, 1.0, np.clip(decayed, 0.0, 1.0))

    def __repr__(self) -> str:
        return f"DelayedLinearProfile(delay_fraction={self.delay_fraction})"


class CompositeProfile(Profile):
    """Concatenate two profiles at a switch point (e.g. warmup then decay).

    ``first`` runs on ``[0, switch)`` re-scaled to its own full range, and
    ``second`` on ``[switch, 1]``; the second profile is scaled so the curve is
    continuous at the switch point.
    """

    name = "composite"

    def __init__(self, first: Profile, second: Profile, switch: float) -> None:
        if not 0.0 < switch < 1.0:
            raise ValueError(f"switch must be in (0, 1), got {switch}")
        self.first = first
        self.second = second
        self.switch = float(switch)

    def value(self, s: np.ndarray) -> np.ndarray:
        """First profile before the switch point, rescaled second profile after."""
        sw = self.switch
        first_local = np.clip(s / sw, 0.0, 1.0)
        second_local = np.clip((s - sw) / (1.0 - sw), 0.0, 1.0)
        join_value = float(np.asarray(self.first.value(np.asarray([1.0]))).reshape(-1)[0])
        out_first = self.first.value(first_local)
        out_second = join_value * np.asarray(self.second.value(second_local))
        return np.where(s < sw, out_first, out_second)

    def __repr__(self) -> str:
        return f"CompositeProfile({self.first!r}, {self.second!r}, switch={self.switch})"
