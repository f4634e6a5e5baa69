"""Tests for the learning-rate profiles (the paper's Section 3 framework)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.schedules.profiles import (
    CompositeProfile,
    ConstantProfile,
    CosineProfile,
    DelayedLinearProfile,
    ExponentialProfile,
    LinearProfile,
    PiecewiseConstantProfile,
    PolynomialProfile,
    Profile,
    REXProfile,
    StepApproxProfile,
)

ALL_PROFILES = [
    LinearProfile(),
    REXProfile(),
    CosineProfile(),
    ExponentialProfile(gamma=-3.0),
    StepApproxProfile(),
    PolynomialProfile(power=2.0),
    ConstantProfile(),
    PiecewiseConstantProfile(),
    DelayedLinearProfile(0.5),
]

progress_values = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestProfileInterface:
    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: type(p).__name__)
    def test_starts_at_one(self, profile):
        assert float(profile(0.0)) == pytest.approx(1.0)

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: type(p).__name__)
    def test_bounded_between_zero_and_one(self, profile):
        s = np.linspace(0, 1, 101)
        values = np.asarray(profile(s))
        assert np.all(values >= -1e-12)
        assert np.all(values <= 1.0 + 1e-12)

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: type(p).__name__)
    def test_monotone_non_increasing(self, profile):
        s = np.linspace(0, 1, 201)
        values = np.asarray(profile(s))
        assert np.all(np.diff(values) <= 1e-12)

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: type(p).__name__)
    def test_scalar_and_array_agree(self, profile):
        s = np.array([0.0, 0.3, 0.7, 1.0])
        array_vals = np.asarray(profile(s))
        scalar_vals = np.array([profile(float(x)) for x in s])
        np.testing.assert_allclose(array_vals, scalar_vals)

    def test_out_of_range_progress_rejected(self):
        with pytest.raises(ValueError):
            LinearProfile()(1.5)
        with pytest.raises(ValueError):
            LinearProfile()(-0.2)

    def test_curve_helper(self):
        s, v = REXProfile().curve(11)
        assert len(s) == len(v) == 11
        assert s[0] == 0.0 and s[-1] == 1.0
        with pytest.raises(ValueError):
            REXProfile().curve(1)

    def test_base_profile_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Profile()(0.5)


class TestREXProfile:
    def test_matches_paper_formula(self):
        rex = REXProfile()
        for s in np.linspace(0, 1, 50):
            expected = (1 - s) / (0.5 + 0.5 * (1 - s))
            assert float(rex(float(s))) == pytest.approx(expected)

    def test_ends_at_zero(self):
        assert float(REXProfile()(1.0)) == pytest.approx(0.0)

    @given(progress_values)
    @settings(max_examples=200, deadline=None)
    def test_rex_dominates_linear(self, s):
        """REX holds the LR at or above the linear profile everywhere (the
        'interpolation towards delayed linear' property the paper describes)."""
        assert float(REXProfile()(s)) >= float(LinearProfile()(s)) - 1e-12

    @given(progress_values)
    @settings(max_examples=200, deadline=None)
    def test_rex_below_delayed_linear_with_late_onset(self, s):
        """REX never exceeds a sufficiently delayed linear schedule's value...

        ...for the delay of 50%: delayed linear holds 1.0 until 50% then decays;
        REX at 50% is 2/3 < 1.0, and both reach 0 at s=1.
        """
        delayed = DelayedLinearProfile(0.5)
        if s <= 0.5:
            assert float(REXProfile()(s)) <= float(delayed(s)) + 1e-12

    def test_steeper_decay_towards_the_end(self):
        """The REX profile loses more value in the last 10% than in the first 10%."""
        rex = REXProfile()
        early_drop = float(rex(0.0)) - float(rex(0.1))
        late_drop = float(rex(0.9)) - float(rex(1.0))
        assert late_drop > early_drop

    def test_generalised_parameters(self):
        rex = REXProfile(alpha=1.0, beta=0.0)
        # with beta=0 the profile reduces to linear
        for s in np.linspace(0, 1, 20):
            assert float(rex(float(s))) == pytest.approx(1 - s)
        with pytest.raises(ValueError):
            REXProfile(alpha=0.0)


class TestSpecificProfiles:
    def test_linear(self):
        assert float(LinearProfile()(0.25)) == pytest.approx(0.75)

    def test_cosine_midpoint(self):
        assert float(CosineProfile()(0.5)) == pytest.approx(0.5)
        assert float(CosineProfile()(1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_exponential_value_and_validation(self):
        prof = ExponentialProfile(gamma=-3.0)
        assert float(prof(1.0)) == pytest.approx(np.exp(-3.0))
        with pytest.raises(ValueError):
            ExponentialProfile(gamma=1.0)

    def test_step_approx_hits_decay_factor_at_first_milestone(self):
        prof = StepApproxProfile(decay_factor=0.1, first_milestone=0.5)
        assert float(prof(0.5)) == pytest.approx(0.1)
        assert float(prof(1.0)) == pytest.approx(0.01)
        with pytest.raises(ValueError):
            StepApproxProfile(decay_factor=1.5)

    def test_piecewise_constant_steps(self):
        prof = PiecewiseConstantProfile(milestones=(0.5, 0.75), factor=0.1)
        assert float(prof(0.49)) == pytest.approx(1.0)
        assert float(prof(0.5)) == pytest.approx(0.1)
        assert float(prof(0.8)) == pytest.approx(0.01)
        with pytest.raises(ValueError):
            PiecewiseConstantProfile(milestones=())
        with pytest.raises(ValueError):
            PiecewiseConstantProfile(milestones=(1.5,))

    def test_polynomial_and_validation(self):
        assert float(PolynomialProfile(2.0)(0.5)) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            PolynomialProfile(0.0)

    def test_delayed_linear_holds_then_decays(self):
        prof = DelayedLinearProfile(0.6)
        assert float(prof(0.3)) == pytest.approx(1.0)
        assert float(prof(0.6)) == pytest.approx(1.0)
        assert float(prof(0.8)) == pytest.approx(0.5)
        assert float(prof(1.0)) == pytest.approx(0.0)
        with pytest.raises(ValueError):
            DelayedLinearProfile(1.0)

    def test_composite_profile_continuous_at_switch(self):
        prof = CompositeProfile(ConstantProfile(), LinearProfile(), switch=0.4)
        eps = 1e-6
        before = float(prof(0.4 - eps))
        after = float(prof(0.4 + eps))
        assert before == pytest.approx(after, abs=1e-3)
        assert float(prof(1.0)) == pytest.approx(0.0, abs=1e-9)
        with pytest.raises(ValueError):
            CompositeProfile(ConstantProfile(), LinearProfile(), switch=0.0)


class TestProfileProperties:
    @given(progress_values, st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=100, deadline=None)
    def test_rex_family_always_normalised(self, s, alpha):
        prof = REXProfile(alpha=alpha, beta=1.0 - min(alpha, 0.99) if alpha < 1 else 0.5)
        assert float(prof(0.0)) == pytest.approx(1.0)
        value = float(prof(s))
        assert -1e-9 <= value <= 1.0 + 1e-9

    @given(st.floats(min_value=0.01, max_value=0.99), progress_values)
    @settings(max_examples=100, deadline=None)
    def test_delayed_linear_interpolates_between_constant_and_linear(self, delay, s):
        delayed = float(DelayedLinearProfile(delay)(s))
        linear = float(LinearProfile()(s))
        assert linear - 1e-12 <= delayed <= 1.0 + 1e-12


def _registry_profiles() -> list[Profile]:
    """The profile of every profile-based schedule in the registry, plus every profile class."""
    from repro.schedules.registry import SCHEDULE_REGISTRY, build_schedule
    from repro.schedules.schedule import ProfileSchedule

    required = {"delayed_linear": {"delay_fraction": 0.4}}
    profiles: list[Profile] = []
    for name in sorted(SCHEDULE_REGISTRY):
        schedule = build_schedule(
            name, None, total_steps=100, base_lr=1.0, steps_per_epoch=10, **required.get(name, {})
        )
        if isinstance(schedule, ProfileSchedule):
            profiles.append(schedule.profile)
    return profiles + ALL_PROFILES + [
        REXProfile(alpha=2.0, beta=0.25),
        PolynomialProfile(power=0.5),
        CompositeProfile(LinearProfile(), REXProfile(), switch=0.3),
    ]


SCALAR_PATH_PROFILES = _registry_profiles()

#: edge progress values: both ends, signed zero, the slack band, milestones, switch
#: points, and one where numpy's array ``x ** 2.0`` and C ``pow`` differ in the last bit
EDGE_PROGRESS = [
    0.0, -0.0, 1.0, -1e-10, 1.0 + 1e-10, 0.25, 0.3, 0.5, 0.75, 1.0 - 1e-16, 5e-324,
    0.9450998605273162,
]


class TestScalarFastPath:
    """A Python-float progress skips the array validation; its value must not change."""

    @staticmethod
    def _assert_bitwise_equal(profile, s):
        scalar = profile(s)
        assert type(scalar) is float
        zero_d = profile(np.asarray(s, dtype=np.float64))
        assert np.float64(scalar).tobytes() == np.float64(zero_d).tobytes(), (profile, s)
        array = np.asarray(profile(np.array([s], dtype=np.float64)), dtype=np.float64)
        assert np.float64(scalar).tobytes() == array[0].tobytes(), (profile, s, scalar, array[0])

    @pytest.mark.parametrize("profile", SCALAR_PATH_PROFILES, ids=repr)
    @pytest.mark.parametrize("s", EDGE_PROGRESS)
    def test_edge_values_bitwise_equal(self, profile, s):
        self._assert_bitwise_equal(profile, s)

    @pytest.mark.parametrize("profile", SCALAR_PATH_PROFILES, ids=repr)
    @given(s=progress_values)
    @settings(max_examples=60, deadline=None)
    def test_scalar_bitwise_equals_one_element_array(self, profile, s):
        self._assert_bitwise_equal(profile, s)

    @pytest.mark.parametrize("profile", SCALAR_PATH_PROFILES, ids=repr)
    def test_curve_bitwise_equals_per_step_scalars(self, profile):
        grid, values = profile.curve(101)
        scalars = np.array([profile(float(s)) for s in grid], dtype=np.float64)
        assert values.tobytes() == scalars.tobytes(), profile

    @pytest.mark.parametrize("profile", SCALAR_PATH_PROFILES, ids=repr)
    def test_integer_and_numpy_scalars_take_the_same_value(self, profile):
        assert profile(0) == profile(0.0)
        assert profile(1) == profile(1.0)
        assert np.float64(profile(np.float64(0.4))).tobytes() == np.float64(profile(0.4)).tobytes()

    @pytest.mark.parametrize("s", [1.5, -0.2, 1.0 + 1e-8, float("inf"), float("-inf")])
    def test_out_of_range_scalar_raises_like_the_array_path(self, s):
        with pytest.raises(ValueError) as scalar_error:
            REXProfile()(s)
        with pytest.raises(ValueError) as array_error:
            REXProfile()(np.array([s]))
        assert str(scalar_error.value) == str(array_error.value)

    def test_nan_propagates_like_the_array_path(self):
        assert np.isnan(LinearProfile()(float("nan")))
        assert np.isnan(LinearProfile()(np.array([float("nan")]))[0])
