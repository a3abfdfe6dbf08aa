"""Synthetic reward components and composite weighting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kvgrpo.errors import ConfigError
from kvgrpo.rewards import RewardSpec, composite, reward_smoothness, reward_target

import reference_ops as ops


def frames(*rows):
    return np.array(rows, dtype=float)


class TestRewardTarget:
    def test_exact_match_is_zero(self):
        target = np.array([1.0, -1.0])
        assert reward_target(frames([1.0, -1.0], [1.0, -1.0]), target) == 0.0

    def test_unit_distance_per_dimension(self):
        d = 8
        fr = np.ones((4, d))
        assert reward_target(fr, np.zeros(d)) == pytest.approx(-1.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        fr = rng.normal(size=(6, 4))
        target = rng.normal(size=4)
        total = 0.0
        for i in range(6):
            for j in range(4):
                total += (fr[i, j] - target[j]) ** 2
        assert reward_target(fr, target) == pytest.approx(-total / 24, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            reward_target(frames([1.0, 2.0]), np.zeros(3))


class TestRewardSmoothness:
    def test_constant_trajectory_zero(self):
        fr = np.tile(np.array([0.5, -0.5]), (5, 1))
        assert reward_smoothness(fr) == 0.0

    def test_alternating_frames(self):
        u = np.array([0.5, -1.0, 0.25])
        fr = np.array([u, -u, u, -u])
        # consecutive differences are +-2u: mean squared magnitude 4|u|^2/d
        expected = -4.0 * np.sum(u ** 2) / 3
        assert reward_smoothness(fr) == pytest.approx(expected, rel=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        fr = rng.normal(size=(5, 3))
        total = sum((fr[i + 1, j] - fr[i, j]) ** 2
                    for i in range(4) for j in range(3))
        assert reward_smoothness(fr) == pytest.approx(-total / 12, rel=1e-12)

    def test_needs_two_frames(self):
        with pytest.raises(ValueError):
            reward_smoothness(frames([1.0, 2.0]))


class TestComposite:
    def test_single_component_identity(self):
        rng = np.random.default_rng(2)
        fr = rng.normal(size=(6, 3))
        spec = RewardSpec((("target", 1.0),), 1)
        target = rng.normal(size=3)
        assert composite(fr, spec, target) == reward_target(fr, target)

    def test_weighted_sum(self):
        rng = np.random.default_rng(3)
        fr = rng.normal(size=(6, 3))
        target = np.zeros(3)
        spec = RewardSpec((("target", 1.0), ("smoothness", 0.5)), 1)
        expected = reward_target(fr, target) + 0.5 * reward_smoothness(fr)
        assert composite(fr, spec, target) == pytest.approx(expected, rel=1e-12)

    def test_segment_constant_trajectory(self):
        # four segments of identical content: averaging returns the per-segment value
        seg = np.random.default_rng(4).normal(size=(3, 2))
        fr = np.vstack([seg] * 4)
        spec1 = RewardSpec((("target", 1.0),), 1)
        spec4 = RewardSpec((("target", 1.0),), 4)
        target = np.array([0.2, -0.1])
        per_segment = composite(seg, spec1, target)
        assert composite(fr, spec4, target) == pytest.approx(per_segment, rel=1e-12)

    def test_too_many_segments_rejected(self):
        with pytest.raises(ConfigError):
            composite(frames([1.0, 2.0], [2.0, 3.0]), RewardSpec((("target", 1.0),), 3))

    def test_unknown_component_rejected(self):
        with pytest.raises(ConfigError):
            RewardSpec((("sharpness", 1.0),), 1)

    @given(st.floats(min_value=-3, max_value=3, allow_nan=False),
           st.floats(min_value=-3, max_value=3, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_linear_in_weights(self, w1, w2):
        rng = np.random.default_rng(5)
        fr = rng.normal(size=(4, 3))
        target = np.zeros(3)
        combined = composite(fr, RewardSpec((("target", w1), ("smoothness", w2)), 1),
                             target)
        expected = (w1 * reward_target(fr, target)
                    + w2 * reward_smoothness(fr))
        assert combined == pytest.approx(expected, abs=1e-12)

    def test_deterministic(self):
        fr = np.random.default_rng(6).normal(size=(6, 2))
        spec = RewardSpec()
        vals = {composite(fr, spec, np.zeros(2)) for _ in range(5)}
        assert len(vals) == 1

    def test_bounded_above_by_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            fr = rng.normal(size=(5, 3))
            assert reward_target(fr, rng.normal(size=3)) <= 0.0
            assert reward_smoothness(fr) <= 0.0

    def test_group_rows_are_trajectories(self, check_instance):
        group = check_instance.group
        spec = RewardSpec()
        rewards = composite(group.frames, spec, np.zeros(3))
        for g, row in enumerate(group.frames):
            alone = row.copy()
            assert rewards[g] == composite(alone, spec, np.zeros(3))


def composite_oracle(frames, spec, target):
    """The per-trajectory scoring that the stacked call replaced: each
    component a Python float, each segment's weighted sum taken from 0, and
    the segments averaged."""
    totals = []
    for seg in np.array_split(frames, spec.segment_count):
        parts = {"target": float(-np.mean((seg - target) ** 2)),
                 "smoothness": float(-np.mean(np.diff(seg, axis=0) ** 2))}
        totals.append(sum(w * parts[name] for name, w in spec.components))
    return float(np.mean(totals))


class TestStackedScoring:
    # From 8 segments on, a trajectory's mean over its totals sums pairwise.
    @pytest.mark.parametrize("segments", [1, 2, 3, 9])
    @pytest.mark.parametrize("zero_target", [True, False])
    def test_matches_per_trajectory_oracle_bitwise(self, segments, zero_target):
        rng = np.random.default_rng(segments + 10 * zero_target)
        for trial in range(50):
            count, d = int(rng.integers(1, 18)), 8
            frames_n = int(rng.integers(max(6, 2 * segments), 31))
            group = rng.normal(size=(count, frames_n, d)) * 10.0 ** rng.integers(-3, 4)
            target = np.zeros(d) if zero_target else rng.normal(size=d)
            weights = (0.7, 0.3) if trial == 0 else rng.normal(size=2)
            spec = RewardSpec((("target", float(weights[0])),
                               ("smoothness", float(weights[1]))), segments)
            got = composite(group, spec, target)
            expected = np.array([composite_oracle(f, spec, target) for f in group])
            assert got.shape == (count,)
            assert got.tobytes() == expected.tobytes()


@st.composite
def scored_groups(draw):
    """A reward spec of one or both components, any weights, 1, 2, 3, 8 or 9 segments of
    at least two frames, and 1-17 trajectories (or one lone (N, d) trajectory) at a scale
    from all-zero (every distance is -0.0 before the weights) up, with a zero or drawn target."""
    segments = draw(st.sampled_from([1, 2, 3, 8, 9]))
    names = draw(st.sampled_from([("target",), ("smoothness",), ("target", "smoothness"),
                                  ("smoothness", "target")]))
    weights = st.floats(-3, 3, allow_nan=False)
    spec = RewardSpec(tuple((name, draw(weights)) for name in names), segments)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, n, d = draw(st.integers(1, 17)), draw(st.integers(2 * segments, 31)), 8
    lead = (rows,) if draw(st.booleans()) else ()
    frames = rng.normal(size=(*lead, n, d)) * draw(st.sampled_from([0.0, 1e-3, 1.0, 1e3]))
    target = np.zeros(d) if draw(st.booleans()) else rng.normal(size=d)
    return frames, spec, target


class TestReductionsWithoutWrappers:
    @settings(max_examples=300, deadline=None)
    @given(case=scored_groups())
    def test_equals_the_wrapped_composite_bytewise(self, case):
        frames, spec, target = case
        got, want = composite(frames, spec, target), ops.composite(frames, spec, target)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
