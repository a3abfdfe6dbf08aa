"""Synthetic deterministic rewards: proximity to a target latent and temporal
smoothness, combined by weighted sum per temporal segment and averaged across
segments.  Both components are bounded above by zero, with equality exactly at
their optimum, so "higher is better" throughout."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class RewardSpec:
    components: tuple[tuple[str, float], ...] = (("target", 0.7), ("smoothness", 0.3))
    segment_count: int = 1

    def __post_init__(self) -> None:
        if self.segment_count < 1:
            raise ConfigError(f"segment_count must be >= 1, got {self.segment_count}")
        if not self.components:
            raise ConfigError("reward_components must name at least one component")
        for name, weight in self.components:
            if name not in COMPONENTS:
                raise ConfigError(
                    f"unknown reward component {name!r}; available: {sorted(COMPONENTS)}")
            if not np.isfinite(weight):
                raise ConfigError(f"weight for {name!r} is not finite")


def reward_target(frames, target: np.ndarray):
    """Negative mean squared distance of the final frame latents to a target:
    a number for (N, d) frames, one per trajectory for a (..., N, d) stack."""
    frames, target = np.asarray(frames, dtype=np.float64), np.asarray(target, dtype=np.float64)
    if target.shape != frames.shape[-1:]:
        raise ConfigError(f"target has shape {target.shape}, frames have dim {frames.shape[-1]}")
    d = frames - target  # squared in place, then summed and divided as np.mean does
    return -(np.add.reduce(np.square(d, out=d), axis=(-2, -1)) / (d.shape[-2] * d.shape[-1]))


def reward_smoothness(frames):
    """Negative mean squared consecutive-frame difference, per trajectory as
    :func:`reward_target`."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.shape[-2] < 2:
        raise ValueError(f"smoothness needs at least two frames, got {frames.shape[-2]}")
    d = frames[..., 1:, :] - frames[..., :-1, :]  # as np.diff, then as in reward_target
    return -(np.add.reduce(np.square(d, out=d), axis=(-2, -1)) / (d.shape[-2] * d.shape[-1]))


COMPONENTS = {"target": reward_target, "smoothness": lambda frames, _: reward_smoothness(frames)}


def composite(frames, spec: RewardSpec, target: np.ndarray | None = None):
    """Weighted component sum per temporal segment, averaged across segments:
    a number for (N, d) frames, one per trajectory for a (..., N, d) stack,
    each equal bit for bit to scoring that trajectory alone."""
    frames = np.asarray(frames, dtype=np.float64)
    if spec.segment_count > frames.shape[-2]:
        raise ConfigError(
            f"{spec.segment_count} segments need at least that many frames, "
            f"got {frames.shape[-2]}")
    target = np.zeros(frames.shape[-1]) if target is None else target
    k = spec.segment_count  # one: the split, the stack and the mean are identities
    totals = [sum(w * COMPONENTS[name](seg, target) for name, w in spec.components)
              for seg in (np.array_split(frames, k, axis=-2) if k > 1 else [frames])]
    # Segments last: each trajectory's totals are summed as a lone trajectory's.
    return totals[0] if k == 1 else np.add.reduce(np.stack(totals, axis=-1), axis=-1) / k
