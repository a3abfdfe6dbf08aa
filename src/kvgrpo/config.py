"""Run configuration: flat JSON keys, typed overrides, and ablation presets.

Every key maps to exactly one field; unknown keys are rejected rather than
ignored.  A config written by :func:`save_config` parses back to an equivalent
:class:`RunConfig`.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .rewards import RewardSpec
from .routing import routable_range


@dataclass
class TrainerConfig:
    """Algorithmic knobs.  Defaults are the desk-scale training configuration."""

    seed: int = 0
    # generator / network
    latent_dim: int = 8
    hidden_dim: int = 16
    prompt_dim: int = 4
    frames_per_block: int = 3
    denoise_steps: int = 4
    sink_size: int = 3
    local_size: int = 9
    num_blocks: int = 8
    prompt_values: list[float] | None = None      # None: spread over [0.5, -0.5]
    # exploration
    branch_number: int = 8
    perturbed_blocks: int = 5
    pivot_blocks: list[int] = field(default_factory=lambda: [5, 6, 7])
    local_kv_choices: list[list[int]] = field(default_factory=lambda: [[9, 6]])
    routing_mode: str = "fixed"                   # "fixed" | "per_block"
    replay_context: str = "branch"                # "branch" | "anchor"
    # surrogate policy and losses
    surrogate: str = "replay"                     # "replay" | "latent_l2"
    l2_sigma: float = 1.0
    temperature: float = 3.0
    grad_replay_steps: int = 2
    energy_includes_all_steps: bool = True
    ppo_epochs: int = 1
    clip_eps_low: float = 0.1
    clip_eps_high: float = 0.2
    advantage_clip_max: float = 2.5
    kl_penalty_weight: float = 5.0
    # optimization
    learning_rate: float = 1e-2
    warmup_steps: int = 5
    max_grad_norm: float = 1.0
    ema_decay: float = 0.999
    max_iterations: int = 200
    # rewards
    reward_components: list[list] = field(
        default_factory=lambda: [["target", 0.7], ["smoothness", 0.3]])
    reward_segments: int = 1
    reward_target_values: list[float] | None = None   # None: zero vector

    def prompt(self) -> np.ndarray:
        if self.prompt_values is not None:
            return np.asarray(self.prompt_values, dtype=np.float64)
        if self.prompt_dim == 1:
            return np.array([0.5])
        return np.linspace(0.5, -0.5, self.prompt_dim)

    def reward_target(self) -> np.ndarray:
        if self.reward_target_values is not None:
            return np.asarray(self.reward_target_values, dtype=np.float64)
        return np.zeros(self.latent_dim)

    def reward_spec(self) -> RewardSpec:
        return RewardSpec(tuple((str(n), float(w)) for n, w in self.reward_components),
                          self.reward_segments)

    def validate(self) -> "TrainerConfig":
        _check_fields(self)
        for name in ("latent_dim", "hidden_dim", "prompt_dim", "frames_per_block",
                     "denoise_steps", "num_blocks", "perturbed_blocks", "temperature",
                     "learning_rate", "max_grad_norm", "ppo_epochs", "l2_sigma",
                     "advantage_clip_max"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        # The policy is a softmax over at least two branches.
        for name, low in (("branch_number", 2), ("sink_size", 0), ("local_size", 0),
                          ("max_iterations", 0), ("kl_penalty_weight", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("clip_eps_low", "clip_eps_high"):
            if not 0 < getattr(self, name) < 1:
                raise ConfigError(f"{name} must lie in (0, 1), got {getattr(self, name)}")
        if not 0 <= self.ema_decay < 1:
            raise ConfigError(f"ema_decay must lie in [0, 1), got {self.ema_decay}")
        if not 1 <= self.grad_replay_steps <= self.denoise_steps:
            raise ConfigError(
                f"grad_replay_steps must lie in [1, {self.denoise_steps}], "
                f"got {self.grad_replay_steps}")
        if self.routing_mode not in ("fixed", "per_block"):
            raise ConfigError(f"routing_mode must be 'fixed' or 'per_block', got {self.routing_mode!r}")
        if self.replay_context not in ("branch", "anchor"):
            raise ConfigError(f"replay_context must be 'branch' or 'anchor', got {self.replay_context!r}")
        if self.surrogate not in ("replay", "latent_l2"):
            raise ConfigError(f"surrogate must be 'replay' or 'latent_l2', got {self.surrogate!r}")
        if not self.pivot_blocks:
            raise ConfigError("pivot_blocks must not be empty")
        if max(self.pivot_blocks) > self.num_blocks:
            raise ConfigError(
                f"pivot block {max(self.pivot_blocks)} exceeds num_blocks {self.num_blocks}")
        if any(len(c) != 2 for c in self.local_kv_choices):
            raise ConfigError(f"local_kv_choices entries must be [local_size, routed_slots] "
                              f"pairs, got {self.local_kv_choices!r}")
        if not all(len(c) == 2 and isinstance(c[0], str) and _fits(c[1], float)
                   for c in self.reward_components):
            raise ConfigError(f"reward_components entries must be [name, weight] pairs, "
                              f"got {self.reward_components!r}")
        # Every segment needs a frame, and two for the smoothness differences.
        frames = self.num_blocks * self.frames_per_block
        per_segment = 1 + any(name == "smoothness" for name, _ in self.reward_components)
        if self.reward_segments > frames // per_segment:
            raise ConfigError(f"reward_segments {self.reward_segments} leaves fewer than "
                              f"{per_segment} of the {frames} frames per segment")
        for n, r in self.local_kv_choices:
            if not 1 <= r <= n:
                raise ConfigError(f"routed slots {r} must lie in [1, local size {n}]")
        # The rule routing.plan_rollout applies at the pivot.
        min_frames = self.frames_per_block * (min(self.pivot_blocks) - 1)
        if not any(len(routable_range(min_frames, n - r, self.sink_size)) >= r
                   for n, r in self.local_kv_choices):
            raise ConfigError(
                f"no local_kv_choices routable at the earliest pivot "
                f"({min_frames} frames of history)")
        if self.prompt_values is not None and len(self.prompt_values) != self.prompt_dim:
            raise ConfigError(
                f"prompt_values has length {len(self.prompt_values)}, expected {self.prompt_dim}")
        if (self.reward_target_values is not None
                and len(self.reward_target_values) != self.latent_dim):
            raise ConfigError(
                f"reward_target_values has length {len(self.reward_target_values)}, "
                f"expected {self.latent_dim}")
        self.reward_spec()  # validates component names and weights
        return self


@dataclass
class RunConfig:
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    out_dir: str | None = None
    metrics_filename: str = "metrics.jsonl"
    checkpoint_every: int = 50
    dump_trajectories: bool = False
    threads: int = 1

    def validate(self) -> "RunConfig":
        self.trainer.validate()
        _check_fields(self)
        if self.checkpoint_every < 0:
            raise ConfigError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        # The metrics go beside the run's other outputs, never over one of them.
        name = self.metrics_filename
        if (name in ("", ".", "..", "config.json", "trajectories.jsonl") or "/" in name
                or "\\" in name or (name.startswith("checkpoint_") and name.endswith(".kvc"))):
            raise ConfigError(f"metrics_filename must be a plain file name that no other "
                              f"output of the run takes, got {name!r}")
        return self


_type_hints = functools.cache(typing.get_type_hints)


def _check_fields(cfg) -> None:
    """Reject NaN and infinities, which JSON and ``--set`` parse, and any value
    that does not fit its field's annotation, element by element for lists.
    A bool is not an int, and an int is a float."""
    hints = _type_hints(type(cfg))
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        for ok, want in ((_finite(value), "finite"), (_fits(value, hints[f.name]), f.type)):
            if not ok:
                raise ConfigError(f"{f.name} must be {want}, got {value!r}")


def _finite(value) -> bool:
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def _fits(value, hint) -> bool:
    args = typing.get_args(hint)
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    if args:  # a union
        return any(_fits(value, a) for a in args)
    return (isinstance(value, (int, float) if hint is float else hint)
            and (hint is bool or not isinstance(value, bool)))


_TRAINER_FIELDS = {f.name: f for f in fields(TrainerConfig)}
_RUN_FIELDS = {f.name: f for f in fields(RunConfig) if f.name != "trainer"}


def to_flat_dict(cfg: RunConfig) -> dict:
    out = dataclasses.asdict(cfg.trainer)
    for name in _RUN_FIELDS:
        out[name] = getattr(cfg, name)
    return out


def from_flat_dict(data: dict) -> RunConfig:
    trainer_kwargs, run_kwargs = {}, {}
    for key, value in data.items():
        if key in _TRAINER_FIELDS:
            trainer_kwargs[key] = value
        elif key in _RUN_FIELDS:
            run_kwargs[key] = value
        else:
            raise ConfigError(f"unknown config key {key!r}")
    cfg = RunConfig(trainer=TrainerConfig(**trainer_kwargs), **run_kwargs)
    return cfg.validate()


def load_json_object(path: str | Path) -> dict:
    """The JSON object a config file holds, unvalidated.  Raises ConfigError
    naming the file when it is missing, unreadable, not UTF-8, not JSON or not
    an object."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_bytes().decode("utf-8"))
    except OSError as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc.strerror}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8 JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def load_config(path: str | Path) -> RunConfig:
    return from_flat_dict(load_json_object(path))


def save_config(cfg: RunConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(to_flat_dict(cfg), indent=2) + "\n")


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_overrides(cfg: RunConfig, overrides: dict[str, object] | list[str]) -> RunConfig:
    """Apply ``key=value`` overrides (values parsed as JSON when possible)."""
    if isinstance(overrides, list):
        parsed = {}
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"override {item!r} is not of the form key=value")
            key, _, text = item.partition("=")
            parsed[key.strip()] = _parse_value(text.strip())
        overrides = parsed
    flat = to_flat_dict(cfg)
    for key, value in overrides.items():
        if key not in flat:
            raise ConfigError(f"unknown config key {key!r}")
        flat[key] = value
    return from_flat_dict(flat)


# Ablation presets: named lists of (variant label, overrides).  Variants within
# a preset share the base config's seed.
PRESETS: dict[str, list[tuple[str, dict]]] = {
    "perturbed-blocks": [(f"blocks-{w}", {"perturbed_blocks": w}) for w in (3, 5, 7)],
    "routed-slots": [(f"slots-{r}", {"local_kv_choices": [[9, r]]}) for r in (3, 6, 9)],
    "local-kv": [
        ("fixed-9", {"local_kv_choices": [[9, 6]]}),
        ("random-6-9-12", {"local_kv_choices": [[6, 3], [9, 6], [12, 9]]}),
    ],
    "solver-steps": [(f"steps-{s}", {"grad_replay_steps": s}) for s in (1, 2, 3, 4)],
    "surrogate": [
        ("replay", {"surrogate": "replay"}),
        ("latent-l2", {"surrogate": "latent_l2"}),
    ],
    "kl-weight": [(f"beta-{b}", {"kl_penalty_weight": float(b)})
                  for b in (0, 1, 3, 5, 10, 20)],
}
