"""Full training iteration: group rollout, rewards, replay, surrogate losses,
guarded PPO-KL update, and metrics emission.

Runs are bit-reproducible for a fixed seed: every random draw derives from
numpy SeedSequences keyed by (seed, iteration, purpose tag), and the update
path is pure numpy in a fixed order.
"""

from __future__ import annotations

import copy
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import policy
from .checkpoint import save_checkpoint
from .config import RunConfig, TrainerConfig, to_flat_dict
from .errors import ContractError, NumericalError
from .flow import GeneratorConfig
from .network import NetworkShape, param_init
from .params import GradVector, Params
from .policy import PolicyConfig, gibbs, guard
from .rewards import composite
from .routing import GroupSeeds, RolloutGroup, build_replay_contexts, rollout_group

# Purpose tags for seed derivation (documented; never reused across purposes).
_TAG_INIT, _TAG_PIVOT, _TAG_NOISE, _TAG_ROUTING = 17, 11, 13, 19


@dataclass
class IterationRecord:
    iteration: int
    pivot_block: int
    window: int
    anchor_reward: float | None      # None when the rollout or the rewards failed
    branch_rewards: list[float]
    reward_mean: float | None
    reward_std: float | None
    branch_energies: list[float]
    per_branch_ratio: list[float]
    loss_ppo: float
    kl_value: float
    loss_total: float
    grad_norm: float
    learning_rate: float
    skipped: bool
    wall_clock_s: float
    error: str | None = None

    def to_json(self) -> dict:
        return dict(self.__dict__)


class Adam:
    """First/second-moment adaptive optimizer (b1=0.9, b2=0.999, eps=1e-8)."""

    def __init__(self, size: int, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8) -> None:
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.step = 0

    def apply(self, params: Params, grad_values: np.ndarray, lr: float) -> Params:
        self.step += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad_values
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad_values ** 2
        m_hat = self.m / (1 - self.beta1 ** self.step)
        v_hat = self.v / (1 - self.beta2 ** self.step)
        return Params(params.values - lr * m_hat / (np.sqrt(v_hat) + self.eps),
                      params.layout)


def clip_gradient(grad: GradVector, max_norm: float) -> tuple[np.ndarray, float]:
    """Rescale the gradient onto the max-norm ball; returns (clipped, raw norm)."""
    norm = grad.norm
    if norm > max_norm > 0:
        return grad.values * (max_norm / norm), norm
    return grad.values, norm


def snapshot(params: Params) -> Params:
    """Frozen copy, immune to later updates of the original."""
    return params.copy()


def ema_update(ema: Params, params: Params, decay: float) -> Params:
    if not 0 <= decay < 1:
        raise ValueError(f"ema decay must lie in [0, 1), got {decay}")
    return Params(decay * ema.values + (1 - decay) * params.values, params.layout)


@dataclass
class TrainerState:
    params: Params
    ema: Params
    ref: Params              # frozen at initialization, the KL reference
    opt: Adam
    iteration: int = 0
    group: RolloutGroup | None = None   # the last iteration's scored group


def init_state(cfg: TrainerConfig) -> TrainerState:
    shape = NetworkShape(cfg.latent_dim, cfg.hidden_dim, cfg.prompt_dim)
    seed = int(np.random.SeedSequence((cfg.seed, _TAG_INIT)).generate_state(1)[0])
    params = param_init(shape, seed)
    return TrainerState(params, params.copy(), params.copy(),
                        Adam(params.layout.total))


def _policy_cfg(cfg: TrainerConfig) -> PolicyConfig:
    return PolicyConfig(cfg.temperature, cfg.kl_penalty_weight, cfg.clip_eps_low,
                        cfg.clip_eps_high, cfg.advantage_clip_max,
                        cfg.grad_replay_steps, cfg.energy_includes_all_steps,
                        cfg.surrogate, cfg.l2_sigma)


def iteration_seeds(cfg: TrainerConfig, iteration: int) -> tuple[int, GroupSeeds]:
    """Pivot plus group seeds for one iteration; advances with the iteration
    index so skipped iterations still explore fresh pivots and routings."""
    pivot_rng = np.random.default_rng(
        np.random.SeedSequence((cfg.seed, iteration, _TAG_PIVOT)))
    pivot = int(cfg.pivot_blocks[pivot_rng.integers(len(cfg.pivot_blocks))])
    noise = int(np.random.SeedSequence(
        (cfg.seed, iteration, _TAG_NOISE)).generate_state(1)[0])
    routing = int(np.random.SeedSequence(
        (cfg.seed, iteration, _TAG_ROUTING)).generate_state(1)[0])
    return pivot, GroupSeeds(noise, routing)


def learning_rate_at(cfg: TrainerConfig, iteration: int) -> float:
    """Constant rate with a linear ramp over the first ``warmup_steps`` iterations."""
    if cfg.warmup_steps <= 0:
        return cfg.learning_rate
    return cfg.learning_rate * min(1.0, iteration / cfg.warmup_steps)


def score_group(group: RolloutGroup, cfg: TrainerConfig) -> None:
    """Fill every trajectory's reward in place, scoring the group at once."""
    rewards = composite(group.frames, cfg.reward_spec(), cfg.reward_target())
    for traj, reward in zip(group.all_trajectories(), rewards.tolist()):
        traj.reward = reward


def train_iteration(state: TrainerState, cfg: TrainerConfig) -> IterationRecord:
    """One full iteration.  On a guard skip or a numerical error the parameters
    and the optimizer are left untouched (bitwise) and the record says so; an
    error in the rollout or the rewards leaves the record without rewards and
    ``state.group`` empty.  One value-only replay runs: at the parameters if
    skipped, else at the reference; the old policy comes from the first taped
    epoch."""
    started = time.perf_counter()
    state.iteration += 1
    it = state.iteration
    pivot, seeds = iteration_seeds(cfg, it)
    window = min(cfg.perturbed_blocks, cfg.num_blocks - pivot + 1)
    state.group = None  # release the previous group before rolling out the next
    record = IterationRecord(
        iteration=it, pivot_block=pivot, window=window, anchor_reward=None,
        branch_rewards=[], reward_mean=None, reward_std=None,
        branch_energies=[], per_branch_ratio=[], loss_ppo=0.0, kl_value=0.0,
        loss_total=0.0, grad_norm=0.0, learning_rate=learning_rate_at(cfg, it),
        skipped=False, wall_clock_s=0.0)

    pcfg = _policy_cfg(cfg)
    entering = snapshot(state.params), copy.deepcopy(state.opt)
    try:
        group = rollout_group(state.params, cfg.prompt(), cfg.num_blocks, pivot, window,
                              cfg.branch_number, seeds,
                              GeneratorConfig(cfg.frames_per_block, cfg.denoise_steps,
                                              cfg.sink_size, cfg.local_size),
                              tuple(tuple(c) for c in cfg.local_kv_choices),
                              cfg.routing_mode == "per_block")
        score_group(group, cfg)
        state.group = group
        rewards = group.branch_rewards()
        record.anchor_reward = float(group.anchor.reward)
        record.branch_rewards = [float(r) for r in rewards]
        record.reward_mean, record.reward_std = float(rewards.mean()), float(rewards.std())
        contexts = build_replay_contexts(group, cfg.replay_context)
        if guard(rewards, group.anchor.reward):
            record.skipped = True
            record.branch_energies = [float(e) for e in policy.surrogate_energies(
                state.params, group, contexts, pcfg)]
        else:
            eval_ref = gibbs(policy.surrogate_energies(state.ref, group, contexts, pcfg),
                             cfg.temperature)
            eval_old = None
            for _ in range(cfg.ppo_epochs):
                breakdown, energies, grad, eval_old = policy.total_loss_grad(
                    state.params, group, contexts, eval_old, eval_ref, pcfg)
                clipped, norm = clip_gradient(grad, cfg.max_grad_norm)
                state.params = state.opt.apply(state.params, clipped,
                                               learning_rate_at(cfg, it))
                record.branch_energies = [float(e) for e in energies]
                record.per_branch_ratio = [float(r) for r in breakdown.per_branch_ratio]
                record.loss_ppo = breakdown.ppo
                record.kl_value = breakdown.kl
                record.loss_total = breakdown.total
                record.grad_norm = norm
            state.ema = ema_update(state.ema, state.params, cfg.ema_decay)
    except NumericalError as exc:
        # Abort the iteration: roll parameters and optimizer back.
        state.params, state.opt = entering
        record.skipped = True
        record.error = str(exc)
    record.wall_clock_s = time.perf_counter() - started
    return record


@dataclass
class TrainResult:
    state: TrainerState
    records: list[IterationRecord] = field(default_factory=list)

    def final_mean_reward(self, tail: int = 20) -> float | None:
        """Mean anchor reward over the last ``tail`` records that have one;
        None if none has."""
        rewards = [r.anchor_reward for r in self.records[-tail:]
                   if r.anchor_reward is not None]
        return float(np.mean(rewards)) if rewards else None


def run(run_cfg: RunConfig, on_record=None) -> TrainResult:
    """Iterate to ``max_iterations``, streaming metrics records and writing
    periodic checkpoints when an output directory is configured."""
    cfg = run_cfg.trainer
    state = init_state(cfg)
    result = TrainResult(state)

    out_dir = Path(run_cfg.out_dir) if run_cfg.out_dir else None
    metrics_file = None
    traj_file = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        metrics_file = (out_dir / run_cfg.metrics_filename).open("w")
        if run_cfg.dump_trajectories:
            traj_file = (out_dir / "trajectories.jsonl").open("w")

    def checkpoint(tag: str) -> None:
        if out_dir is not None:
            save_checkpoint(out_dir / f"checkpoint_{tag}.kvc", state.params,
                            to_flat_dict(run_cfg), state.iteration, state.ema)

    try:
        checkpoint("init")
        for _ in range(cfg.max_iterations):
            record = train_iteration(state, cfg)
            result.records.append(record)
            if metrics_file is not None:
                metrics_file.write(json.dumps(record.to_json(), allow_nan=False) + "\n")
                metrics_file.flush()
            if traj_file is not None and state.group is not None:
                _dump_trajectories(traj_file, state.group, record)
            if on_record is not None:
                on_record(record)
            if (run_cfg.checkpoint_every > 0
                    and state.iteration % run_cfg.checkpoint_every == 0):
                checkpoint(f"{state.iteration:06d}")
        checkpoint("final")
    finally:
        if metrics_file is not None:
            metrics_file.close()
        if traj_file is not None:
            traj_file.close()
    return result


def _dump_trajectories(fh, group: RolloutGroup, record: IterationRecord) -> None:
    """Dump one line per trajectory of the group the iteration trained on, in
    one write: the bytes of a per-trajectory ``json.dumps`` of its record, with
    the prefix blocks that every trajectory shares encoded once."""
    trajectories, shared = group.all_trajectories(), group.pivot_block - 1
    blocks = group.frames.reshape(len(trajectories), -1, group.gen_cfg.frames_per_block,
                                  group.frames.shape[-1])
    if not np.isfinite(blocks).all():
        raise ValueError("trajectory frames hold a value that JSON cannot encode")
    if not (blocks[:, :shared] == blocks[:1, :shared]).all():
        raise ContractError("trajectories differ before the pivot block")
    prefix = "".join(json.dumps(b, allow_nan=False) + ", " for b in blocks[0, :shared].tolist())
    lines = []
    for traj, rest in zip(trajectories, blocks[:, shared:]):
        head = json.dumps({"iteration": record.iteration, "branch_id": traj.branch_id,
                           "routing": list(traj.routing.indices) if traj.routing else None,
                           "reward": traj.reward}, allow_nan=False)
        rest_text = json.dumps(rest.tolist(), allow_nan=False)
        lines.append(f'{head[:-1]}, "blocks": [{prefix}{rest_text[1:]}}}\n')
    fh.write("".join(lines))
    fh.flush()
