"""Full training iteration: group rollout, rewards, replay, surrogate losses,
guarded PPO-KL update, and metrics emission.

Runs are bit-reproducible for a fixed seed: every random draw derives from
numpy SeedSequences keyed by (seed, iteration, purpose tag), and the update
path is pure numpy in a fixed order.  No draw depends on the parameters, so
:func:`plan_iteration` makes them all, and :func:`run` plans each iteration
ahead in a forked sidecar, on another core, which also writes the dump.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import policy
from .checkpoint import save_checkpoint
from .config import RunConfig, TrainerConfig, to_flat_dict
from .errors import ContractError, NumericalError
from .flow import GeneratorConfig
from .network import NetworkShape, check_finite, param_init
from .params import Params
from .policy import PolicyConfig, gibbs, guard
from .rewards import composite
from .routing import (GroupSeeds, RolloutGroup, RolloutPlan, build_replay_contexts,
                      plan_rollout, rollout_group)

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


def clip_gradient(grad: np.ndarray, max_norm: float) -> tuple[np.ndarray, float]:
    """Rescale the gradient onto the max-norm ball; returns (clipped, raw norm).
    Finite entries whose norm overflows raise NumericalError."""
    norm = check_finite(float(np.linalg.norm(grad)), "gradient norm")
    if norm > max_norm > 0:
        return grad * (max_norm / norm), norm
    return grad, norm


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


def _generator_cfg(cfg: TrainerConfig) -> GeneratorConfig:
    return GeneratorConfig(cfg.frames_per_block, cfg.denoise_steps, cfg.sink_size,
                           cfg.local_size)


@dataclass(frozen=True)
class IterationPlan:
    """Everything about one iteration that does not depend on the parameters."""

    iteration: int
    rollout: RolloutPlan     # the group's pivot, window, draws and memories


def plan_iteration(cfg: TrainerConfig, iteration: int) -> IterationPlan:
    """The plan of iteration ``iteration``, a pure function of its arguments."""
    pivot, seeds = iteration_seeds(cfg, iteration)
    window = min(cfg.perturbed_blocks, cfg.num_blocks - pivot + 1)
    return IterationPlan(iteration, plan_rollout(
        cfg.num_blocks, pivot, window, cfg.branch_number, seeds, _generator_cfg(cfg),
        cfg.latent_dim, tuple(tuple(c) for c in cfg.local_kv_choices),
        cfg.routing_mode == "per_block"))


def learning_rate_at(cfg: TrainerConfig, iteration: int) -> float:
    """Constant rate with a linear ramp over the first ``warmup_steps`` iterations."""
    if cfg.warmup_steps <= 0:
        return cfg.learning_rate
    return cfg.learning_rate * min(1.0, iteration / cfg.warmup_steps)


def score_group(group: RolloutGroup, cfg: TrainerConfig) -> None:
    """Fill the group's rewards in place, scoring its rows at once; a
    non-finite reward raises NumericalError."""
    group.rewards = check_finite(composite(group.frames, cfg.reward_spec(),
                                           cfg.reward_target()), "rewards")


def train_iteration(state: TrainerState, cfg: TrainerConfig,
                    plan: IterationPlan | None = None) -> IterationRecord:
    """One full iteration, following ``plan`` (planned here when None).  On a
    guard skip or a numerical error the parameters and the optimizer are left
    untouched (bitwise) and the record says so, holding no update's numbers
    after an error in any epoch; an error in the rollout or the rewards leaves
    the record without rewards and ``state.group`` empty.  One value-only
    replay runs: at the parameters if skipped, else at the reference; the old
    policy comes from the first taped epoch."""
    started = time.perf_counter()
    state.iteration += 1
    it = state.iteration
    if plan is None:
        plan = plan_iteration(cfg, it)
    elif plan.iteration != it:
        raise ContractError(f"the plan of iteration {plan.iteration} reached iteration {it}")
    pivot, window = plan.rollout.pivot, plan.rollout.window
    state.group = None  # release the previous group before rolling out the next
    record = IterationRecord(
        iteration=it, pivot_block=pivot, window=window, anchor_reward=None,
        branch_rewards=[], reward_mean=None, reward_std=None,
        branch_energies=[], per_branch_ratio=[], loss_ppo=0.0, kl_value=0.0,
        loss_total=0.0, grad_norm=0.0, learning_rate=learning_rate_at(cfg, it),
        skipped=False, wall_clock_s=0.0)

    pcfg = _policy_cfg(cfg)
    # Adam.apply and ema_update rebind their arrays, never write into them.
    entering = state.params, state.opt.m, state.opt.v, state.opt.step
    try:
        group = rollout_group(state.params, cfg.prompt(), _generator_cfg(cfg), pivot, window,
                              plan.rollout)
        score_group(group, cfg)
        state.group = group
        anchor, rewards = group.rewards[0], group.rewards[1:]
        record.anchor_reward = float(anchor)
        record.branch_rewards = [float(r) for r in rewards]
        record.reward_mean, record.reward_std = float(rewards.mean()), float(rewards.std())
        group.contexts = build_replay_contexts(group, cfg.replay_context)
        if guard(rewards, anchor):
            record.skipped = True
            record.branch_energies = [float(e) for e in policy.surrogate_energies(
                state.params, group, pcfg)]
        else:
            eval_ref = gibbs(policy.surrogate_energies(state.ref, group, pcfg), cfg.temperature)
            eval_old = None
            for _ in range(cfg.ppo_epochs):
                breakdown, energies, grad, eval_old = policy.total_loss_grad(
                    state.params, group, eval_old, eval_ref, pcfg)
                clipped, norm = clip_gradient(grad, cfg.max_grad_norm)
                state.params = state.opt.apply(state.params, clipped,
                                               learning_rate_at(cfg, it))
            state.ema = ema_update(state.ema, state.params, cfg.ema_decay)
            # The last epoch's numbers, written once every epoch has succeeded.
            record.branch_energies = [float(e) for e in energies]
            record.per_branch_ratio = [float(r) for r in breakdown.per_branch_ratio]
            record.loss_ppo = breakdown.ppo
            record.kl_value = breakdown.kl
            record.loss_total = breakdown.total
            record.grad_norm = norm
    except NumericalError as exc:
        # Abort the iteration: roll parameters and optimizer back.
        state.params, state.opt.m, state.opt.v, state.opt.step = entering
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


class _Sidecar:
    """A forked child whose main thread sends the plans of iterations ``first``
    on (or the exceptions raised making them), blocking while the parent is
    behind, and whose writer thread writes the groups handed to it.  Inline
    without ``os.fork``."""

    def __init__(self, cfg: TrainerConfig, traj, first: int) -> None:
        import socket
        self.cfg, self.traj, self.first, self.pid, self.pending = cfg, traj, first, None, False
        if hasattr(os, "fork"):
            read, write = os.pipe()
            self.link, far = socket.socketpair()
            try:
                self.pid = os.fork()
            except OSError:  # EAGAIN or ENOMEM: fail loudly, leaking no descriptor
                for fd in (read, write):
                    os.close(fd)
                self.link.close()
                far.close()
                raise
            if self.pid == 0:
                try:  # the child ignores Ctrl-C and never flushes an inherited buffer
                    signal.signal(signal.SIGINT, signal.SIG_IGN)
                    os.close(read)
                    self.link.close()
                    writer = threading.Thread(target=self._write, args=(far, write))
                    writer.start()
                    for it in range(first, cfg.max_iterations + 1):
                        try:
                            item = plan_iteration(cfg, it)
                        except Exception as exc:  # noqa: BLE001  - raised by next()
                            item = exc
                        far.sendall(pickle.dumps(item))
                    writer.join()
                finally:
                    os._exit(0)
            os.close(write)
            far.close()
            self.plans, self.acks = self.link.makefile("rb"), os.fdopen(read, "rb")

    def _write(self, link, acks: int) -> None:
        """The writer thread: one write and one flush per group read from
        ``link``, an answer on ``acks`` per barrier (None); errors end the child."""
        groups = link.makefile("rb")
        try:
            while True:
                if (group := pickle.load(groups)) is None:
                    os.write(acks, b"\n")
                else:
                    self.traj.write(_encode_group(*group))
                    self.traj.flush()
        except BaseException as exc:  # noqa: BLE001  - sent to the parent
            os.write(acks, repr(exc)[:4000].encode(errors="replace") + b"\n")
            os._exit(1)

    def _stopped(self, before: str, reason: bytes = b"") -> RuntimeError:
        self.pending = False  # nothing is left to wait for
        reason = (reason or self.acks.readline()).decode().strip() or "no error was sent"
        return RuntimeError(f"the sidecar process {self.pid} died before {before}: {reason}")

    def next(self, iteration: int) -> IterationPlan:
        if self.pid is None or iteration < self.first:
            return plan_iteration(self.cfg, iteration)
        try:
            item = pickle.load(self.plans)
        except (EOFError, pickle.UnpicklingError):
            raise self._stopped(f"planning iteration {iteration}") from None
        if isinstance(item, Exception):
            raise item
        return item

    def dump(self, group: tuple | None) -> None:
        """Write a checked group inline, or hand it (or a barrier, None) off."""
        if self.pid is None:
            self.traj.write(_encode_group(*group))  # one write and one flush
            self.traj.flush()
            return
        try:
            self.link.sendall(pickle.dumps(group, pickle.HIGHEST_PROTOCOL))
        except OSError:
            raise self._stopped("a hand-off") from None
        self.pending = True

    def barrier(self) -> None:
        """Return once the file holds every group handed to the writer."""
        if self.pending:
            self.dump(None)
            if (ack := self.acks.readline()) != b"\n":
                raise self._stopped("a barrier", ack)
            self.pending = False

    def close(self) -> None:
        """Wait for the writer, unless the child is gone, then stop and reap it."""
        if self.pid is not None:
            try:
                self.barrier()
            finally:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
                for f in (self.plans, self.acks, self.link):
                    f.close()


def _keep_freed_memory() -> None:
    """Pin glibc's mmap and trim thresholds at its dynamic rule's ceilings (32 MB,
    64 MB): freed temporaries stay on the heap, never unmapped or trimmed and
    faulted in again.  Process-wide, never restored, no value moves; off glibc, a no-op."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def run(run_cfg: RunConfig, on_record=None) -> TrainResult:
    """Iterate to ``max_iterations``, streaming metrics records and writing
    periodic checkpoints when an output directory is configured.  Each
    checkpoint, and the end, waits until the dump holds every group so far."""
    _keep_freed_memory()  # before the sidecar's fork, which inherits it
    cfg = run_cfg.trainer
    state = init_state(cfg)
    result = TrainResult(state)
    out_dir = Path(run_cfg.out_dir) if run_cfg.out_dir else None
    with contextlib.ExitStack() as stack:
        metrics_file = traj_file = None
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            metrics_file = stack.enter_context((out_dir / run_cfg.metrics_filename).open("w"))
            if run_cfg.dump_trajectories:
                traj_file = stack.enter_context((out_dir / "trajectories.jsonl").open("w"))
        # Forked once the files are open; iteration 1 is planned here meanwhile.
        sidecar = stack.enter_context(contextlib.closing(_Sidecar(cfg, traj_file, first=2)))

        def checkpoint(tag: str) -> None:
            if out_dir is not None:
                sidecar.barrier()
                save_checkpoint(out_dir / f"checkpoint_{tag}.kvc", state.params,
                                to_flat_dict(run_cfg), state.iteration, state.ema)

        checkpoint("init")
        for _ in range(cfg.max_iterations):
            record = train_iteration(state, cfg, sidecar.next(state.iteration + 1))
            result.records.append(record)
            # Ctrl-C waits until the record and its group are both out (POSIX, as fork).
            mask = sidecar.pid and signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                if metrics_file is not None:
                    metrics_file.write(json.dumps(record.to_json(), allow_nan=False) + "\n")
                    metrics_file.flush()
                if traj_file is not None and state.group is not None:
                    _dump_trajectories(sidecar.dump, state.group, record)
            finally:
                if sidecar.pid:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            if on_record is not None:
                on_record(record)
            if (run_cfg.checkpoint_every > 0
                    and state.iteration % run_cfg.checkpoint_every == 0):
                checkpoint(f"{state.iteration:06d}")
        checkpoint("final")
    return result


def _dump_trajectories(send, group: RolloutGroup, record: IterationRecord) -> None:
    """Check the group the iteration trained on and ``send`` it, as :func:`_encode_group`
    reads it; a value JSON cannot encode or a prefix that differs raises instead."""
    shared = group.pivot_block - 1
    blocks = group.frames.reshape(len(group.frames), -1, group.gen_cfg.frames_per_block,
                                  group.frames.shape[-1])
    heads = [(g, list(routing.indices) if routing else None, reward)
             for g, (routing, reward) in enumerate(zip(group.routings, group.rewards.tolist()))]
    if not np.isfinite(blocks).all():
        raise ValueError("a trajectory holds a value that JSON cannot encode")
    if not (blocks[:, :shared] == blocks[:1, :shared]).all():
        raise ContractError("trajectories differ before the pivot block")
    send((record.iteration, blocks[0, :shared], blocks[:, shared:], heads))


def _encode_group(iteration: int, prefix: np.ndarray, rests: np.ndarray, heads: list) -> str:
    """The bytes of a ``json.dumps`` line per trajectory: the shared ``prefix``
    blocks, encoded once, then the trajectory's row of ``rests``."""
    prefix = "".join(json.dumps(b, allow_nan=False) + ", " for b in prefix.tolist())
    lines = []
    for (branch_id, routing, reward), rest in zip(heads, rests):
        head = json.dumps({"iteration": iteration, "branch_id": branch_id,
                           "routing": routing, "reward": reward}, allow_nan=False)
        rest_text = json.dumps(rest.tolist(), allow_nan=False)
        lines.append(f'{head[:-1]}, "blocks": [{prefix}{rest_text[1:]}}}\n')
    return "".join(lines)
