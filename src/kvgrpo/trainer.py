"""Full training iteration: group rollout, rewards, replay, surrogate losses,
guarded PPO-KL update, and metrics emission.

Runs are bit-reproducible for a fixed seed: every random draw derives from
numpy SeedSequences keyed by (seed, iteration, purpose tag), and the update
path is pure numpy in a fixed order.  No draw depends on the parameters, so
:func:`plan_iteration` makes them all, and :func:`run` plans each iteration
ahead in a forked sidecar, which also writes the dump.  The sidecar runs on
the highest of the calling thread's CPUs and the thread on the rest until the
sidecar is reaped and the set restored; on one CPU neither is pinned.
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
from .config import RunConfig, TrainerConfig, save_config, to_flat_dict
from .errors import ContractError, NumericalError
from .flow import GeneratorConfig
from .network import NetworkShape, Weights, check_finite, param_init
from .params import Params
from .policy import PolicyConfig, gibbs, guard
from .rewards import composite
from .routing import (GroupSeeds, RolloutGroup, RolloutPlan, build_replay_contexts,
                      plan_rollout, rollout_group)

# Purpose tags for seed derivation (documented; never reused across purposes).
_TAG_INIT, _TAG_PIVOT, _TAG_NOISE, _TAG_ROUTING = 17, 11, 13, 19


@dataclass(kw_only=True)
class IterationRecord:
    iteration: int
    pivot_block: int
    window: int
    anchor_reward: float | None = None  # None when the rollout or the rewards failed
    branch_rewards: list[float] = field(default_factory=list)
    reward_mean: float | None = None
    reward_std: float | None = None
    branch_energies: list[float] = field(default_factory=list)
    per_branch_ratio: list[float] = field(default_factory=list)
    loss_ppo: float = 0.0
    kl_value: float = 0.0
    loss_total: float = 0.0
    grad_norm: float = 0.0
    learning_rate: float
    skipped: bool = False
    wall_clock_s: float = 0.0
    error: str | None = None

    def to_json(self) -> dict:
        return dict(self.__dict__)


class Adam:
    """First/second-moment adaptive optimizer."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, size: int) -> None:
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


def run_constants(cfg: TrainerConfig) -> tuple:
    """The prompt, :class:`PolicyConfig`, reward spec and target: what :func:`run` reads once."""
    return cfg.prompt(), PolicyConfig(
        cfg.temperature, cfg.kl_penalty_weight, cfg.clip_eps_low, cfg.clip_eps_high,
        cfg.advantage_clip_max, cfg.grad_replay_steps, cfg.energy_includes_all_steps,
        cfg.surrogate, cfg.l2_sigma), cfg.reward_spec(), cfg.reward_target()


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
        cfg.num_blocks, pivot, window, cfg.branch_number, seeds,
        GeneratorConfig(cfg.frames_per_block, cfg.denoise_steps, cfg.sink_size, cfg.local_size),
        cfg.latent_dim, tuple(tuple(c) for c in cfg.local_kv_choices),
        cfg.routing_mode == "per_block"))


def learning_rate_at(cfg: TrainerConfig, iteration: int) -> float:
    """Constant rate with a linear ramp over the first ``warmup_steps`` iterations."""
    if cfg.warmup_steps <= 0:
        return cfg.learning_rate
    return cfg.learning_rate * min(1.0, iteration / cfg.warmup_steps)


def score_group(group: RolloutGroup, cfg: TrainerConfig, constants=None) -> None:
    """Fill the group's rewards in place, scoring its rows at once by the reward spec and
    target of the :func:`run_constants`; a non-finite reward raises NumericalError."""
    *_, spec, target = constants or run_constants(cfg)
    group.rewards = check_finite(composite(group.frames, spec, target), "rewards")


def train_iteration(state: TrainerState, cfg: TrainerConfig, plan: IterationPlan | None = None,
                    ref_weights: Weights | None = None, constants=None) -> IterationRecord:
    """One full iteration, following ``plan`` (planned here when None) with the
    :func:`run_constants` ``constants`` (made when None).  On a guard skip or a numerical
    error the parameters and the optimizer are left untouched (bitwise) and the record says
    so, holding no update's numbers after an error in any epoch; an error in the rollout or
    the rewards leaves the record without rewards and ``state.group`` empty.  One value-only
    replay runs: at the parameters if skipped, else at the reference (its :class:`Weights`
    ``ref_weights``, if given); the old policy comes from the first taped epoch, and the
    passes at the rolled-out parameters share the rollout's weights."""
    started = time.perf_counter()
    it = state.iteration + 1
    if plan is None:
        plan = plan_iteration(cfg, it)
    elif plan.iteration != it:
        raise ContractError(f"the plan of iteration {plan.iteration} reached iteration {it}")
    state.iteration = it
    pivot, window = plan.rollout.pivot, plan.rollout.window
    state.group = None  # release the previous group before rolling out the next
    record = IterationRecord(iteration=it, pivot_block=pivot, window=window,
                             learning_rate=learning_rate_at(cfg, it))

    prompt, pcfg, *_ = constants = constants or run_constants(cfg)
    # Adam.apply and ema_update rebind their arrays, never write into them.
    entering = state.params, state.opt.m, state.opt.v, state.opt.step
    try:
        weights = Weights(state.params)
        group = rollout_group(state.params, prompt, plan.rollout.cfg, pivot, window,
                              plan.rollout, weights)
        score_group(group, cfg, constants)
        state.group = group
        anchor, rewards = group.rewards[0], group.rewards[1:]
        record.anchor_reward, record.branch_rewards = float(anchor), rewards.tolist()
        record.reward_mean, record.reward_std = float(rewards.mean()), float(rewards.std())
        group.contexts = build_replay_contexts(group, cfg.replay_context)
        if guard(rewards, anchor):
            record.skipped = True
            record.branch_energies = policy.surrogate_energies(
                state.params, group, pcfg, weights).tolist()
        else:
            eval_ref = gibbs(policy.surrogate_energies(state.ref, group, pcfg, ref_weights),
                             cfg.temperature)
            eval_old = None
            for _ in range(cfg.ppo_epochs):  # each epoch after the first at new parameters
                breakdown, energies, grad, eval_old = policy.total_loss_grad(
                    state.params, group, eval_old, eval_ref, pcfg,
                    weights if eval_old is None else None)
                clipped, norm = clip_gradient(grad, cfg.max_grad_norm)
                state.params = state.opt.apply(state.params, clipped,
                                               learning_rate_at(cfg, it))
            state.ema = ema_update(state.ema, state.params, cfg.ema_decay)
            # The last epoch's numbers, written once every epoch has succeeded.
            record.branch_energies = energies.tolist()
            record.per_branch_ratio = breakdown.per_branch_ratio.tolist()
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

    def final_mean_reward(self) -> float | None:
        """Mean anchor reward over those of the last 20 records that have one;
        None if none has."""
        rewards = [r.anchor_reward for r in self.records[-20:]
                   if r.anchor_reward is not None]
        return float(np.mean(rewards)) if rewards else None


class _Sidecar:
    """A forked child whose main thread sends the plans of iterations 2 on (the parent
    plans 1) or the exceptions raised making them, blocking while the parent is behind,
    and whose writer thread writes the groups handed to it.  Inline without ``os.fork``."""

    def __init__(self, cfg: TrainerConfig, traj) -> None:
        import socket
        self.cfg, self.traj, self.pid, self.pending = cfg, traj, None, False
        if hasattr(os, "fork"):
            read, write = os.pipe()
            self.link, far = socket.socketpair()
            cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else ()
            self.cpus = cpus if len(cpus) > 1 else None  # this thread's, restored by close()
            _pin(self.cpus and cpus - {max(cpus)})
            try:
                self.pid = os.fork()
            except OSError:  # EAGAIN or ENOMEM: fail loudly, leaking no descriptor
                _pin(self.cpus)
                for fd in (read, write):
                    os.close(fd)
                self.link.close()
                far.close()
                raise
            if self.pid == 0:
                try:  # the child ignores Ctrl-C and never flushes an inherited buffer
                    _pin(self.cpus and {max(self.cpus)})  # before the writer, which inherits it
                    signal.signal(signal.SIGINT, signal.SIG_IGN)
                    os.close(read)
                    self.link.close()
                    writer = threading.Thread(target=self._write, args=(far, write))
                    writer.start()
                    for it in range(2, cfg.max_iterations + 1):
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
        finally:  # even if that write fails: a live child would hang the parent's barrier
            os._exit(1)

    def _stopped(self, before: str, reason: bytes = b"") -> RuntimeError:
        self.pending = False  # nothing is left to wait for
        reason = (reason or self.acks.readline()).decode().strip() or "no error was sent"
        return RuntimeError(f"the sidecar process {self.pid} died before {before}: {reason}")

    def next(self, iteration: int) -> IterationPlan:
        if self.pid is None or iteration < 2:
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
        """Wait for the writer, unless the child is gone, then reap it and restore the CPUs."""
        if self.pid is not None:
            try:
                self.barrier()
            finally:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
                for f in (self.plans, self.acks, self.link):
                    f.close()
                _pin(self.cpus)


def _pin(cpus) -> None:
    """Bind the calling thread to ``cpus`` unless empty; an OSError leaves its set as it is."""
    if cpus:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, cpus)


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
    periodic checkpoints when an output directory is configured, after its
    ``config.json``.  Each checkpoint, and the end, waits until the dump holds
    every group so far."""
    out_dir = Path(run_cfg.out_dir) if run_cfg.out_dir else None
    if out_dir is not None:  # first: a run that crashes still leaves its config
        out_dir.mkdir(parents=True, exist_ok=True)
        save_config(run_cfg, out_dir / "config.json")
    _keep_freed_memory()  # before the sidecar's fork, which inherits it
    cfg = run_cfg.trainer
    state = init_state(cfg)
    result = TrainResult(state)
    with contextlib.ExitStack() as stack:
        metrics_file = traj_file = None
        if out_dir is not None:
            metrics_file = stack.enter_context((out_dir / run_cfg.metrics_filename).open("w"))
            if run_cfg.dump_trajectories:
                traj_file = stack.enter_context((out_dir / "trajectories.jsonl").open("w"))
        # Forked once the files are open; iteration 1 is planned here meanwhile.
        sidecar = stack.enter_context(contextlib.closing(_Sidecar(cfg, traj_file)))

        def checkpoint(tag: str) -> None:
            if out_dir is not None:
                sidecar.barrier()
                save_checkpoint(out_dir / f"checkpoint_{tag}.kvc", state.params,
                                to_flat_dict(run_cfg), state.iteration, state.ema)

        checkpoint("init")
        ref_weights, constants = Weights(state.ref), run_constants(cfg)  # a run writes neither
        for _ in range(cfg.max_iterations):
            record = train_iteration(state, cfg, sidecar.next(state.iteration + 1), ref_weights,
                                     constants)
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
