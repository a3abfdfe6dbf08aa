"""Branch exploration by stochastic routing of historical KV entries.

A group rollout shares a deterministic prefix up to a pivot block, then each
branch rebuilds the local memory window from routed older frames and continues
generating.  Every trajectory in the group shares the per-block start noise, so
all variation between branches comes from the memory composition alone.  None
of that depends on the parameters: :func:`plan_rollout` draws a group's start
noise and routings, each from its own seed, and :meth:`RolloutPlan.build` lays
out every block's memories, by each row's :func:`routed_layout` (checked once,
at the block that routes), as history indices per memory-length bucket.  A
trainer may plan ahead; :func:`rollout_group` only gathers what the plan
indexes, and solves each block once for all trajectories, with one network
call per solver step and bucket.  A group is its arrays, one row per
trajectory: row 0 is the anchor and row g branch g, in its frames, history,
rewards and cached window solver steps, which are replayed later under
default-layout memories, gathered for the whole group once per window block
into the group's replay contexts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import network
from .cache import FrameHistory, buckets, memory_frames
from .errors import ConfigError, ContractError, InsufficientHistoryError
from .flow import GeneratorConfig, ReplaySteps, block_noise, generate_block, write_back
from .params import Params


@dataclass(frozen=True)
class RoutingDecision:
    """Frame indices filling the routed local slots of one branch, in slot order."""

    indices: tuple[int, ...]
    local_size: int = 9


@dataclass(frozen=True)
class GroupSeeds:
    noise: int
    routing: int


@dataclass
class RolloutGroup:
    """A group's trajectories as rows: row 0 is the anchor, never routed, and
    row g is branch g."""

    pivot_block: int
    window: int
    prompt: np.ndarray
    gen_cfg: GeneratorConfig
    frames: np.ndarray       # (G, N, d) final latents
    history: FrameHistory    # every row's key/value rows
    replay: ReplaySteps      # the window's solver steps; z and u_hat are (G, R, F, d)
    routings: tuple[RoutingDecision | None, ...]   # the pivot's, None for the anchor
    rewards: np.ndarray | None = None               # (G,), once scored
    contexts: ReplayContexts | None = None          # once built, to replay the window

    @property
    def window_block_indices(self) -> list[int]:
        return list(range(self.pivot_block, self.pivot_block + self.window))


def routable_range(L: int, near_count: int = 3, sink_size: int = 3) -> range:
    """Frame indices eligible for routing after L generated frames: everything
    past the sink and older than the ``near_count`` preserved most-recent frames."""
    return range(sink_size + 1, L - near_count + 1)


def sample_routing(omega, rng_seed, count: int = 6, local_size: int = 9) -> RoutingDecision:
    """Draw ``count`` distinct indices of the ascending ``omega`` (a
    :func:`routable_range`) uniformly without replacement, by position."""
    if len(omega) < count:
        raise InsufficientHistoryError(
            f"routable set of size {len(omega)} cannot fill {count} slots")
    picked = np.random.default_rng(rng_seed).choice(len(omega), size=count, replace=False)
    return RoutingDecision(tuple(int(omega[i]) for i in picked.tolist()), local_size)


def routed_layout(routing: RoutingDecision, L: int,
                  sink_size: int = 3) -> tuple[int, tuple[int, ...], int]:
    """A branch's memory layout from its routing at L frames, as the
    ``capacity, routed, newest_after`` of :func:`~kvgrpo.cache.memory_frames`:
    the routed frames in decision order fill the leading local slots, the
    newest frames the trailing ones."""
    near_count = routing.local_size - len(routing.indices)
    if near_count < 0:
        raise ConfigError(
            f"{len(routing.indices)} routed slots exceed local size {routing.local_size}")
    indices, omega = routing.indices, routable_range(L, near_count, sink_size)
    if len(routed := set(indices)) < len(indices) or not routed.issubset(omega):
        raise ContractError(f"routed frames {indices} must be distinct and in "
                            f"[{omega.start}, {omega.stop - 1}]")
    return routing.local_size, indices, L - near_count


@dataclass(frozen=True)
class RolloutPlan:
    """A group's draws and memories.  Row b-1 of ``noise`` is block b's (F, d)
    start latents; ``routings[b]`` holds every trajectory's routing (``None``
    for the anchor) at each block b that routes: the pivot, or every window
    block under per-block routing.  ``memories[b-1]`` holds the ``buckets`` of
    block b's rows: one per trajectory, or one for the group before the pivot,
    laid out for ``cfg``."""

    noise: np.ndarray
    routings: dict[int, tuple[RoutingDecision | None, ...]]
    pivot: int
    window: int
    memories: tuple[list[tuple[np.ndarray, np.ndarray]], ...]
    cfg: GeneratorConfig

    @staticmethod
    def build(noise: np.ndarray, routings: dict, pivot: int, window: int,
              cfg: GeneratorConfig) -> "RolloutPlan":
        """The plan of these draws, every memory laid out by :func:`memory_frames`:
        a branch keeps the :func:`routed_layout` of the block that last routed
        it until the window ends, then the default layout, like every other row."""
        if window < 1 or pivot < 1 or pivot + window - 1 > len(noise):
            raise ConfigError(f"window [{pivot}, {pivot + window}) must lie in "
                              f"{len(noise)} blocks")
        F, sink, memories, layouts = cfg.frames_per_block, cfg.sink_size, [], ()
        for b in range(1, len(noise) + 1):
            L = (b - 1) * F
            default = memory_frames(L, sink, cfg.local_size)
            if b in routings:
                layouts = [None if r is None else routed_layout(r, L, sink) for r in routings[b]]
            if pivot <= b < pivot + window:
                rows = [default if r is None else memory_frames(L, sink, *r) for r in layouts]
            else:  # the prefix is one row for the whole group
                rows = [default] * (1 if b < pivot else len(layouts))
            memories.append(buckets(rows))
        return RolloutPlan(noise, routings, pivot, window, tuple(memories), cfg)


def plan_rollout(num_blocks: int, pivot: int, window: int, num_branches: int,
                 seeds: GroupSeeds, cfg: GeneratorConfig, latent_dim: int,
                 local_kv_choices=((9, 6),), routing_per_block: bool = False) -> RolloutPlan:
    """Draw a group's start noise and routings from its seeds, whatever the
    parameters.  The ``(local_size, routed_slots)`` choices routable at the
    pivot are found once; branch g draws its choice from them once, from
    ``(routing, g, 997)`` when there are several, then routes each block b
    that routes over (b-1)*F frames of history, drawing from ``(routing, g)``,
    or ``(routing, g, b)`` under per-block routing.  Every draw has its own
    seed, so no draw depends on the order of the others."""
    if num_branches < 1:
        raise ConfigError("need at least one branch")
    F, sink, pivot_frame = cfg.frames_per_block, cfg.sink_size, (pivot - 1) * cfg.frames_per_block
    noise = np.stack([block_noise(seeds.noise, b, F, latent_dim)
                      for b in range(1, num_blocks + 1)])
    feasible = [(int(n), int(r)) for n, r in local_kv_choices
                if len(routable_range(pivot_frame, n - r, sink)) >= r]
    if not feasible:
        raise InsufficientHistoryError(f"no local-window choice from {list(local_kv_choices)} "
                                       f"is routable at L={pivot_frame}")
    routed = range(pivot, pivot + window) if routing_per_block else (pivot,)
    routings = {b: [None] for b in routed}
    for g in range(1, num_branches + 1):
        local_size, slots = feasible[0]
        if len(feasible) > 1:
            rng = np.random.default_rng(np.random.SeedSequence((seeds.routing, g, 997)))
            local_size, slots = feasible[rng.integers(len(feasible))]
        for b in routed:
            entropy = (seeds.routing, g) + ((b,) if routing_per_block else ())
            routings[b].append(sample_routing(
                routable_range((b - 1) * F, local_size - slots, sink),
                np.random.SeedSequence(entropy), slots, local_size))
    return RolloutPlan.build(noise, {b: tuple(rows) for b, rows in routings.items()}, pivot,
                             window, cfg)


def rollout_group(params: Params, prompt: np.ndarray, cfg: GeneratorConfig, pivot: int,
                  window: int, plan: RolloutPlan) -> RolloutGroup:
    """The anchor (row 0) and the routed branches of ``plan``, made by
    :func:`plan_rollout` for this config, pivot and window, over ``len(plan.noise)``
    blocks: per block, a gather of the plan's memories, one
    :func:`generate_block` and one :func:`write_back` call, with weights read
    once.  Every window solver step is recorded for replay, the anchor's too.
    """
    num_blocks = len(plan.noise)
    if (plan.pivot, plan.window, len(plan.memories)) != (pivot, window, num_blocks):
        raise ContractError(f"the plan is for pivot block {plan.pivot}, window {plan.window}, "
                            f"not pivot block {pivot}, window {window} in {num_blocks} blocks")
    if plan.cfg != cfg:
        raise ContractError(f"the plan is for {plan.cfg}, not {cfg}")

    # Row i of the history and the frames is trajectory i.
    shape, F = network.shape_from_layout(params.layout), cfg.frames_per_block
    G = len(plan.routings[pivot])
    history = FrameHistory.allocate(G, num_blocks * F, shape.hidden_dim)
    frames = np.zeros((G, num_blocks * F, shape.latent_dim))
    weights, replay = network.read(params), []
    for b, memories in enumerate(plan.memories, 1):
        in_window, L = pivot <= b < pivot + window, len(history)
        block, steps = generate_block(
            params, [(rows, *history.take(rows, index)) for rows, index in memories], b,
            plan.noise[b - 1], prompt, weights, in_window, cfg)
        write_back(history, block, weights, prompt)
        frames[:, L:L + F] = block.frames
        replay += [steps] if in_window else []
    return RolloutGroup(pivot, window, np.asarray(prompt), cfg, frames, history,
                        ReplaySteps.concat(replay), plan.routings[pivot])


@dataclass
class ReplayContexts:
    """Default-layout memories for replaying each trajectory's window steps.

    ``keys[i, j]`` and ``values[i, j]`` condition the group's row ``i`` at the
    j-th window block; their first ``sizes[j]`` rows are filled (a
    window starting before the memory is full has shorter memories at first).
    Entries come from the stored rollout history, so the contexts are plain
    numbers: replay gradients flow through the velocity evaluation only,
    exactly as at rollout time.
    """

    keys: np.ndarray       # (trajectories, window blocks, M, h)
    values: np.ndarray     # (trajectories, window blocks, M, h)
    sizes: np.ndarray      # (window blocks,)


def build_replay_contexts(group: RolloutGroup, source: str = "branch") -> ReplayContexts:
    """Per-branch unperturbed contexts for the window blocks, one history
    gather per block.  ``source="branch"`` rebuilds each context from that branch's own generated
    frames (perturbed states written back); ``source="anchor"`` conditions every
    branch on the anchor's frames instead.
    """
    if source not in ("branch", "anchor"):
        raise ConfigError(f"replay context source must be 'branch' or 'anchor', got {source!r}")
    cfg, history = group.gen_cfg, group.history
    # A default memory's length depends only on the frames before it: one bucket.
    memories = [history.default_cache(cfg.frames_per_block * (b - 1), cfg.sink_size,
                                      cfg.local_size).stacked()[0][1:]
                for b in group.window_block_indices]
    sizes = np.array([0 if k is None else k.shape[1] for k, _ in memories])
    shape = (len(history.keys), len(sizes), sizes.max(), history.keys.shape[2])
    keys, values = np.zeros(shape), np.zeros(shape)
    rows = slice(0, 1) if source == "anchor" else slice(None)
    for j, (k, v) in enumerate(memories):
        if k is not None:
            keys[:, j, :sizes[j]], values[:, j, :sizes[j]] = k[rows], v[rows]
    return ReplayContexts(keys, values, sizes)
