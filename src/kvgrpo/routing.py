"""Branch exploration by stochastic routing of historical KV entries.

A group rollout shares a deterministic prefix up to a pivot block, then each
branch rebuilds the local memory window from routed older frames and continues
generating.  Every trajectory in the group shares the per-block start noise, so
all variation between branches comes from the memory composition alone.  None
of that randomness depends on the parameters: :func:`plan_rollout` draws a
group's start noise and, in one loop over branches, its routings, each from
its own seed, before it is rolled out (a trainer may draw them ahead), and
:func:`rollout_group` only reads them.  The group is
generated in lockstep over one key/value history: each block is solved once
for all trajectories, with one network call per solver step and memory-length
bucket (mixed ``local_kv_choices`` give memories of several lengths), under
memories laid out afresh each block from the frame count and each row's
:func:`routed_layout`, checked once, at the block that routes.  A group is its
arrays, one row per trajectory: row 0 is the anchor and row g branch g, in its
frames, its history, its rewards and its cached window solver steps, which are
replayed later under default-layout memories, gathered for the whole group once
per window block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import network
from .cache import FrameHistory, memory_frames
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

    @property
    def window_block_indices(self) -> list[int]:
        return list(range(self.pivot_block, self.pivot_block + self.window))


def routable_range(L: int, near_count: int = 3, sink_size: int = 3) -> range:
    """Frame indices eligible for routing after L generated frames: everything
    past the sink and older than the ``near_count`` preserved most-recent frames."""
    return range(sink_size + 1, L - near_count + 1)


def sample_routing(omega, rng_seed, count: int = 6, local_size: int = 9) -> RoutingDecision:
    """Draw ``count`` distinct indices uniformly without replacement."""
    omega = sorted(omega)
    if len(omega) < count:
        raise InsufficientHistoryError(
            f"routable set of size {len(omega)} cannot fill {count} slots")
    rng = np.random.default_rng(rng_seed)
    picked = rng.choice(omega, size=count, replace=False)
    return RoutingDecision(tuple(int(i) for i in picked), local_size)


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
    if len(set(indices)) < len(indices) or not all(r in omega for r in indices):
        raise ContractError(f"routed frames {indices} must be distinct and in "
                            f"[{omega.start}, {omega.stop - 1}]")
    return routing.local_size, indices, L - near_count


@dataclass(frozen=True)
class RolloutPlan:
    """A group's draws.  Row b-1 of ``noise`` is block b's (F, d) start
    latents; ``routings[b]`` holds every trajectory's routing (``None`` for the
    anchor) at each block b that routes: the pivot, or under per-block routing
    every window block."""

    noise: np.ndarray
    routings: dict[int, tuple[RoutingDecision | None, ...]]


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
    return RolloutPlan(noise, {b: tuple(rows) for b, rows in routings.items()})


def rollout_group(params: Params, prompt: np.ndarray, cfg: GeneratorConfig, pivot: int,
                  window: int, plan: RolloutPlan) -> RolloutGroup:
    """The anchor and the routed branches of ``plan`` (from :func:`plan_rollout`),
    sharing prefix and noise: ``len(plan.noise)`` blocks, one row per routing
    at the pivot.

    One loop over blocks, each one :func:`generate_block` and one
    :func:`write_back` call: the prefix is one row written to every
    trajectory, then the anchor (row 0, never routed) and the branches are
    rows.  Every block's memories are one :func:`~kvgrpo.cache.memory_frames`
    call per row, from the frame count and the row's layout: a branch keeps
    the :func:`routed_layout` of the block that last routed it (the pivot, or
    every window block the plan routes) until the window ends, then the
    default layout, as the anchor and the prefix have throughout.  Every
    window solver step is recorded for replay, the anchor's too.  The block
    loop draws nothing.
    """
    num_blocks = len(plan.noise)
    if window < 1 or pivot < 1 or pivot + window - 1 > num_blocks:
        raise ConfigError(f"window [{pivot}, {pivot + window}) must lie in {num_blocks} blocks")
    if pivot not in plan.routings:
        raise ContractError(f"the plan routes nothing at pivot block {pivot}")

    # Row i of the history and the frames is trajectory i.
    shape, F = network.shape_from_layout(params.layout), cfg.frames_per_block
    G = len(plan.routings[pivot])
    history = FrameHistory.allocate(G, num_blocks * F, shape.hidden_dim)
    frames = np.zeros((G, num_blocks * F, shape.latent_dim))
    # Each row's memory_frames arguments after the frame count and the sink.
    default = (cfg.local_size, (), 0)
    layouts, replay = [default], []
    for b in range(1, num_blocks + 1):
        in_window = pivot <= b < pivot + window
        L = len(history)
        if b in plan.routings:
            layouts = [default if r is None else routed_layout(r, L, cfg.sink_size)
                       for r in plan.routings[b]]
        elif b == pivot + window:  # back to the default layout over own frames
            layouts = [default] * G
        cache = history.gather([memory_frames(L, cfg.sink_size, *row) for row in layouts])
        block, steps = generate_block(params, cache, b, plan.noise[b - 1], prompt, in_window,
                                      cfg)
        write_back(history, block, params, prompt)
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

    window_blocks: list[int]
    keys: np.ndarray       # (trajectories, window blocks, M, h)
    values: np.ndarray     # (trajectories, window blocks, M, h)
    sizes: np.ndarray      # (window blocks,)
    prompt: np.ndarray


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
    return ReplayContexts(group.window_block_indices, keys, values, sizes, group.prompt)
