"""Branch exploration by stochastic routing of historical KV entries.

A group rollout shares a deterministic prefix up to a pivot block, then each
branch rebuilds the local memory window from routed older frames and continues
generating.  Every trajectory in the group shares the per-block start noise, so
all variation between branches comes from the memory composition alone.  The
group is generated in lockstep: each block is solved once for all
trajectories, with one network call per solver step and memory-length bucket
(mixed ``local_kv_choices`` give memories of several lengths).  The solver
steps inside the perturbation window are cached as rows for later replay under
default-layout memories, stacked into one array per group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cache import FrameHistory, KVCache
from .errors import ConfigError, ContractError, InsufficientHistoryError
from .flow import Block, GeneratorConfig, ReplaySteps, generate_block, write_back
from .params import Params


@dataclass(frozen=True)
class RoutingDecision:
    """Frame indices filling the routed local slots of one branch, in slot order."""

    indices: tuple[int, ...]
    local_size: int = 9


@dataclass
class BranchTrajectory:
    blocks: list[Block]
    routing: RoutingDecision | None
    replay: ReplaySteps          # the window's solver steps, as rows
    branch_id: int
    history: FrameHistory
    reward: float | None = None

    def window_blocks(self, pivot: int, window: int) -> list[Block]:
        return [b for b in self.blocks if pivot <= b.block_index < pivot + window]


@dataclass(frozen=True)
class GroupSeeds:
    noise: int
    routing: int


@dataclass
class RolloutGroup:
    anchor: BranchTrajectory
    branches: list[BranchTrajectory]
    pivot_block: int
    window: int
    seeds: GroupSeeds
    prompt: np.ndarray
    gen_cfg: GeneratorConfig

    @property
    def window_block_indices(self) -> list[int]:
        return list(range(self.pivot_block, self.pivot_block + self.window))

    def all_trajectories(self) -> list[BranchTrajectory]:
        return [self.anchor] + self.branches

    def branch_rewards(self) -> np.ndarray:
        return np.array([b.reward for b in self.branches], dtype=np.float64)


def routable_set(L: int, near_count: int = 3, min_count: int = 6,
                 sink_size: int = 3) -> list[int]:
    """Frame indices eligible for routing after L generated frames: everything
    past the sink and older than the preserved most-recent frames."""
    lo, hi = sink_size + 1, L - near_count
    indices = list(range(lo, hi + 1))
    if len(indices) < min_count:
        raise InsufficientHistoryError(
            f"routable set for L={L} has {len(indices)} frames, need {min_count}")
    return indices


def sample_routing(omega, rng_seed, count: int = 6, local_size: int = 9) -> RoutingDecision:
    """Draw ``count`` distinct indices uniformly without replacement."""
    omega = sorted(omega)
    if len(omega) < count:
        raise InsufficientHistoryError(
            f"routable set of size {len(omega)} cannot fill {count} slots")
    rng = np.random.default_rng(rng_seed)
    picked = rng.choice(omega, size=count, replace=False)
    return RoutingDecision(tuple(int(i) for i in picked), local_size)


def build_branch_cache(history: FrameHistory, L: int, routing: RoutingDecision,
                       sink_size: int = 3) -> KVCache:
    """Routed-layout memory: sink unchanged, leading local slots filled with the
    routed frames in decision order, trailing slots with the newest frames."""
    if L > len(history):
        raise ContractError(f"history holds {len(history)} frames, pivot expects {L}")
    near_count = routing.local_size - len(routing.indices)
    if near_count < 0:
        raise ConfigError(
            f"{len(routing.indices)} routed slots exceed local size {routing.local_size}")
    lo, hi = sink_size + 1, L - near_count
    seen = set()
    for r in routing.indices:
        if not lo <= r <= hi:
            raise ContractError(f"routed frame {r} outside routable range [{lo}, {hi}]")
        if r in seen:
            raise ContractError(f"routed frame {r} repeated")
        seen.add(r)
    frames = [*range(1, sink_size + 1), *routing.indices,
              *range(L - near_count + 1, L + 1)]
    return history.gather(frames, sink_size, routing.local_size)


def _branch_decider(seeds: GroupSeeds, branch_id: int, choices, pivot_frame: int,
                    sink_size: int, override: tuple[int, ...] | None):
    """One branch's routing.  Its (local_size, routed_slots) pair is drawn once
    from the choices feasible at the pivot; ``decide(L, block)`` then routes L
    frames of history."""
    feasible = [c for c in choices if pivot_frame - sink_size - (c[0] - c[1]) >= c[1]]
    if not feasible:
        raise InsufficientHistoryError(
            f"no local-window choice from {list(choices)} is routable at L={pivot_frame}")
    pick = 0
    if len(feasible) > 1:
        rng = np.random.default_rng(np.random.SeedSequence((seeds.routing, branch_id, 997)))
        pick = int(rng.integers(len(feasible)))
    local_size, routed_slots = (int(c) for c in feasible[pick])

    def decide(L: int, block: int | None) -> RoutingDecision:
        if override is not None:
            return RoutingDecision(tuple(override), local_size)
        omega = routable_set(L, local_size - routed_slots, routed_slots, sink_size)
        # Documented derivation: fixed-mode decisions use (routing, branch), the
        # per-block mode appends the block index.
        entropy = (seeds.routing, branch_id) + (() if block is None else (block,))
        return sample_routing(omega, np.random.SeedSequence(entropy), routed_slots,
                              local_size)

    return decide


def rollout_group(params: Params, prompt: np.ndarray, num_blocks: int, pivot: int,
                  window: int, num_branches: int, seeds: GroupSeeds,
                  cfg: GeneratorConfig = GeneratorConfig(),
                  local_kv_choices=((9, 6),),
                  routing_per_block: bool = False,
                  routing_overrides: dict[int, tuple[int, ...]] | None = None
                  ) -> RolloutGroup:
    """Anchor plus ``num_branches`` routed branches sharing prefix and noise.

    One loop over blocks.  Blocks before the pivot are generated once, as a
    single trajectory, and shared.  From the pivot on, the anchor and every
    branch are rows of one :func:`generate_block` and one :func:`write_back`
    call per block.  Within the window each branch generates under its routed
    memory (updated by positional write-back shifts, or rebuilt per block when
    ``routing_per_block``); beyond it, generation reverts to the default layout
    over the branch's own frames.  The anchor is branch 0: it is never routed
    and keeps the default memory throughout.  Every solver step of every
    window block is recorded for replay, for the anchor as well.
    """
    if window < 1 or pivot < 1:
        raise ConfigError(f"pivot {pivot} and window {window} must be >= 1")
    if pivot + window - 1 > num_blocks:
        raise ConfigError(
            f"window [{pivot}, {pivot + window}) exceeds {num_blocks} blocks")
    if num_branches < 1:
        raise ConfigError("need at least one branch")

    # Row i of every call is trajectory i: the shared prefix alone until the
    # pivot, then the anchor and the branches.
    caches = [KVCache(cfg.sink_size, cfg.local_size)]
    histories = [FrameHistory()]
    blocks: list[list[Block]] = [[]]
    routings: list[RoutingDecision | None] = [None]
    replay: list[list[ReplaySteps]] = [[]]
    for b in range(1, num_blocks + 1):
        in_window = pivot <= b < pivot + window
        if b == pivot:
            pivot_frame = len(histories[0])
            deciders = [_branch_decider(
                seeds, g, local_kv_choices, pivot_frame, cfg.sink_size,
                None if routing_overrides is None else routing_overrides.get(g))
                for g in range(1, num_branches + 1)]
            routings += [decide(pivot_frame, pivot if routing_per_block else None)
                         for decide in deciders]
            histories += [histories[0].copy() for _ in deciders]
            caches += [build_branch_cache(h, pivot_frame, r, cfg.sink_size)
                       for h, r in zip(histories[1:], routings[1:])]
            blocks = [list(blocks[0]) for _ in routings]
            replay = [[] for _ in routings]
        elif in_window and routing_per_block:
            caches[1:] = [build_branch_cache(h, len(h), decide(len(h), b), cfg.sink_size)
                          for h, decide in zip(histories[1:], deciders)]
        elif b == pivot + window:
            # Window over: revert to the default sliding layout over each
            # branch's own written-back frames.
            caches[1:] = [h.default_cache(len(h), cfg.sink_size, cfg.local_size)
                          for h in histories[1:]]
        block, steps = generate_block(params, caches, b, seeds.noise, prompt, in_window, cfg)
        write_back(caches, block, params, prompt, histories)
        for trajectory_blocks, frames in zip(blocks, block.frames):
            trajectory_blocks.append(Block(frames, b))
        for trajectory_replay, rows in zip(replay, steps if in_window else ()):
            trajectory_replay.append(rows)

    trajectories = [BranchTrajectory(blocks[g], routings[g], ReplaySteps.concat(replay[g]),
                                     g, histories[g]) for g in range(len(routings))]
    return RolloutGroup(trajectories[0], trajectories[1:], pivot, window, seeds,
                        np.asarray(prompt), cfg)


@dataclass
class ReplayContexts:
    """Default-layout memories for replaying each trajectory's window steps.

    ``keys[i, j]`` and ``values[i, j]`` condition trajectory ``i`` (its branch
    id) at the j-th window block; their first ``sizes[j]`` rows are filled (a
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
    """Per-branch unperturbed contexts for the window blocks.

    ``source="branch"`` rebuilds each context from that branch's own generated
    frames (perturbed states written back); ``source="anchor"`` conditions every
    branch on the anchor's frames instead.
    """
    if source not in ("branch", "anchor"):
        raise ConfigError(f"replay context source must be 'branch' or 'anchor', got {source!r}")
    cfg = group.gen_cfg
    memories = [[(group.anchor.history if source == "anchor" else traj.history)
                 .default_cache(cfg.frames_per_block * (b - 1), cfg.sink_size,
                                cfg.local_size).stacked()
                 for b in group.window_block_indices] for traj in group.all_trajectories()]
    # A default memory's length depends only on how many frames precede it.
    sizes = np.array([0 if k is None else len(k) for k, _ in memories[0]])
    shape = (len(memories), len(sizes), sizes.max(), group.anchor.history.keys.shape[1])
    keys, values = np.zeros(shape), np.zeros(shape)
    for i, row in enumerate(memories):
        for j, (k, v) in enumerate(row):
            keys[i, j, :sizes[j]], values[i, j, :sizes[j]] = k, v
    return ReplayContexts(group.window_block_indices, keys, values, sizes, group.prompt)
