"""Branch exploration by stochastic routing of historical KV entries.

A group rollout shares a deterministic prefix up to a pivot block, then each
branch rebuilds the local memory window from routed older frames and continues
generating.  Every trajectory in the group shares the per-block start noise, so
all variation between branches comes from the memory composition alone.  The
solver steps inside the perturbation window are cached for later replay under
the default-layout memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cache import ROUTED_LAYOUT, FrameHistory, KVCache
from .errors import ConfigError, ContractError, InsufficientHistoryError
from .flow import (Block, GeneratorConfig, ReplayTuple, generate_block, write_back)
from .params import Params


@dataclass(frozen=True)
class RoutingDecision:
    """Frame indices filling the routed local slots of one branch, in slot order."""

    indices: tuple[int, ...]
    branch_id: int = 0
    pivot_block: int = 0
    local_size: int = 9


@dataclass
class BranchTrajectory:
    blocks: list[Block]
    routing: RoutingDecision | None
    replay: list[ReplayTuple]
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


def sample_routing(omega, rng_seed, count: int = 6, branch_id: int = 0,
                   pivot_block: int = 0, local_size: int = 9) -> RoutingDecision:
    """Draw ``count`` distinct indices uniformly without replacement."""
    omega = sorted(omega)
    if len(omega) < count:
        raise InsufficientHistoryError(
            f"routable set of size {len(omega)} cannot fill {count} slots")
    rng = np.random.default_rng(rng_seed)
    picked = rng.choice(omega, size=count, replace=False)
    return RoutingDecision(tuple(int(i) for i in picked), branch_id, pivot_block,
                           local_size)


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
    sink = [history.entry(i) for i in range(1, sink_size + 1)]
    local = [history.entry(r) for r in routing.indices]
    local += [history.entry(i) for i in range(L - near_count + 1, L + 1)]
    return KVCache(sink_size, routing.local_size, ROUTED_LAYOUT, sink, local)


def _branch_routing_seed(seeds: GroupSeeds, branch_id: int, block: int | None = None):
    # Documented derivation: fixed-mode decisions use (routing, branch), the
    # per-block mode appends the block index.
    if block is None:
        return np.random.SeedSequence((seeds.routing, branch_id))
    return np.random.SeedSequence((seeds.routing, branch_id, block))


def _pick_local_size(seeds: GroupSeeds, branch_id: int, choices, L: int,
                     sink_size: int) -> tuple[int, int]:
    """Choose a (local_size, routed_slots) pair feasible at L frames of history."""
    feasible = [c for c in choices if L - sink_size - (c[0] - c[1]) >= c[1]]
    if not feasible:
        raise InsufficientHistoryError(
            f"no local-window choice from {list(choices)} is routable at L={L}")
    if len(feasible) == 1:
        n, r = feasible[0]
        return int(n), int(r)
    rng = np.random.default_rng(np.random.SeedSequence((seeds.routing, branch_id, 997)))
    n, r = feasible[int(rng.integers(len(feasible)))]
    return int(n), int(r)


def rollout_group(params: Params, prompt: np.ndarray, num_blocks: int, pivot: int,
                  window: int, num_branches: int, seeds: GroupSeeds,
                  cfg: GeneratorConfig = GeneratorConfig(),
                  local_kv_choices=((9, 6),),
                  routing_per_block: bool = False,
                  routing_overrides: dict[int, tuple[int, ...]] | None = None
                  ) -> RolloutGroup:
    """Anchor plus ``num_branches`` routed branches sharing prefix and noise.

    Blocks before the pivot are generated once and shared.  Within the window
    each branch generates under its routed memory (updated by positional
    write-back shifts, or rebuilt per block when ``routing_per_block``); beyond
    it, generation reverts to the default layout over the branch's own frames.
    Replay tuples are recorded for every solver step of every window block, for
    the anchor as well.
    """
    if window < 1 or pivot < 1:
        raise ConfigError(f"pivot {pivot} and window {window} must be >= 1")
    if pivot + window - 1 > num_blocks:
        raise ConfigError(
            f"window [{pivot}, {pivot + window}) exceeds {num_blocks} blocks")
    if num_branches < 1:
        raise ConfigError("need at least one branch")

    # Shared prefix under the default memory.
    cache = KVCache(cfg.sink_size, cfg.local_size)
    history = FrameHistory()
    prefix: list[Block] = []
    for b in range(1, pivot):
        block, _ = generate_block(params, cache, b, seeds.noise, prompt, False, cfg)
        write_back(cache, block, params, prompt, history)
        prefix.append(block)
    pivot_frame = len(history)

    anchor = _continue_default(params, prompt, prefix, cache.copy(), history.copy(),
                               pivot, window, num_blocks, seeds, cfg, branch_id=0)

    branches: list[BranchTrajectory] = []
    for g in range(1, num_branches + 1):
        branches.append(_run_branch(
            params, prompt, prefix, history, pivot_frame, pivot, window, num_blocks,
            seeds, cfg, g, local_kv_choices, routing_per_block,
            None if routing_overrides is None else routing_overrides.get(g)))
    return RolloutGroup(anchor, branches, pivot, window, seeds, np.asarray(prompt),
                        cfg)


def _continue_default(params, prompt, prefix, cache, history, pivot, window,
                      num_blocks, seeds, cfg, branch_id) -> BranchTrajectory:
    blocks = list(prefix)
    replay: list[ReplayTuple] = []
    for b in range(pivot, num_blocks + 1):
        record = pivot <= b < pivot + window
        block, reps = generate_block(params, cache, b, seeds.noise, prompt, record, cfg)
        write_back(cache, block, params, prompt, history)
        blocks.append(block)
        replay.extend(reps)
    return BranchTrajectory(blocks, None, replay, branch_id, history)


def _run_branch(params, prompt, prefix, prefix_history, pivot_frame, pivot, window,
                num_blocks, seeds, cfg, branch_id, local_kv_choices,
                routing_per_block, override) -> BranchTrajectory:
    history = prefix_history.copy()
    local_size, routed_slots = _pick_local_size(seeds, branch_id, local_kv_choices,
                                                pivot_frame, cfg.sink_size)

    def decide(L: int, block: int | None) -> RoutingDecision:
        if override is not None:
            return RoutingDecision(tuple(override), branch_id, pivot, local_size)
        omega = routable_set(L, local_size - routed_slots, routed_slots, cfg.sink_size)
        seed = _branch_routing_seed(seeds, branch_id, block)
        return sample_routing(omega, seed, routed_slots, branch_id, pivot, local_size)

    routing = decide(pivot_frame, pivot if routing_per_block else None)
    cache = build_branch_cache(history, pivot_frame, routing, cfg.sink_size)

    blocks = list(prefix)
    replay: list[ReplayTuple] = []
    for b in range(pivot, num_blocks + 1):
        in_window = pivot <= b < pivot + window
        if in_window and routing_per_block and b > pivot:
            cache = build_branch_cache(history, len(history),
                                       decide(len(history), b), cfg.sink_size)
        if b == pivot + window:
            # Window over: revert to the default sliding layout over the
            # branch's own written-back frames.
            cache = history.default_cache(len(history), cfg.sink_size, cfg.local_size)
        block, reps = generate_block(params, cache, b, seeds.noise, prompt,
                                     in_window, cfg)
        write_back(cache, block, params, prompt, history)
        blocks.append(block)
        replay.extend(reps)
    return BranchTrajectory(blocks, routing, replay, branch_id, history)


@dataclass
class ReplayContexts:
    """Default-layout memories for replaying each trajectory's window steps.

    ``caches[branch_id][j]`` holds the stacked ``(keys, values)`` that condition
    the j-th window block.  Entries come from the stored rollout history, so
    the contexts are plain numbers: replay gradients flow through the velocity
    evaluation only, exactly as at rollout time.
    """

    window_blocks: list[int]
    caches: dict[int, list[tuple[np.ndarray | None, np.ndarray | None]]]
    prompt: np.ndarray

    def for_block(self, branch_id: int, block: int
                  ) -> tuple[np.ndarray | None, np.ndarray | None]:
        return self.caches[branch_id][block - self.window_blocks[0]]


def build_replay_contexts(group: RolloutGroup, source: str = "branch") -> ReplayContexts:
    """Per-branch unperturbed contexts for the window blocks.

    ``source="branch"`` rebuilds each context from that branch's own generated
    frames (perturbed states written back); ``source="anchor"`` conditions every
    branch on the anchor's frames instead.
    """
    if source not in ("branch", "anchor"):
        raise ConfigError(f"replay context source must be 'branch' or 'anchor', got {source!r}")
    cfg = group.gen_cfg
    caches: dict[int, list[tuple]] = {}
    for traj in group.all_trajectories():
        hist = group.anchor.history if source == "anchor" else traj.history
        per_block = []
        for b in group.window_block_indices:
            upto = cfg.frames_per_block * (b - 1)
            cache = hist.default_cache(upto, cfg.sink_size, cfg.local_size)
            per_block.append(cache.stacked())
        caches[traj.branch_id] = per_block
    return ReplayContexts(group.window_block_indices, caches, group.prompt)
