"""Branch exploration by stochastic routing of historical KV entries.

A group rollout shares a deterministic prefix up to a pivot block, then each branch
rebuilds the local memory window from routed older frames and continues generating.
Every trajectory in the group shares the per-block start noise, so all variation
between branches comes from the memory composition alone.  None of that depends on
the parameters: :func:`plan_rollout` draws a group's start noise and routings, each
from its own seed (:func:`seed_states` makes them all in one pass), and
:meth:`RolloutPlan.build` lays out every block's memories, by each row's
:func:`routed_layout` (checked once, at the block that routes), as history indices
per memory-length bucket, pickled packed in one array.  A trainer may plan ahead;
:func:`rollout_group` only gathers what the plan indexes, in one input buffer per row count,
and solves each block once for all trajectories, with one network call per solver step.  A
group is its arrays, one row per trajectory: row 0 is the anchor and row g branch g, in its
frames, history, rewards and cached window solver steps (latents and velocities; the config
times them), replayed later under default-layout memories gathered once per window block
into replay contexts, and from them laid out once into the group's replay batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from . import network
from .cache import FrameHistory, buckets, memory_frames
from .errors import ConfigError, ContractError, InsufficientHistoryError
from .flow import GeneratorConfig, generate_block, write_back
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
    replay: tuple            # the window's (z, u_hat) steps, each (G, window * S, F, d)
    routings: tuple[RoutingDecision | None, ...]   # the pivot's, None for the anchor
    rewards: np.ndarray | None = None               # (G,), once scored
    contexts: ReplayContexts | None = None          # once built, to replay the window
    _batch: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def window_block_indices(self) -> list[int]:
        return list(range(self.pivot_block, self.pivot_block + self.window))

    def replay_schedule(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each recorded step's flow time, 1-based solver step and 0-based window block."""
        S, k = self.gen_cfg.num_steps, np.arange(self.window * self.gen_cfg.num_steps)
        return np.array(self.gen_cfg.times * self.window), k % S + 1, k // S

    def replay_batch(self) -> list:
        """Per memory size, shortest first, its recorded steps (whole window blocks, in order)
        and every row's network inputs (:class:`~kvgrpo.network.Inputs`) and velocities there,
        each (rows, steps, ...), laid out once per ``replay`` and ``contexts`` object."""
        made = self._batch
        if made is None or made[0] is not self.replay or made[1] is not self.contexts:
            (z, u_hat), ctx, (t, _, window) = self.replay, self.contexts, self.replay_schedule()
            sizes, by_size = ctx.sizes[window], []
            for n in sorted(set(sizes.tolist())):  # not np.unique: it imports numpy.ma
                s = np.flatnonzero(sizes == n)
                kv = np.empty((2, len(z), len(s), n + z.shape[2], ctx.keys.shape[-1]))
                kv[:, ..., :n, :] = [a[:len(z), window[s], :n] for a in (ctx.keys, ctx.values)]
                aug = network.input_buffer((len(z), len(s), *z.shape[2:]), self.prompt)
                by_size.append((s, network.augment(aug, z[:, s], t[s]), *kv, u_hat[:, s]))
            made = self._batch = (self.replay, self.contexts, by_size)
        return made[2]


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

    def __reduce__(self):  # every bucket's rows and index packed in one intp array
        packed = np.concatenate([a.ravel() for b in self.memories for bucket in b for a in bucket])
        return RolloutPlan.unpack, (self.noise, self.routings, self.pivot, self.window, self.cfg,
                                    [[i.shape for _, i in b] for b in self.memories], packed)

    @staticmethod
    def unpack(noise, routings, pivot, window, cfg, shapes, packed) -> "RolloutPlan":
        """A pickled plan, each bucket's rows and then its index a view of ``packed``."""
        stop = 0
        return RolloutPlan(noise, routings, pivot, window, tuple(
            [(packed[stop:(stop := stop + n)], packed[stop:(stop := stop + n * m)].reshape(n, m))
             for n, m in block] for block in shapes), cfg)


@dataclass(frozen=True)
class _Seeded(np.random.bit_generator.ISeedSequence):
    """A seed whose ``generate_state(4, np.uint64)``, all a ``PCG64`` reads, is precomputed."""

    state: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.state


def seed_states(entropies: list) -> list:
    """``np.random.SeedSequence(e)`` of each entropy ``e``, from one pass of its pool hash
    over them all if every ``e`` is at most four words below 2**32 (a missing word counts
    as 0); numpy splits any other word, so then each ``e`` is its own ``SeedSequence``."""
    if not all(len(e) <= 4 and all(0 <= w < 2**32 for w in e) for e in entropies):
        return [np.random.SeedSequence(e) for e in entropies]
    const, mult = 0x43B0D7E5, 0x931E8875  # the word hash's constant advances once per call

    def hashed(words):
        nonlocal const
        words = (words ^ const) * (const := const * mult & 0xFFFFFFFF)
        return words ^ words >> 16
    pool = [hashed(w) for w in np.array([(*e, 0, 0, 0)[:4] for e in entropies], np.uint32).T]
    for src, dst in permutations(range(4), 2):
        words = pool[dst] * 0xCA01F9DD - hashed(pool[src]) * 0x4973F715
        pool[dst] = words ^ words >> 16
    const, mult = 0x8B51F9DD, 0x58F38DED
    state = np.array([hashed(pool[i % 4]) for i in range(8)], "<u4").T.copy().view("<u8")
    return [_Seeded(row) for row in state.astype(np.uint64)]


def plan_rollout(num_blocks: int, pivot: int, window: int, num_branches: int,
                 seeds: GroupSeeds, cfg: GeneratorConfig, latent_dim: int,
                 local_kv_choices=((9, 6),), routing_per_block: bool = False) -> RolloutPlan:
    """Draw a group's start noise and routings from its seeds, whatever the
    parameters.  The ``(local_size, routed_slots)`` choices routable at the
    pivot are found once; branch g draws its choice from them once, from
    ``(routing, g, 997)`` when there are several, then routes each block b
    that routes over (b-1)*F frames of history, drawing from ``(routing, g)``,
    or ``(routing, g, b)`` under per-block routing.  Every draw has its own
    seed, all hashed in one pass, so no draw depends on the order of the others."""
    if num_branches < 1:
        raise ConfigError("need at least one branch")
    F, sink, pivot_frame = cfg.frames_per_block, cfg.sink_size, (pivot - 1) * cfg.frames_per_block
    routed = range(pivot, pivot + window) if routing_per_block else (pivot,)
    drawn = iter(seed_states([(seeds.noise, b) for b in range(1, num_blocks + 1)] + [
        entropy for g in range(1, num_branches + 1) for entropy in [(seeds.routing, g, 997)] + [
            (seeds.routing, g, b)[:2 + routing_per_block] for b in routed]]))
    noise = np.stack([np.random.default_rng(next(drawn)).standard_normal((F, latent_dim))
                      for _ in range(num_blocks)])
    feasible = [(int(n), int(r)) for n, r in local_kv_choices
                if len(routable_range(pivot_frame, n - r, sink)) >= r]
    if not feasible:
        raise InsufficientHistoryError(f"no local-window choice from {list(local_kv_choices)} "
                                       f"is routable at L={pivot_frame}")
    routings = {b: [None] for b in routed}
    for g in range(1, num_branches + 1):
        (local_size, slots), choice = feasible[0], next(drawn)
        if len(feasible) > 1:
            local_size, slots = feasible[np.random.default_rng(choice).integers(len(feasible))]
        for b in routed:
            routings[b].append(sample_routing(routable_range((b - 1) * F, local_size - slots, sink),
                                              next(drawn), slots, local_size))
    return RolloutPlan.build(noise, {b: tuple(rows) for b, rows in routings.items()}, pivot,
                             window, cfg)


def rollout_group(params: Params, prompt: np.ndarray, cfg: GeneratorConfig, pivot: int,
                  window: int, plan: RolloutPlan, weights=None) -> RolloutGroup:
    """The anchor (row 0) and the routed branches of ``plan``, made by
    :func:`plan_rollout` for this config, pivot and window, over ``len(plan.noise)`` blocks:
    per block, a gather of the plan's memories, one :func:`generate_block` and one
    :func:`write_back` call, with ``weights`` read once if not given, in one input buffer per
    row count.  Every window solver step goes into the group's record, the anchor's too.
    """
    num_blocks = len(plan.noise)
    if (plan.pivot, plan.window, len(plan.memories)) != (pivot, window, num_blocks):
        raise ContractError(f"the plan is for pivot block {plan.pivot}, window {plan.window}, "
                            f"not pivot block {pivot}, window {window} in {num_blocks} blocks")
    if plan.cfg != cfg:
        raise ContractError(f"the plan is for {plan.cfg}, not {cfg}")

    # Row i of the history and the frames is trajectory i.
    shape, F, S = network.shape_from_layout(params.layout), cfg.frames_per_block, cfg.num_steps
    G = len(plan.routings[pivot])
    history = FrameHistory.allocate(G, num_blocks * F, shape.hidden_dim)
    frames = np.zeros((G, num_blocks * F, shape.latent_dim))
    z, u_hat = np.empty((2, G, window * S, F, shape.latent_dim))
    weights = network.Weights(params) if weights is None else weights
    inputs = [network.input_buffer((n, F, shape.latent_dim), prompt) for n in (1, G)]
    for b, memories in enumerate(plan.memories, 1):
        k, L, aug = (b - pivot) * S, len(history), inputs[b >= pivot]  # k: its first record step
        block = generate_block(
            params, [(rows, *history.take(rows, index, F)) for rows, index in memories], b,
            plan.noise[b - 1], prompt, weights, (z[:, k:k + S], u_hat[:, k:k + S])
            if pivot <= b < pivot + window else None, cfg, aug, frames[:len(aug), L:L + F])
        write_back(history, block, weights, prompt, aug)
    frames[1:, :(pivot - 1) * F] = frames[0, :(pivot - 1) * F]  # the prefix is every row's
    return RolloutGroup(pivot, window, np.asarray(prompt), cfg, frames, history, (z, u_hat),
                        plan.routings[pivot])


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
    memories = [history.default_cache(cfg.frames_per_block * (b - 1), cfg.sink_size,
                                      cfg.local_size).stacked()
                for b in group.window_block_indices]
    sizes = np.array([k.shape[1] for k, _ in memories])
    shape = (len(history.keys), len(sizes), sizes.max(), history.keys.shape[2])
    keys, values = np.zeros(shape), np.zeros(shape)
    rows = slice(0, 1) if source == "anchor" else slice(None)
    for j, (k, v) in enumerate(memories):
        keys[:, j, :sizes[j]], values[:, j, :sizes[j]] = k[rows], v[rows]
    return ReplayContexts(keys, values, sizes)
