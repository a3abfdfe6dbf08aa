"""Surrogate policy over exploration branches and the losses trained on it.

Each branch (row g >= 1 of a group's arrays; row 0 is the anchor) gets an energy: by
default the replay residual (squared error between recorded rollout velocities and their
re-evaluations at the group's replay schedule, under the restored default-layout context,
normalized by latent dimension, with every cached step of the selected rows replayed as
rows of one network call sliced from the group's replay batch), or optionally a plain
latent-space distance to the anchor over the window frames.  A softmax over negative
energies turns the group into a categorical policy; PPO ratios against a frozen snapshot
and a KL pull toward the reference policy are computed in the log domain.

The loss head is plain numpy.  Given taped energies it records itself as it
goes, as the network does: one log-softmax node, then one node each for the
PPO term, the KL and the total, whose backward functions replay the order in
which a tape of elementwise ops would accumulate their adjoints.  Given arrays
it returns plain numbers for bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import network
from .autodiff import grad as ad_grad
from .errors import ContractError
from .params import Params
from .routing import RolloutGroup

ADV_EPS = 1e-8


@dataclass(frozen=True)
class PolicyConfig:
    tau: float = 1.0
    beta: float = 5.0
    eps_low: float = 0.1
    eps_high: float = 0.2
    adv_clip_max: float = 2.5
    grad_steps: int | None = 2          # leading solver steps per block that carry gradient
    include_all_steps: bool = True      # non-carrying residuals still count toward the value
    surrogate: str = "replay"           # "replay" | "latent_l2"
    l2_sigma: float = 1.0


@dataclass
class PolicyEval:
    """Energies and the categorical policy they induce, for one parameter set."""

    energies: np.ndarray
    log_probs: np.ndarray
    probs: np.ndarray


@dataclass
class LossBreakdown:
    ppo: float
    kl: float
    total: float
    per_branch_ratio: np.ndarray

    @classmethod
    def of(cls, total, ppo, kl, rho) -> "LossBreakdown":
        """Plain numbers from the terms of :func:`ppo_kl_loss`, values or tape
        nodes.  The KL is non-negative mathematically but can round just below
        zero at near-identical policies, so the reported value is clamped."""
        kl_val = float(ad.value(kl))
        return cls(float(ad.value(ppo)), kl_val if kl_val > 0 else 0.0,
                   float(ad.value(total)), np.asarray(ad.value(rho), dtype=np.float64))


def replay_energies(reader, group: RolloutGroup, rows,
                    cfg: PolicyConfig = PolicyConfig(grad_steps=None), weights=None):
    """Per-row sum of the per-dimension-normalized squared residuals between
    the cached rollout velocities of the group rows ``rows`` and their replay
    under each window block's default-layout memory (``group.contexts``), with one network
    call per memory size over those rows' counted steps, row by row, a view of the group's
    :meth:`~kvgrpo.routing.RolloutGroup.replay_batch`, with the reader's ``weights``
    (:class:`~kvgrpo.network.Weights`, read here if None).  Only the first ``cfg.grad_steps``
    solver steps of each block (all if None) carry gradient, a taped call's pullback reading
    those alone; later steps are either added as constants (``cfg.include_all_steps``) or
    dropped from the value entirely.  Returns a (rows,) array for a value-only reader and a
    tape node otherwise."""
    if group.contexts is None:
        raise ContractError("the group has no replay contexts: build_replay_contexts never ran")
    d = network.shape_from_layout(reader.layout).latent_dim
    if group.replay[0].shape[-1] != d:
        raise ContractError(f"replay latent dim {group.replay[0].shape[-1]} != network dim {d}")
    rows, S = list(rows), group.gen_cfg.num_steps
    at = slice(rows[0], rows[-1] + 1) if rows == list(range(rows[0], rows[-1] + 1)) else rows
    carrying = np.s_[:, :, :S if cfg.grad_steps is None else cfg.grad_steps]
    counted = np.s_[:, :, :S] if cfg.include_all_steps else carrying
    weights = network.Weights(reader) if weights is None else weights

    # Row k's step s goes to column 1 + s; the steps left out stay exact zeros.
    terms, nodes = np.zeros((len(rows), 1 + group.replay[0].shape[1])), []
    for s, *inputs in group.replay_batch():
        # A size's steps are whole window blocks: its counted steps are a view.
        aug, keys, values, targets = (a[at].reshape(len(rows), -1, S, *a.shape[2:])[counted]
                                      for a in inputs)
        v = network.velocity_forward(reader, weights, aug, keys, values, carrying)
        diff = ad.value(v) - targets  # each step's squares summed as one contiguous run
        terms[:, 1 + s.reshape(-1, S)[counted[1:]].ravel()] = np.add.reduce(
            (diff * diff).reshape(len(rows), -1, diff[0, 0, 0].size), axis=2) * (1.0 / d)
        if isinstance(v, ad.Var):
            nodes.append((v.idx, diff[carrying]))
    # Each row's sum runs over its steps in order from 0.0.
    energies = np.cumsum(terms, axis=1)[:, -1]
    if not nodes:
        return energies
    return reader.tape.push(energies, tuple(idx for idx, _ in nodes), lambda g: tuple(
        (2.0 * (g * (1.0 / d)))[:, None, None, None, None] * diff for _, diff in nodes))


def latent_l2_energies(group: RolloutGroup, sigma: float = 1.0) -> np.ndarray:
    """Squared latent distance to the anchor over the window's final frames,
    scaled by 1/(2 sigma^2).  A drop-in surrogate energy for ablation; it
    depends only on the rolled-out latents, not on the parameters."""
    F = group.gen_cfg.frames_per_block
    frames = group.frames[:, (group.pivot_block - 1) * F:(group.pivot_block - 1 + group.window) * F]
    return np.sum((frames[1:] - frames[0]) ** 2, axis=(1, 2)) / (2.0 * sigma * sigma)


def surrogate_energies(reader, group: RolloutGroup, cfg: PolicyConfig, weights=None):
    """The group's per-branch energies: an array, or a tape node for a taped
    replay surrogate (``weights`` as :func:`replay_energies` takes them)."""
    if cfg.surrogate == "latent_l2":
        return latent_l2_energies(group, cfg.l2_sigma)
    return replay_energies(reader, group, range(1, len(group.frames)), cfg, weights)


def gibbs(energies: np.ndarray, tau: float) -> PolicyEval:
    """Softmax policy over negative energies, computed via log-sum-exp.

    Probabilities are normalized directly (exp of shifted logits over their
    sum): exponentiating ``logits - LSE`` instead would lose ~ulp(|logit|) of
    normalization through cancellation once energies reach 1e8."""
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    energies = np.asarray(energies, dtype=np.float64)
    if energies.size < 2:
        raise ValueError(f"need at least two branches, got {energies.size}")
    logits = -energies / tau
    shifted = logits - logits.max()
    weights = np.exp(shifted)
    total = weights.sum()
    log_probs = shifted - np.log(total)
    return PolicyEval(energies, log_probs, weights / total)


def advantages(rewards: np.ndarray, clip_max: float = 2.5) -> np.ndarray:
    """Group-normalized rewards (population std, epsilon-guarded), then clamped."""
    r = np.asarray(rewards, dtype=np.float64)
    if r.size < 2:
        raise ValueError(f"need at least two rewards, got {r.size}")
    mean = float(r.mean())
    if np.all(r == r[0]):
        # In exact arithmetic the centered rewards are zero; skip the formula
        # so mean-rounding noise cannot leak through the epsilon guard.
        return np.zeros(r.size)
    std = float(np.sqrt(np.mean((r - mean) ** 2)))
    raw = (r - mean) / (std + ADV_EPS)
    return np.clip(raw, -clip_max, clip_max)


def ppo_kl_loss(log_probs, old_log_probs: np.ndarray, ref_log_probs: np.ndarray,
                adv_values: np.ndarray, cfg: PolicyConfig):
    """The trained loss: clipped PPO (the negated objective, averaged over the
    group) plus ``beta`` times the discrete KL of the policy from the reference.
    ``log_probs`` is an array or a tape node; the rest are constants.  Returns
    ``(total, ppo, kl, rho)``: numbers for an array, and for a node the PPO, KL
    and total nodes, with the ratios ``rho`` an array either way."""
    for name, e in (("eps_low", cfg.eps_low), ("eps_high", cfg.eps_high)):
        if not 0.0 < e < 1.0:
            raise ValueError(f"{name} must lie in (0, 1), got {e}")
    lp = ad.value(log_probs)
    sizes = [np.size(x) for x in (lp, old_log_probs, ref_log_probs, adv_values)]
    if len(set(sizes)) != 1:
        raise ContractError(f"group sizes differ (new, old, ref, advantages): {sizes}")
    n = sizes[0]
    lo, hi = 1.0 - cfg.eps_low, 1.0 + cfg.eps_high
    rho = np.exp(lp - old_log_probs)
    unclipped = rho * adv_values
    clipped = np.clip(rho, lo, hi) * adv_values
    ppo = np.sum(np.minimum(unclipped, clipped)) * (-1.0 / n)
    probs, gap = np.exp(lp), lp - ref_log_probs
    kl = np.sum(probs * gap)
    total = ppo + kl * cfg.beta
    if not isinstance(log_probs, ad.Var):
        return total, ppo, kl, rho
    tape, parent = log_probs.tape, (log_probs.idx,)
    # At a tie the minimum's gradient follows the unclipped term.
    take_unclipped, inside = unclipped <= clipped, (rho >= lo) & (rho <= hi)
    ppo_node = tape.push(ppo, parent, lambda g: (
        _ppo_vjp(g, n, rho, adv_values, take_unclipped, inside),))
    kl_node = tape.push(kl, parent, lambda g: (_kl_vjp(g, probs, gap),))
    total_node = tape.push(total, (ppo_node.idx, kl_node.idx),
                           lambda g: _total_vjp(g, cfg.beta))
    return total_node, ppo_node, kl_node, rho


def _log_policy(energies, tau: float):
    """The trained log-policy ``E*(-1/tau) - lse``: an array, or one tape node
    for taped energies.  (Not :func:`gibbs`' formula, which rounds differently.)"""
    logits = ad.value(energies) * (-1.0 / tau)
    m = np.max(logits)
    log_probs = logits - (m + np.log(np.sum(np.exp(logits - m))))
    if not isinstance(energies, ad.Var):
        return log_probs
    soft = np.exp(log_probs)
    return energies.tape.push(log_probs, (energies.idx,),
                              lambda g: (_log_policy_vjp(g, soft, tau),))


# The head's backward functions.  Each takes its node's output adjoint ``g`` and
# sums in the order a tape of elementwise ops did, which the bit-reproducibility
# contract fixes: reordering a sum moves the last bits of fixed-seed runs.

def _log_policy_vjp(g, soft, tau):
    """log_probs = logits - lse(logits), logits = E * (-1/tau)."""
    return (g + (-g).sum(axis=0) * soft) * (-1.0 / tau)


def _ppo_vjp(g, n, rho, adv, take_unclipped, inside):
    """ppo = -(1/n) sum(min(rho A, clip(rho) A)), rho = exp(log_probs - old)."""
    g_min = np.full(rho.shape, g * (-1.0 / n))
    g_rho = ((g_min * ~take_unclipped) * adv) * inside + (g_min * take_unclipped) * adv
    return g_rho * rho


def _kl_vjp(g, probs, gap):
    """kl = sum(exp(log_probs) * (log_probs - ref))."""
    g_terms = np.full(probs.shape, g)
    return g_terms * probs + (g_terms * gap) * probs


def _total_vjp(g, beta):
    """total = ppo + kl * beta."""
    return g, g * beta


def _pg_vjp(g, rho, weights):
    """pg = sum(rho * weights), rho = exp(log_probs - old)."""
    return (np.full(rho.shape, g) * weights) * rho


def guard(branch_rewards: np.ndarray, anchor_reward: float) -> bool:
    """True (skip the update) unless some branch strictly beats the anchor."""
    return bool(np.max(np.asarray(branch_rewards)) <= anchor_reward)


def _build_loss(reader, group: RolloutGroup, eval_old: PolicyEval | None,
                eval_ref: PolicyEval, adv: np.ndarray, cfg: PolicyConfig, weights=None):
    """:func:`ppo_kl_loss` of the surrogate policy at ``reader``, followed by the
    energies and the old policy.  With ``eval_old=None`` the parameters are
    theta_old (PPO's first epoch), so the old policy is this pass's own
    energies, held constant."""
    energies = surrogate_energies(reader, group, cfg, weights)
    if eval_old is None:
        eval_old = gibbs(ad.value(energies), cfg.tau)
    terms = ppo_kl_loss(_log_policy(energies, cfg.tau), eval_old.log_probs,
                        eval_ref.log_probs, adv, cfg)
    return *terms, energies, eval_old


def total_loss_grad(params: Params, group: RolloutGroup, eval_old: PolicyEval | None,
                    eval_ref: PolicyEval, cfg: PolicyConfig, weights=None
                    ) -> tuple[LossBreakdown, np.ndarray, np.ndarray, PolicyEval]:
    """Loss breakdown, per-branch energies, the reverse-mode gradient, and the
    old policy (see :func:`_build_loss` for ``eval_old=None``), with the
    :class:`~kvgrpo.network.Weights` of ``params`` if given."""
    adv = advantages(group.rewards[1:], cfg.adv_clip_max)
    parts: dict = {}

    def f(reader):
        total, ppo, kl, rho, energies, old = _build_loss(
            reader, group, eval_old, eval_ref, adv, cfg, weights)
        parts.update(breakdown=LossBreakdown.of(total, ppo, kl, rho), old=old,
                     energies=ad.value(energies))
        return total

    _, g = ad_grad(params, f)
    return parts["breakdown"], parts["energies"], g, parts["old"]


def contrastive_grad_reference(params: Params, group: RolloutGroup, eval_cur: PolicyEval,
                               adv: np.ndarray, cfg: PolicyConfig) -> np.ndarray:
    """Closed-form gradient of the unclipped policy-gradient objective.

    Combines per-branch energy gradients with policy weights and centered
    advantages: -(1/tau) * sum_g pi(g) (A_g - mu_A) grad E_g, where mu_A is the
    policy-weighted mean advantage.  Serves as an independent check on the
    autodiff path.
    """
    pi = eval_cur.probs
    mu = float(np.sum(pi * adv))
    out = np.zeros(params.layout.total)
    for g in range(1, len(group.frames)):
        _, gvec = ad_grad(params, lambda r, g=g: ad.asum(replay_energies(r, group, [g], cfg)))
        out += pi[g - 1] * (adv[g - 1] - mu) * gvec
    return -out / cfg.tau


def pg_surrogate_value(reader, group: RolloutGroup, eval_old: PolicyEval,
                       adv: np.ndarray, cfg: PolicyConfig):
    """Unclipped policy-gradient objective E_{g~old}[ratio_g * A_g], on the
    trained loss's log-policy and importance ratios with the old policy held
    constant: a number, or one tape node after the log-softmax node."""
    log_probs = _log_policy(surrogate_energies(reader, group, cfg), cfg.tau)
    rho = np.exp(ad.value(log_probs) - eval_old.log_probs)
    weights = eval_old.probs * adv
    pg = np.sum(rho * weights)
    if not isinstance(log_probs, ad.Var):
        return pg
    return log_probs.tape.push(pg, (log_probs.idx,), lambda g: (_pg_vjp(g, rho, weights),))
