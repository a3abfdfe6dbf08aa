"""Surrogate policy over exploration branches and the losses trained on it.

Each branch gets an energy: by default the replay residual (squared error
between cached rollout velocities and their re-evaluations under the restored
default-layout context, normalized by latent dimension), or optionally a plain
latent-space distance to the anchor.  A softmax over negative energies turns
the group into a categorical policy; PPO ratios against a frozen snapshot and a
KL pull toward the reference policy are all computed in the log domain.

The loss composition is written against :mod:`kvgrpo.autodiff` ops, so the same
code produces plain numbers for bookkeeping and tape nodes for gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import network
from .autodiff import grad as ad_grad
from .errors import ContractError
from .params import GradVector, Params
from .routing import BranchTrajectory, ReplayContexts, RolloutGroup

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
    logits: np.ndarray
    log_probs: np.ndarray
    probs: np.ndarray
    tau: float

    @property
    def size(self) -> int:
        return self.energies.size


@dataclass
class Advantages:
    values: np.ndarray       # group-normalized and clamped
    mean_reward: float
    std: float
    clip_max: float


@dataclass
class LossBreakdown:
    ppo: float
    kl: float
    total: float
    skipped: bool
    per_branch_ratio: np.ndarray


def replay_energy(reader, branch: BranchTrajectory, contexts: ReplayContexts,
                  grad_steps: int | None = None, include_all_steps: bool = True):
    """Summed per-dimension-normalized squared residual between the cached
    rollout velocities and their replay under the default-layout context.

    Only the first ``grad_steps`` solver steps of each block are evaluated on
    the tape; later steps are either added as constants (``include_all_steps``)
    or dropped from the value entirely.  Returns a float for a value-only
    reader and a tape node otherwise.
    """
    shape = network.shape_from_layout(reader.layout)
    total = 0.0
    for tup in branch.replay:
        carrying = grad_steps is None or tup.step <= grad_steps
        if not carrying and not include_all_steps:
            continue
        if tup.z.shape[-1] != shape.latent_dim:
            raise ContractError(
                f"replay latent dim {tup.z.shape[-1]} != network dim {shape.latent_dim}")
        keys, values = contexts.for_block(branch.branch_id, tup.block)
        r = reader if carrying else reader.detached()
        v = network.velocity_forward(r, tup.z, tup.t, keys, values, contexts.prompt)
        diff = ad.sub(v, tup.u_hat)
        term = ad.mul(ad.asum(ad.square(diff)), 1.0 / shape.latent_dim)
        total = ad.add(total, ad.value(term) if not carrying else term)
    return total


def latent_l2_energies(group: RolloutGroup, sigma: float = 1.0) -> np.ndarray:
    """Squared latent distance to the anchor over the window's final frames,
    scaled by 1/(2 sigma^2).  A drop-in surrogate energy for ablation; it
    depends only on the rolled-out latents, not on the parameters."""
    pivot, window = group.pivot_block, group.window
    anchor = np.vstack([b.matrix() for b in group.anchor.window_blocks(pivot, window)])
    out = []
    for br in group.branches:
        mine = np.vstack([b.matrix() for b in br.window_blocks(pivot, window)])
        out.append(float(np.sum((mine - anchor) ** 2)) / (2.0 * sigma * sigma))
    return np.array(out)


def surrogate_energies(reader, group: RolloutGroup, contexts: ReplayContexts,
                       cfg: PolicyConfig) -> list:
    if cfg.surrogate == "latent_l2":
        return list(latent_l2_energies(group, cfg.l2_sigma))
    return [replay_energy(reader, br, contexts, cfg.grad_steps, cfg.include_all_steps)
            for br in group.branches]


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
    return PolicyEval(energies, logits, log_probs, weights / total, tau)


def log_ratio(eval_new: PolicyEval, eval_old: PolicyEval) -> np.ndarray:
    """Per-branch log importance ratios, new against old."""
    if eval_new.size != eval_old.size:
        raise ContractError(f"group sizes differ: {eval_new.size} vs {eval_old.size}")
    return eval_new.log_probs - eval_old.log_probs


def advantages(rewards: np.ndarray, clip_max: float = 2.5) -> Advantages:
    """Group-normalized rewards (population std, epsilon-guarded), then clamped."""
    r = np.asarray(rewards, dtype=np.float64)
    if r.size < 2:
        raise ValueError(f"need at least two rewards, got {r.size}")
    mean = float(r.mean())
    if np.all(r == r[0]):
        # In exact arithmetic the centered rewards are zero; skip the formula
        # so mean-rounding noise cannot leak through the epsilon guard.
        return Advantages(np.zeros(r.size), mean, 0.0, clip_max)
    std = float(np.sqrt(np.mean((r - mean) ** 2)))
    raw = (r - mean) / (std + ADV_EPS)
    return Advantages(np.clip(raw, -clip_max, clip_max), mean, std, clip_max)


def ppo_loss(log_ratios: np.ndarray, adv: Advantages, eps_low: float = 0.1,
             eps_high: float = 0.2) -> float:
    """Clipped surrogate loss (negated objective), averaged over the group."""
    _check_eps(eps_low, eps_high)
    rho = np.exp(np.asarray(log_ratios, dtype=np.float64))
    a = adv.values
    terms = np.minimum(rho * a, np.clip(rho, 1.0 - eps_low, 1.0 + eps_high) * a)
    return float(-terms.mean())


def _check_eps(eps_low: float, eps_high: float) -> None:
    for name, e in (("eps_low", eps_low), ("eps_high", eps_high)):
        if not 0.0 < e < 1.0:
            raise ValueError(f"{name} must lie in (0, 1), got {e}")


def kl_penalty(eval_cur: PolicyEval, eval_ref: PolicyEval) -> float:
    """Discrete KL divergence of the current policy from the reference."""
    if eval_cur.size != eval_ref.size:
        raise ContractError(f"group sizes differ: {eval_cur.size} vs {eval_ref.size}")
    if np.any((eval_cur.probs > 0) & ~np.isfinite(eval_ref.log_probs)):
        raise ValueError("reference policy assigns zero probability to a live branch")
    kl = float(np.sum(eval_cur.probs * (eval_cur.log_probs - eval_ref.log_probs)))
    # Non-negative mathematically; guard against rounding at near-identical policies.
    return kl if kl > 0.0 else 0.0


def guard(branch_rewards: np.ndarray, anchor_reward: float) -> bool:
    """True (skip the update) unless some branch strictly beats the anchor."""
    return bool(np.max(np.asarray(branch_rewards)) <= anchor_reward)


def _build_loss(reader, group: RolloutGroup, contexts: ReplayContexts,
                eval_old: PolicyEval | None, eval_ref: PolicyEval, adv: Advantages,
                cfg: PolicyConfig):
    """Loss composition shared by bookkeeping and gradient passes.  With
    ``eval_old=None`` the parameters are theta_old (PPO's first epoch), so the
    old policy is this pass's own energies, held constant; it is returned last."""
    _check_eps(cfg.eps_low, cfg.eps_high)
    energies = surrogate_energies(reader, group, contexts, cfg)
    if eval_old is None:
        eval_old = gibbs(np.array([float(ad.value(e)) for e in energies]), cfg.tau)
    logits = ad.mul(ad.pack(energies), -1.0 / cfg.tau)
    log_probs = ad.sub(logits, ad.logsumexp(logits))
    log_rho = ad.sub(log_probs, eval_old.log_probs)
    rho = ad.exp(log_rho)
    unclipped = ad.mul(rho, adv.values)
    clipped = ad.mul(ad.clip(rho, 1.0 - cfg.eps_low, 1.0 + cfg.eps_high), adv.values)
    ppo = ad.mul(ad.asum(ad.minimum(unclipped, clipped)), -1.0 / len(group.branches))
    kl = ad.asum(ad.mul(ad.exp(log_probs), ad.sub(log_probs, eval_ref.log_probs)))
    total = ad.add(ppo, ad.mul(kl, cfg.beta))
    return total, ppo, kl, rho, energies, eval_old


def total_loss(params: Params, group: RolloutGroup, contexts: ReplayContexts,
               eval_old: PolicyEval, eval_ref: PolicyEval,
               cfg: PolicyConfig) -> LossBreakdown:
    """Numeric loss breakdown at the given parameters (no gradient)."""
    adv = advantages(group.branch_rewards(), cfg.adv_clip_max)
    total, ppo, kl, rho, *_ = _build_loss(params, group, contexts, eval_old,
                                          eval_ref, adv, cfg)
    skipped = guard(group.branch_rewards(), group.anchor.reward)
    kl_val = float(ad.value(kl))
    return LossBreakdown(float(ad.value(ppo)), kl_val if kl_val > 0 else 0.0,
                         float(ad.value(total)), skipped,
                         np.asarray(ad.value(rho), dtype=np.float64))


def total_loss_grad(params: Params, group: RolloutGroup, contexts: ReplayContexts,
                    eval_old: PolicyEval | None, eval_ref: PolicyEval, cfg: PolicyConfig
                    ) -> tuple[LossBreakdown, np.ndarray, GradVector, PolicyEval]:
    """Loss breakdown, per-branch energies, the reverse-mode gradient, and the
    old policy (see :func:`_build_loss` for ``eval_old=None``)."""
    adv = advantages(group.branch_rewards(), cfg.adv_clip_max)
    parts: dict = {}

    def f(reader):
        total, ppo, kl, rho, energies, old = _build_loss(
            reader, group, contexts, eval_old, eval_ref, adv, cfg)
        parts.update(ppo=ad.value(ppo), kl=ad.value(kl), rho=ad.value(rho),
                     energies=[float(ad.value(e)) for e in energies], old=old)
        return total

    total_val, g = ad_grad(params, f)
    skipped = guard(group.branch_rewards(), group.anchor.reward)
    kl_val = float(parts["kl"])
    breakdown = LossBreakdown(float(parts["ppo"]), kl_val if kl_val > 0 else 0.0,
                              total_val, skipped,
                              np.asarray(parts["rho"], dtype=np.float64))
    return breakdown, np.array(parts["energies"]), g, parts["old"]


def contrastive_grad_reference(params: Params, group: RolloutGroup,
                               contexts: ReplayContexts, eval_cur: PolicyEval,
                               adv: Advantages, tau: float,
                               cfg: PolicyConfig = PolicyConfig()) -> GradVector:
    """Closed-form gradient of the unclipped policy-gradient objective.

    Combines per-branch energy gradients with policy weights and centered
    advantages: -(1/tau) * sum_g pi(g) (A_g - mu_A) grad E_g, where mu_A is the
    policy-weighted mean advantage.  Serves as an independent check on the
    autodiff path.
    """
    pi = eval_cur.probs
    mu = float(np.sum(pi * adv.values))
    out = np.zeros(params.layout.total)
    for g_idx, branch in enumerate(group.branches):
        _, gvec = ad_grad(params, lambda r, b=branch: replay_energy(
            r, b, contexts, cfg.grad_steps, cfg.include_all_steps))
        out += pi[g_idx] * (adv.values[g_idx] - mu) * gvec.values
    return GradVector(-out / tau)


def pg_surrogate_value(reader, group: RolloutGroup, contexts: ReplayContexts,
                       eval_old: PolicyEval, adv: Advantages, cfg: PolicyConfig):
    """Unclipped policy-gradient objective E_{g~old}[ratio_g * A_g], built
    through the importance-ratio path with the old policy held constant."""
    energies = surrogate_energies(reader, group, contexts, cfg)
    logits = ad.mul(ad.pack(energies), -1.0 / cfg.tau)
    log_probs = ad.sub(logits, ad.logsumexp(logits))
    ratios = ad.exp(ad.sub(log_probs, eval_old.log_probs))
    weighted = ad.mul(ratios, eval_old.probs * adv.values)
    return ad.asum(weighted)
