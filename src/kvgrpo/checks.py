"""Gradient verification harness: reverse-mode against central finite
differences, and the closed-form contrastive gradient against autodiff of the
unclipped surrogate.  Used by the ``gradcheck`` CLI command and the acceptance
suite."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import policy
from .autodiff import fd_grad, grad
from .network import NetworkShape, param_init
from .flow import GeneratorConfig
from .params import Params
from .policy import PolicyConfig, advantages, gibbs
from .routing import GroupSeeds, RolloutGroup, build_replay_contexts, plan_rollout, rollout_group

FD_STEP = 1e-5
ENERGY_TOL = 1e-4
TOTAL_TOL = 1e-4
IDENTITY_TOL = 1e-6
SHAPE = NetworkShape(3, 5, 2)
BLOCKS, PIVOT, WINDOW, BRANCHES = 6, 6, 1, 8


def rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    """Relative L2 error of ``a`` against reference ``b``."""
    denom = np.linalg.norm(b)
    if denom == 0.0:
        return float(np.linalg.norm(a))
    return float(np.linalg.norm(a - b) / denom)


@dataclass
class CheckInstance:
    params: Params
    group: RolloutGroup     # scored, with its replay contexts


def make_instance(seed: int) -> CheckInstance:
    """Small random (params, group) pair for gradient checks.

    The pivot leaves more routable history than routed slots, so branches
    genuinely diverge and the energies carry real gradients."""
    params = param_init(SHAPE, seed)
    rng = np.random.default_rng(seed + 1)
    prompt = rng.normal(size=SHAPE.prompt_dim)
    cfg = GeneratorConfig()
    seeds = GroupSeeds(noise=seed * 7 + 1, routing=seed * 7 + 2)
    plan = plan_rollout(BLOCKS, PIVOT, WINDOW, BRANCHES, seeds, cfg, SHAPE.latent_dim)
    group = rollout_group(params, prompt, cfg, PIVOT, WINDOW, plan)
    group.rewards = rng.normal(size=BRANCHES + 1)
    group.contexts = build_replay_contexts(group)
    return CheckInstance(params, group)


def check_energy_grad(inst: CheckInstance, pcfg: PolicyConfig, branch_index: int) -> float:
    """Relative L2 error of one branch's replay-energy gradient (``branch_index``
    0 is row 1) against finite differences."""
    def f(reader):
        return ad.asum(policy.replay_energies(reader, inst.group, [branch_index + 1], pcfg))
    _, g = grad(inst.params, f)
    fd = fd_grad(inst.params, f, FD_STEP)
    return rel_l2(g, fd)


def check_total_grad(inst: CheckInstance, pcfg: PolicyConfig,
                     old_params: Params, ref_params: Params) -> float:
    """Relative L2 error of the total-loss gradient against finite differences."""
    eval_old = gibbs(policy.surrogate_energies(old_params, inst.group, pcfg), pcfg.tau)
    eval_ref = gibbs(policy.surrogate_energies(ref_params, inst.group, pcfg), pcfg.tau)
    adv = advantages(inst.group.rewards[1:], pcfg.adv_clip_max)

    def f(reader):
        total, *_ = policy._build_loss(reader, inst.group, eval_old, eval_ref, adv, pcfg)
        return total

    _, g = grad(inst.params, f)
    fd = fd_grad(inst.params, f, FD_STEP)
    return rel_l2(g, fd)


def check_pg_identity(inst: CheckInstance, tau: float, rewards: np.ndarray,
                      pcfg: PolicyConfig, eval_params: Params | None = None) -> float:
    """Closed-form contrastive gradient against autodiff of the unclipped
    surrogate, evaluated with the old policy frozen at the current one."""
    params = eval_params if eval_params is not None else inst.params
    cfg = replace(pcfg, tau=tau)
    eval_cur = gibbs(policy.surrogate_energies(params, inst.group, cfg), tau)
    adv = advantages(rewards, clip_max=np.inf)

    def f(reader):
        return policy.pg_surrogate_value(reader, inst.group, eval_cur, adv, cfg)

    _, auto = grad(params, f)
    ref = policy.contrastive_grad_reference(params, inst.group, eval_cur, adv, cfg)
    # The objective is maximized; autodiff(f) is the ascent direction, and so
    # is the reference.
    return rel_l2(auto, ref)


@dataclass
class GradCheckReport:
    energy_max_rel: float = 0.0
    total_max_rel: float = 0.0
    identity_max_rel: float = 0.0
    instances: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        return [
            f"replay-energy grad vs finite differences: max rel err "
            f"{self.energy_max_rel:.3e} (tol {ENERGY_TOL:.0e})",
            f"total-loss grad vs finite differences:    max rel err "
            f"{self.total_max_rel:.3e} (tol {TOTAL_TOL:.0e})",
            f"contrastive reference vs autodiff:        max rel err "
            f"{self.identity_max_rel:.3e} (tol {IDENTITY_TOL:.0e})",
        ]


def run_gradient_checks(seed: int = 0, instances: int = 5,
                        identity_instances: int = 20) -> GradCheckReport:
    """Random-instance gradient checks at the default tolerances."""
    report = GradCheckReport(instances=instances)
    rng = np.random.default_rng(seed)
    for i in range(instances):
        inst = make_instance(seed * 1000 + i)
        # Alternate between all-steps-carrying and the restricted default, the
        # latter with the non-carrying residuals excluded from the value so the
        # function stays finite-difference checkable.
        if i % 2 == 0:
            pcfg = PolicyConfig(grad_steps=None)
        else:
            pcfg = PolicyConfig(grad_steps=2, include_all_steps=False)
        report.energy_max_rel = max(report.energy_max_rel,
                                    check_energy_grad(inst, pcfg, branch_index=i % BRANCHES))
        old = param_init(SHAPE, seed * 1000 + i + 500)
        ref = param_init(SHAPE, seed * 1000 + i + 900)
        report.total_max_rel = max(report.total_max_rel,
                                   check_total_grad(inst, pcfg, old, ref))
    inst = make_instance(seed * 1000 + 77)
    for j in range(identity_instances):
        tau = (0.5, 1.0, 2.0)[j % 3]
        rewards = rng.normal(size=BRANCHES)
        report.identity_max_rel = max(
            report.identity_max_rel,
            check_pg_identity(inst, tau, rewards, PolicyConfig(grad_steps=2)))
    if report.energy_max_rel > ENERGY_TOL:
        report.failures.append("replay-energy gradient check")
    if report.total_max_rel > TOTAL_TOL:
        report.failures.append("total-loss gradient check")
    if report.identity_max_rel > IDENTITY_TOL:
        report.failures.append("contrastive-gradient identity check")
    return report
