"""The benchmark's workloads: fixed kvgrpo run configs, keyed by name.

Each workload is a set of flat config overrides (the keys of
``kvgrpo.config.to_flat_dict``) on top of the defaults.  The benchmark seed
only picks the trainer seeds, so a workload's shape never depends on it.
Why each workload exists, and which layer metric it is meant to show moving,
is in ``perfbench/README.md`` and ``BENCHMARK.json``.

This module imports nothing from kvgrpo: the set-up probe times that import.
"""

from __future__ import annotations

# Iterations per ``run()`` pass.  At least 51, so that the periodic checkpoint
# (``checkpoint_every`` = 50) falls between two ``on_record`` callbacks and is
# timed; two passes give the >= 100 intervals that a p90 needs.
ITERATIONS = 60

WORKLOADS: dict[str, dict] = {
    # The default TrainerConfig, as `kvgrpo train` runs it.
    "train-default": {},
    # Longer taped replay and two PPO epochs: the eval_old pass is needed here.
    "replay-grad": {"grad_replay_steps": 4, "ppo_epochs": 2},
    # Wide, routing-heavy rollout with no taped network pass, plus the
    # trajectory dump that re-rolls every group.
    "explore-wide": {
        "branch_number": 16,
        "local_kv_choices": [[6, 3], [9, 6], [12, 9]],
        "routing_mode": "per_block",
        "surrogate": "latent_l2",
        "dump_trajectories": True,
    },
}

# Traced layers a workload never calls: explore-wide's latent_l2 energies do
# not depend on the parameters, so nothing is taped and nothing backpropagated.
# Every other traced layer must fire on every workload.
NOT_CALLED: dict[str, set[str]] = {
    "train-default": {"trainer.dump_trajectories"},
    "replay-grad": {"trainer.dump_trajectories"},
    "explore-wide": {"network.vf_taped", "autodiff.backward"},
}


def trainer_seed(seed: int, pass_index: int) -> int:
    """Trainer seed of one pass; seed 0, pass 0 is the default config's seed."""
    return seed * 1000 + pass_index


def flat_config(workload: str, seed: int, pass_index: int, out_dir: str | None,
                iterations: int = ITERATIONS) -> dict:
    """Flat run config of one pass of ``workload``."""
    flat = dict(WORKLOADS[workload])
    flat.update(seed=trainer_seed(seed, pass_index), max_iterations=iterations,
                out_dir=out_dir)
    return flat
