"""Group-relative policy optimization for a toy block-autoregressive
flow-matching generator, with KV-cache-routing exploration and a
velocity-space surrogate policy.  Exports resolve on first use, so
``import kvgrpo.cli`` loads no numpy before the CLI pins the BLAS threads."""

from importlib import import_module

_EXPORTS = {
    "autodiff": "Tape TapeReader Var fd_grad grad",
    "cache": "FrameHistory KVCache",
    "checkpoint": "CheckpointData load_checkpoint save_checkpoint",
    "config": "PRESETS RunConfig TrainerConfig apply_overrides from_flat_dict "
              "load_config save_config to_flat_dict",
    "errors": "ConfigError ContractError InsufficientHistoryError NumericalError",
    "flow": "Block GeneratorConfig ReplaySteps generate_block velocity_eval write_back",
    "network": "NetworkShape build_layout param_init shape_from_layout",
    "params": "GradVector Layout Params",
    "policy": "LossBreakdown PolicyConfig PolicyEval advantages "
              "contrastive_grad_reference gibbs guard latent_l2_energies ppo_kl_loss "
              "replay_energies surrogate_energies total_loss_grad",
    "rewards": "RewardSpec composite reward_smoothness reward_target",
    "routing": "BranchTrajectory GroupSeeds ReplayContexts RolloutGroup RoutingDecision "
               "build_branch_cache build_replay_contexts rollout_group routable_set "
               "sample_routing",
    "trainer": "Adam IterationRecord TrainerState TrainResult clip_gradient ema_update "
               "init_state run snapshot train_iteration",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Never cached here: a function patched in its module is the one returned.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
