"""Group-relative policy optimization for a toy block-autoregressive
flow-matching generator, with KV-cache-routing exploration and a
velocity-space surrogate policy."""

from .autodiff import Tape, TapeReader, Var, fd_grad, grad
from .cache import FrameHistory, KVCache
from .checkpoint import CheckpointData, load_checkpoint, save_checkpoint
from .config import (PRESETS, RunConfig, TrainerConfig, apply_overrides,
                     from_flat_dict, load_config, save_config, to_flat_dict)
from .errors import (ConfigError, ContractError, InsufficientHistoryError,
                     NumericalError, SequencingError)
from .flow import (Block, FlowState, GeneratorConfig, ReplayTuple, RolloutResult,
                   generate_block, ode_step, rollout, velocity_eval, write_back)
from .network import NetworkShape, build_layout, param_init, shape_from_layout
from .params import GradVector, Layout, Params
from .policy import (Advantages, LossBreakdown, PolicyConfig, PolicyEval,
                     advantages, contrastive_grad_reference, gibbs, guard,
                     kl_penalty, latent_l2_energies, log_ratio, ppo_loss,
                     replay_energy, surrogate_energies, total_loss,
                     total_loss_grad)
from .rewards import RewardSpec, composite, reward_smoothness, reward_target
from .routing import (BranchTrajectory, GroupSeeds, ReplayContexts,
                      RolloutGroup, RoutingDecision, build_branch_cache,
                      build_replay_contexts, rollout_group, routable_set,
                      sample_routing)
from .trainer import (Adam, IterationRecord, TrainerState, TrainResult,
                      clip_gradient, ema_update, init_state, run, snapshot,
                      train_iteration)

__version__ = "0.1.0"
