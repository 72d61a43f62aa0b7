"""Tabular episodic RL experimentation: stage-based Q-learning with
variance-reduced exploration bonuses, baselines, exact-DP auditing, a hard
chain instance family, and a reproducible run harness."""

from .advantage import (DEFAULT_N_MAX, AlgoConstants, HoeffdingStageLearner,
                        UcbAdvantageLearner, hoeffding_width, safe_ratio)
from .base import EpisodeReport, TabularQLearnerBase
from .baselines import ClassicQUcbLearner
from .concurrent import (BudgetTooSmall, ConcurrentConfig, ConcurrentResult,
                         FrozenActor, RoundLog, round_count_bound,
                         run_concurrent, write_rounds_csv)
from .harness import (ALGOS, ConfigError, EnvSpec, InvariantViolation,
                      OracleAgent, RunConfig, RunResult, RunSummary,
                      UniformStream, build_concurrent_config,
                      build_run_config, checkpoint_regrets, coerce_kv,
                      make_learner, parse_kv_file, run_concurrent_experiment,
                      run_experiment, seeded_stream, sweep_scaling,
                      write_sweep_csv)
from .mdp import (DeterministicPolicy, EpisodicMdp, InitialStates,
                  InvalidDelta, InvalidEpsilon, MdpValidationError,
                  NonStochasticRow, RewardOutOfRange, ValueTables,
                  backward_induction, load_mdp, make_jao_chain,
                  make_random_mdp, policy_evaluation, sample_episode,
                  save_mdp, validate)
from .metrics import (EPISODE_CSV_HEADER, EpisodeRecord, OptimismTracker,
                      PolicyValueCache, SwitchTracker, check_optimism,
                      count_switches, switching_bound, write_episode_csv)
from .stages import (OutOfRangeError, StageSchedule, build_schedule,
                     stage_count_bound)

__version__ = "0.1.0"
