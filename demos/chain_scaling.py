"""Regret-doubling ratios on the two-state hard chain.

If cumulative regret grows like sqrt(T), then R(2T)/R(T) ~ 1.41; a
learner stuck on a fixed wrong policy gives exactly 2.0.  This uses a
short chain with a wide action gap (H=8, eps=0.2) so the bend is
reachable at demo scale.  Expect the early ratios to churn around 2 —
they can transiently exceed it while the greedy policy reshuffles —
and the last checkpoint to drop clearly below.  On long chains the
bend arrives much later; the acceptance suite measures H=40 at
T beyond 2*10^5 episodes.
"""
import numpy as np

from stageq import AlgoConstants, EnvSpec, RunConfig, sweep_scaling

checkpoints = [5_000, 10_000, 20_000, 40_000]
env = EnvSpec(kind="jao", H=8, jao_epsilon=0.2, jao_delta=0.45, env_seed=0)
const = AlgoConstants(p=0.1, c1=1.2, c2=1.2, c3=0.06, n0_override=500)

marks = sorted(set(checkpoints + [2 * c for c in checkpoints]))
# with episodes=1 the multipliers are the checkpoint episode counts
rows = sweep_scaling(RunConfig(env=env, algo="advantage", constants=const,
                               episodes=1), marks, seeds=range(10))
R = {(T // env.H, seed): reg for T, seed, reg in rows}
ratios = []
for seed in range(10):
    ratios.append([R[2 * c, seed] / R[c, seed] for c in checkpoints])
    print(f"seed {seed}: R = " +
          " ".join(f"{R[c, seed]:.0f}@{c // 1000}k" for c in marks))

ratios = np.asarray(ratios)
print("\ncheckpoint episodes:", checkpoints)
print("median R(2T)/R(T):  ", np.round(np.median(ratios, axis=0), 3),
      " (sqrt growth ~1.41, linear = 2.0)")
