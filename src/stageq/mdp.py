"""Tabular episodic MDPs: representation, exact solvers, sampling, generators.

An episodic MDP has horizon H, S states, A actions, step-indexed transition
kernels P[h][s][a] (a probability vector over next states) and deterministic
step rewards r[h][s][a] in [0, 1].  Episodes run h = 1..H; all math here is
0-based, so value tables carry an extra all-zero boundary row at index H.

Conventions used throughout the package:

  * greedy ties break to the lowest action index (np.argmax order), so every
    downstream policy quantity is deterministic;
  * next states are drawn by inverse CDF over precomputed cumulative rows,
    consuming exactly one uniform per step regardless of the row;
  * the initial-state sequence (InitialStates) is a run input, not part of
    the MDP: pre-committed before a run (fixed state, fixed cycle, or a
    private seeded stream), it never reads the run's RNG.

The plain-text MDP file format is:  a header line "S A H", then one line
"P h s a p_0 ... p_{S-1}" per (h, s, a) and one line "R h s a r" per
(h, s, a), whitespace-separated, 0-based indices, '#' comments allowed.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernel

# ---------------------------------------------------------------- errors

class MdpValidationError(Exception):
    """Base class for MDP validation failures (first violation wins)."""


class NonStochasticRow(MdpValidationError):
    def __init__(self, h, s, a, detail):
        super().__init__(f"P[h={h}][s={s}][a={a}] is not a probability row: {detail}")
        self.h, self.s, self.a = h, s, a


class RewardOutOfRange(MdpValidationError):
    def __init__(self, h, s, a, value):
        super().__init__(f"r[h={h}][s={s}][a={a}] = {value} outside [0, 1]")
        self.h, self.s, self.a = h, s, a
        self.value = value


class InvalidDelta(ValueError):
    pass


class InvalidEpsilon(ValueError):
    pass


# ------------------------------------------------------- initial states

# Episodes per InitialStates.block, the seeded kind drawing as many at
# once: UniformStream.BLOCK's size.  One block rule: every kernel call,
# audited or not, plays no further than its block's end.
START_BLOCK = 4096


@dataclass(frozen=True)
class InitialStates:
    """Pre-committed initial-state sequence s_1^k, k = 0, 1, 2, ..., read a
    block of START_BLOCK episodes at a time.

    kind "fixed":  always states[0].
    kind "cyclic": states[k % len(states)].
    kind "seeded": uniform over [0, S) from a private PCG64 stream keyed by
    `seed`, drawn a block at a time; the sequence is a pure function of
    (seed, k), independent of the run's RNG, so reruns and algorithm
    comparisons see identical starts.

    Only the last block read is kept, and a seeded one keeps a live
    generator, so each run reads its own copy (dataclasses.replace).
    Frozen: a learner holds a block for up to START_BLOCK episodes and
    would not see an edit.  A bad kind, seed or empty states raise
    ValueError here, and a negative block index in block; check(S) and
    each block built, MdpValidationError for a fixed or cyclic start
    outside [0, S).  A seeded block of START_BLOCK draws holds the values
    of START_BLOCK // 256 consecutive draws of 256, so the block size
    changes no start state.
    """

    kind: str
    states: tuple = ()
    seed: Optional[int] = None
    _last = _gen = None    # set through object.__setattr__ (see block)

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if self.kind not in ("fixed", "cyclic", "seeded"):
            raise ValueError(f"unknown initial-state kind {self.kind!r}")
        if self.kind == "seeded" and (self.seed is None or self.seed < 0):
            raise ValueError(f"seeded initial states need a seed >= 0, got {self.seed}")
        if self.kind != "seeded" and not self.states:
            raise ValueError(f"{self.kind} initial-state sequence must be non-empty")

    @classmethod
    def fixed(cls, s: int) -> "InitialStates":
        return cls(kind="fixed", states=(int(s),))

    @classmethod
    def cyclic(cls, seq) -> "InitialStates":
        return cls(kind="cyclic", states=tuple(int(s) for s in seq))

    @classmethod
    def seeded(cls, seed: int) -> "InitialStates":
        return cls(kind="seeded", seed=int(seed))

    def check(self, S: int) -> None:
        for s in self.states:
            if not 0 <= s < S:
                raise MdpValidationError(f"initial state {s} outside [0, {S})")

    def state(self, k: int, S: int) -> int:
        return self.block(k // START_BLOCK, S)[k % START_BLOCK]

    def block(self, b: int, S: int) -> memoryview:
        """The starts of episodes START_BLOCK*b ... START_BLOCK*(b + 1) - 1:
        a read-only memoryview of an int64 array (its obj, which the
        compiled kernel reads in place) whose items index as Python ints.
        The fixed kind returns one block for every b.  A seeded block
        before the last one restarts the private generator, which draws the
        same values again, since the sequence depends on the seed alone."""
        if b < 0:
            raise ValueError(f"start-state block index {b} < 0")
        last = self._last
        if last is not None and (last[:2] == (b, S) or self.kind == "fixed"):
            return last[2]
        if self.kind != "seeded":
            self.check(S)
        if self.kind == "fixed":
            starts = np.full(START_BLOCK, self.states[0], dtype=np.int64)
        elif self.kind == "cyclic":
            seq = np.array(self.states, dtype=np.int64)
            starts = seq[np.arange(b * START_BLOCK, (b + 1) * START_BLOCK) % len(seq)]
        else:
            gen, nxt, bound = self._gen or (None, 0, S)
            if bound != S:
                raise ValueError("seeded InitialStates bound to a different state count")
            if gen is None or b < nxt:
                gen, nxt = np.random.default_rng(self.seed), 0    # PCG64, SeedSequence(seed)
            for _ in range(nxt, b + 1):
                starts = gen.integers(0, S, size=START_BLOCK, dtype=np.int64)
            object.__setattr__(self, "_gen", (gen, b + 1, S))
        starts.setflags(write=False)
        block = memoryview(starts)
        object.__setattr__(self, "_last", (b, S, block))
        return block


DEFAULT_STARTS = InitialStates.fixed(0)     # a run's start states where it names none


# ------------------------------------------------------------ core types

@dataclass(eq=False)
class EpisodicMdp:
    """Finite-horizon tabular MDP with deterministic rewards; a run's
    start states are its own input (InitialStates), not the MDP's."""

    S: int
    A: int
    H: int
    P: np.ndarray          # (H, S, A, S) transition kernels
    r: np.ndarray          # (H, S, A) rewards in [0, 1]

    # validate (or the first view built of P or r) freezes the MDP, so every
    # view of P and r (the caches below, the policy cache's rows, the
    # compiled kernel's pointers) stays current for the MDP's life.
    _FIELDS = frozenset(("S", "A", "H", "P", "r"))
    _frozen = _validated = False
    _cum = _cum_rows = _reward_rows = None

    def __setattr__(self, name, value):
        if self._frozen and name in self._FIELDS:
            raise AttributeError(f"EpisodicMdp.{name} cannot be reassigned once the MDP "
                                 "is frozen (validate freezes it)")
        object.__setattr__(self, name, value)

    def freeze(self) -> None:
        """Make P and r read-only C-ordered float64 arrays, copying neither
        if it already is one, and reject any later assignment to S, A, H, P
        or r with AttributeError.  Calling it again changes nothing."""
        for name in ("P", "r"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_frozen", True)

    # Views for the sampling hot loops, built once: plain lists for Python
    # and one float64 array for the compiled kernel (which reads P and r
    # themselves).  Cumulative rows get their final entry forced to 1.0 so
    # a uniform in [0, 1) always lands.  They are built from a validated P
    # only, so each row never decreases before that entry, which the
    # kernel's next_state relies on.
    def cum_rows(self):
        if self._cum_rows is None:
            self._cum_rows = self.cum_array().tolist()
        return self._cum_rows

    def cum_array(self) -> np.ndarray:
        """The cumulative rows as one read-only C-ordered (H, S, A, S) array;
        validates (and so freezes) the MDP first if validate has not.  With
        the kernel, stageq_cum_rows sums them; without it, np.cumsum, the
        reference for its bits."""
        if self._cum is None:
            if not self._validated:
                validate(self)
            lib = kernel.load()
            if lib is None:
                cum = np.cumsum(self.P, axis=-1)
                cum[..., -1] = 1.0
            else:
                cum = np.empty(self.P.shape)
                lib.stageq_cum_rows(self.P.ctypes.data, cum.ctypes.data, cum.size // self.S,
                                    self.S)
            cum.setflags(write=False)
            self._cum = cum
        return self._cum

    def reward_rows(self):
        if self._reward_rows is None:
            self.freeze()
            self._reward_rows = self.r.tolist()
        return self._reward_rows


@dataclass(eq=False)
class DeterministicPolicy:
    """Step-indexed deterministic policy; actions has shape (H, S)."""

    actions: np.ndarray

    def select_action(self, h: int, s: int) -> int:
        return int(self.actions[h, s])

    def __eq__(self, other):
        return isinstance(other, DeterministicPolicy) and np.array_equal(self.actions, other.actions)


@dataclass(eq=False)
class ValueTables:
    """Exact V (H+1, S) and Q (H+1, S, A) tables; row H is the zero boundary.

    Q is None where only V is kept (metrics.PolicyValueCache, which never
    writes into a V it has returned).
    """

    V: np.ndarray
    Q: Optional[np.ndarray]


ROW_SUM_TOL = 1e-12     # validate's bound on |row sum - 1|


def validate(mdp: EpisodicMdp) -> None:
    """Check stochasticity and reward range; raise on the first violation
    in (h, s, a) scan order, else freeze the MDP (EpisodicMdp.freeze) and
    mark it validated, so that cum_array does not validate it again.  Rows
    must be finite, entrywise >= 0 with |sum - 1| <= ROW_SUM_TOL; rewards
    must lie in [0, 1].  Shape errors raise ValueError.
    """
    P, r = np.asarray(mdp.P, dtype=float), np.asarray(mdp.r, dtype=float)
    if P.shape != (mdp.H, mdp.S, mdp.A, mdp.S):
        raise ValueError(f"P shape {P.shape} != {(mdp.H, mdp.S, mdp.A, mdp.S)}")
    if r.shape != (mdp.H, mdp.S, mdp.A):
        raise ValueError(f"r shape {r.shape} != {(mdp.H, mdp.S, mdp.A)}")
    for h, s, a in np.argwhere(bad_rows(P, r)).tolist():
        _check_row(P[h, s, a], r[h, s, a], h, s, a)
    mdp.freeze()
    mdp._validated = True


def bad_rows(P: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The (H, S, A) mask of every (h, s, a) whose row or reward fails a
    check, for validate to raise from the per-row checks on the first one
    in scan order, so the same error comes first.  A comparison with NaN is
    false, so each test is negated: a NaN entry fails the minimum's, +inf
    the sum's.  P.sum(-1) adds each row exactly as row.sum() does."""
    with np.errstate(invalid="ignore"):
        return (~(P.min(-1) >= 0.0) | ~(np.abs(P.sum(-1) - 1.0) <= ROW_SUM_TOL)
                | ~((0.0 <= r) & (r <= 1.0)))


def _check_row(row: np.ndarray, rv: float, h: int, s: int, a: int) -> None:
    """validate's checks of one (h, s, a): transition row, then reward."""
    # NaN fails both row tests below, so non-finite rows need their own
    if not np.isfinite(row).all():
        raise NonStochasticRow(h, s, a, f"non-finite entry in {row.tolist()}")
    if np.any(row < 0.0):
        raise NonStochasticRow(h, s, a, f"negative entry {row.min()}")
    if abs(row.sum() - 1.0) > ROW_SUM_TOL:
        raise NonStochasticRow(h, s, a, f"row sums to {row.sum()!r}")
    if not 0.0 <= rv <= 1.0:
        raise RewardOutOfRange(h, s, a, rv)


# ----------------------------------------------------------- exact solvers

def backward_induction(mdp: EpisodicMdp):
    """Exact optimal values and a greedy optimal policy.

    Q*[h] = r[h] + P[h] . V*[h+1],  V*[h] = max_a Q*[h],  V*[H] = 0,
    with argmax ties broken to the lowest action index.
    Returns (ValueTables, DeterministicPolicy).

    The kernel's stageq_solve solves a validated MDP (C-ordered float64, no
    NaN, on which C's > picks as np.argmax does) where NumPy's ddot is
    found; the NumPy loop, the reference for its bits, solves the rest.
    """
    H, S, A = mdp.H, mdp.S, mdp.A
    V = np.zeros((H + 1, S))
    Q = np.zeros((H + 1, S, A))
    pi = np.zeros((H, S), dtype=np.int64)
    lib = kernel.load() if mdp._validated else None
    if lib is not None and kernel.ddot() is not None:
        lib.stageq_solve(mdp.P.ctypes.data, mdp.r.ctypes.data, S, A, H, kernel.ddot(),
                         Q.ctypes.data, V.ctypes.data, pi.ctypes.data)
        return ValueTables(V=V, Q=Q), DeterministicPolicy(actions=pi)
    for h in range(H - 1, -1, -1):
        Q[h] = mdp.r[h] + mdp.P[h].dot(V[h + 1])
        pi[h] = np.argmax(Q[h], axis=1)
        V[h] = Q[h][np.arange(S), pi[h]]
    return ValueTables(V=V, Q=Q), DeterministicPolicy(actions=pi)


def checked_actions(mdp: EpisodicMdp, actions) -> np.ndarray:
    """actions as an (H, S) int64 array; ValueError on a wrong shape, a
    non-integer action (a cast would truncate it) or an action outside
    [0, A), which indexing would otherwise wrap silently."""
    H, S, A = mdp.H, mdp.S, mdp.A
    raw = np.asarray(actions)
    with np.errstate(invalid="ignore"):
        acts = raw.astype(np.int64)
    if acts.shape != (H, S):
        raise ValueError(f"policy shape {acts.shape} != {(H, S)}")
    if not np.array_equal(acts, raw):
        raise ValueError("policy actions must be integers")
    if acts.min() < 0 or acts.max() >= A:
        raise ValueError(f"policy actions outside [0, {A})")
    return acts


def policy_evaluation(mdp: EpisodicMdp, policy: DeterministicPolicy) -> ValueTables:
    """Exact V^pi and Q^pi for a deterministic step-indexed policy, by
    backward induction: V[h] = (r[h] + P[h] . V[h+1])[s, acts[h, s]]."""
    H, S, A = mdp.H, mdp.S, mdp.A
    acts = checked_actions(mdp, policy.actions)
    V = np.zeros((H + 1, S))
    Q = np.zeros((H + 1, S, A))
    idx = np.arange(S)
    for h in range(H - 1, -1, -1):
        q = mdp.r[h] + mdp.P[h].dot(V[h + 1])
        Q[h] = q
        V[h] = q[idx, acts[h]]
    return ValueTables(V=V, Q=Q)


# ---------------------------------------------------------------- sampling

def sample_episode(mdp: EpisodicMdp, actor, rng, episode_index: int = 0,
                   init: InitialStates = DEFAULT_STARTS):
    """Roll out episode episode_index from its start in init; returns
    [(s, a, r, s_next)] of length H.  `actor` needs select_action(h, s) ->
    a; if it also has observe(h, s, a, s_next), each transition is fed back
    immediately after it happens (the online-learner path).  `rng` needs
    random() -> float in [0, 1); exactly one uniform is consumed per step.
    """
    cum = mdp.cum_rows()
    rew = mdp.reward_rows()
    select = actor.select_action
    observe = getattr(actor, "observe", None)
    s = init.state(episode_index, mdp.S)
    traj = []
    for h in range(mdp.H):
        a = select(h, s)
        u = rng.random()
        s_next = bisect_right(cum[h][s][a], u)
        traj.append((s, a, rew[h][s][a], s_next))
        if observe is not None:
            observe(h, s, a, s_next)
        s = s_next
    return traj


# -------------------------------------------------------------- generators

def make_random_mdp(S: int, A: int, H: int, seed: int,
                    reward_sparsity: float = 0.0) -> EpisodicMdp:
    """Dense random instance: Dirichlet(1,...,1) rows, uniform [0,1] rewards.

    Each reward is independently zeroed with probability reward_sparsity
    (sparsity 1.0 gives an all-zero reward tensor exactly).  Deterministic
    in `seed`.
    """
    if min(S, A, H) < 1:
        raise ValueError(f"S, A, H must be positive, got {S}, {A}, {H}")
    if not 0.0 <= reward_sparsity <= 1.0:
        raise ValueError(f"reward_sparsity must be in [0, 1], got {reward_sparsity}")
    gen = np.random.default_rng(seed)
    P = gen.dirichlet(np.ones(S), size=(H, S, A))
    r = gen.uniform(size=(H, S, A))
    if reward_sparsity > 0.0:
        r[gen.random((H, S, A)) < reward_sparsity] = 0.0
    return EpisodicMdp(S=S, A=A, H=H, P=P, r=r)


def make_jao_chain(H: int, epsilon: float, delta: Optional[float] = None,
                   optimal_actions=None, seed: int = 0) -> EpisodicMdp:
    """Two-state hard chain: a rewardless state s0 and a rewarding state s1.

    Rewards are r_h(s0, a) = 0 and r_h(s1, a) = 1 for every h and a.  From
    s1 every action moves to s0 with probability delta.  From s0 the chain
    reaches s1 with probability delta, except that one hidden per-layer
    action a*_h gets a bonus: P_h(s1 | s0, a*_h) = delta + epsilon.  Small
    epsilon makes the action gap tiny at every layer while delta keeps the
    chain well-mixed, which is what makes the instance hard.

    delta defaults to 16/H (requires H >= 33 to stay below 1/2).  epsilon
    may be 0 (perfectly symmetric actions) and at most min(8/H, delta/2).
    optimal_actions is a length-H int array, or None to draw one uniformly
    from `seed`.
    """
    if H < 1:
        raise ValueError(f"H must be positive, got {H}")
    if delta is None:
        delta = 16.0 / H
    if not 0.0 <= delta < 0.5:
        raise InvalidDelta(f"delta must be in [0, 1/2), got {delta} (H={H})")
    if delta + epsilon > 1.0:
        raise InvalidDelta(f"delta + epsilon = {delta + epsilon} exceeds 1")
    eps_cap = min(8.0 / H, delta / 2.0)
    if not 0.0 <= epsilon <= eps_cap:
        raise InvalidEpsilon(f"epsilon must be in [0, {eps_cap}], got {epsilon}")
    if optimal_actions is None:
        gen = np.random.default_rng(seed)
        optimal_actions = gen.integers(0, 2, size=H)
    optimal_actions = np.asarray(optimal_actions, dtype=np.int64)
    if optimal_actions.shape != (H,) or optimal_actions.min() < 0 or optimal_actions.max() > 1:
        raise ValueError("optimal_actions must be H entries in {0, 1}")

    P = np.zeros((H, 2, 2, 2))
    r = np.zeros((H, 2, 2))
    P[:, 1, :, 0] = delta        # s1 -> s0
    P[:, 1, :, 1] = 1.0 - delta
    P[:, 0, :, 0] = 1.0 - delta  # s0 -> s1, baseline action
    P[:, 0, :, 1] = delta
    for h in range(H):
        a_star = optimal_actions[h]
        P[h, 0, a_star, 0] = 1.0 - delta - epsilon
        P[h, 0, a_star, 1] = delta + epsilon
    r[:, 1, :] = 1.0
    return EpisodicMdp(S=2, A=2, H=H, P=P, r=r)


# ---------------------------------------------------------------- file I/O

def save_mdp(mdp: EpisodicMdp, path) -> None:
    """Write the plain-text tabular format (see module docstring)."""
    lines = [f"{mdp.S} {mdp.A} {mdp.H}"]
    for h in range(mdp.H):
        for s in range(mdp.S):
            for a in range(mdp.A):
                probs = " ".join(f"{p:.17g}" for p in mdp.P[h, s, a])
                lines.append(f"P {h} {s} {a} {probs}")
    for h in range(mdp.H):
        for s in range(mdp.S):
            for a in range(mdp.A):
                lines.append(f"R {h} {s} {a} {mdp.r[h, s, a]:.17g}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_mdp(path) -> EpisodicMdp:
    """Parse the plain-text tabular format; raises ValueError with the
    offending line number on malformed input.  The format carries no start
    states: they are a run's input."""
    with open(path) as f:
        raw = f.readlines()
    lines = []
    for ln, text in enumerate(raw, start=1):
        text = text.split("#", 1)[0].strip()
        if text:
            lines.append((ln, text))
    if not lines:
        raise ValueError(f"{path}: empty MDP file")

    ln, header = lines[0]
    parts = header.split()
    if len(parts) != 3:
        raise ValueError(f"{path}:{ln}: header must be 'S A H', got {header!r}")
    try:
        S, A, H = (int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"{path}:{ln}: non-integer header field: {exc}") from None
    if min(S, A, H) < 1:
        raise ValueError(f"{path}:{ln}: S, A, H must be positive")

    # NaN marks a block not read yet; _parse_float rejects a literal nan
    P = np.full((H, S, A, S), np.nan)
    r = np.full((H, S, A), np.nan)
    seen = {}   # (kind, h, s, a) -> line of its first record
    for ln, text in lines[1:]:
        parts = text.split()
        kind = parts[0]
        if kind == "P":
            if len(parts) != 4 + S:
                raise ValueError(f"{path}:{ln}: P line needs 3 indices + {S} probabilities")
        elif kind == "R":
            if len(parts) != 5:
                raise ValueError(f"{path}:{ln}: R line needs 3 indices + 1 reward")
        else:
            raise ValueError(f"{path}:{ln}: unknown record {kind!r} (expected P or R)")
        h, s, a = _parse_indices(path, ln, parts[1:4], H, S, A)
        first = seen.setdefault((kind, h, s, a), ln)
        if first != ln:
            raise ValueError(f"{path}:{ln}: duplicate {kind} record for "
                             f"h={h} s={s} a={a} (first at line {first})")
        if kind == "P":
            P[h, s, a] = [_parse_float(path, ln, tok) for tok in parts[4:]]
        else:
            r[h, s, a] = _parse_float(path, ln, parts[4])
    if np.isnan(P).any():
        h, s, a = np.argwhere(np.isnan(P).any(axis=-1))[0]
        raise ValueError(f"{path}: missing P block for h={h} s={s} a={a}")
    if np.isnan(r).any():
        h, s, a = np.argwhere(np.isnan(r))[0]
        raise ValueError(f"{path}: missing R entry for h={h} s={s} a={a}")
    return EpisodicMdp(S=S, A=A, H=H, P=P, r=r)


def _parse_indices(path, ln, toks, H, S, A):
    try:
        h, s, a = (int(t) for t in toks)
    except ValueError:
        raise ValueError(f"{path}:{ln}: non-integer index in {toks}") from None
    if not (0 <= h < H and 0 <= s < S and 0 <= a < A):
        raise ValueError(f"{path}:{ln}: index (h={h}, s={s}, a={a}) out of range")
    return h, s, a


def _parse_float(path, ln, tok):
    try:
        val = float(tok)
    except ValueError:
        raise ValueError(f"{path}:{ln}: bad float {tok!r}") from None
    if not math.isfinite(val):
        raise ValueError(f"{path}:{ln}: non-finite value {tok!r}")
    return val
