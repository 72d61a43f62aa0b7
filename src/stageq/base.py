"""Shared skeleton for the tabular optimistic Q-learners.

Every learner in this package keeps flat Q and V tables initialized
optimistically to H - h + 1 (V carries an all-zero boundary row at index
H), acts greedily with lowest-index tie-breaking, and is model-free: it is
constructed from the MDP's dimensions and deterministic reward table only,
never its transition kernels.  The exception is the oracle
(harness.OracleAgent), whose tables are Q*, V* and pi* of the full MDP and
whose observe changes nothing.  Subclasses implement observe(h, s, a,
s_next), which returns None, and keep the cumulative counters
stage_end_count / q_update_count / ref_fixed_count current (and
reference_wins, which only the stage learners move).  Those counters
are the only record of what a transition did: run_episode's report and
the rounds' "did Q change" test are both differences of them.

The tables are fixed-size flat buffers (array('d') and array('q')) that
both Python and the compiled kernel (_kernel.c, loaded by the kernel
module) read and write in place; numpy copies are exported on demand.
The drivers run_episode (one episode), run_stretch (episodes up to the
first Q change) and run_rounds (a concurrent run's rounds, through Q
changes) are each one call of _call, which plays at most one block of
START_BLOCK (4096) start states, or, audited (metrics.Audit), one block
of AUDIT_ROWS (256) rows: in C, stageq_stretch, for every learner here
(the Learner struct's mode says whose observe it repeats), or without a
C compiler its
twin _play, one reference_episode (sample_episode feeding observe, one
transition at a time, the path the kernel must match bit for bit) after
another.  Both end a call at the same episode.  Every driver takes the
run's start states (init, an InitialStates: every episode from state 0
where none is given), read from the block init.block returns, and draws
its uniforms from the stream (harness.UniformStream), whose draws and the
kernel's can be swapped for one another.  Recorded trajectories
(observe_trajectory) go through Python observe.

The greedy policy is kept as state rather than recomputed: _greedy holds
the lowest-index argmax of every Q row, one entry per flat (h, s) index.
Every write to Q goes through _row_max, which rescans that one row and
refreshes its _greedy entry, so select_action is a buffer read.
greedy_actions_flat returns a copy, because callers hold their snapshot
while learning goes on; greedy_buffer hands out the live table to a caller
that reads it at once.

Trajectory locality: each episode played writes Q, V and _greedy only at
the (h, s, a) cells (and their (h, s) rows) of its own trajectory.  The
audit relies on this to re-test optimism and count switches on those H
cells alone; the kernel's audit reads each Q-changing episode's
trajectory from its path buffers before the next episode plays.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from . import kernel
from .mdp import DEFAULT_STARTS, START_BLOCK, EpisodicMdp, InitialStates, sample_episode
from .metrics import AUDIT_ROWS
from .stages import OutOfRangeError


@dataclass
class EpisodeReport:
    """What one episode did to the learner's tables."""

    stage_ends: int
    q_updates: int   # updates that actually changed a Q entry
    refs_fixed: int

    @property
    def q_changed(self) -> bool:
        return self.q_updates > 0


class TabularQLearnerBase:
    """Common state, acting and rollout logic; see module docstring."""

    name = "base"
    reference = False      # the stage learners' reference route (advantage module)

    def __init__(self, mdp: EpisodicMdp):
        S, A, H = mdp.S, mdp.A, mdp.H
        self.S, self.A, self.H = S, A, H
        self._rew = kernel.table("d", mdp.r)
        self._q = kernel.table("d", np.repeat(np.arange(H, 0, -1.0), S * A))    # H - h
        self._v = kernel.table("d", np.repeat(np.arange(H, -1, -1.0), S))      # and row H: 0
        self._n = array("q", [0]) * (H * S * A)
        self._greedy = array("q", [0]) * (H * S)   # rows start tied, so argmax 0
        self.stage_end_count = 0
        self.q_update_count = 0
        self.ref_fixed_count = 0
        self.reference_wins = 0    # Q updates set by the reference-advantage target
        self._lib = kernel.load()  # the subclass binds its tables (_bind_kernel)

    def _bind_kernel(self, **fields) -> None:
        """Describe the tables to the kernel: the ones every learner has, and
        the subclass's own Learner fields (mode included) in fields, arrays
        by address and numbers as they are.  The learner keeps every array
        alive, and the buffers never resize, so the addresses stay valid
        for its life; _call sets the per-call fields."""
        H = self.H
        self._path_s, self._path_a, self._path_next = (array("q", [0]) * H for _ in range(3))
        self._path_r = array("d", [0.0]) * H
        self._changes = array("q")     # made at the first call of rounds (_call)
        for name in ("q", "v", "rew", "n", "greedy", "path_s", "path_a", "path_next",
                     "path_r"):
            fields[name] = getattr(self, "_" + name)
        self._kstate = kernel.Learner(S=self.S, A=self.A, H=H, **{
            name: value.buffer_info()[0] if isinstance(value, array) else value
            for name, value in fields.items()})
        self._kaddr = kernel.ctypes.addressof(self._kstate)
        self._stretch = self._lib.stageq_stretch
        # what the struct's P, cum, mdp_rew, starts, u and pcg point into
        # now: the (frozen) MDP, a block of init's start states, the stream
        self._mdp = self._init = self._starts = self._rng = None

    # ------------------------------------------------------------ acting

    def select_action(self, h: int, s: int) -> int:
        """Greedy in Q_h(s, .); ties break to the lowest action index."""
        return self._greedy[h * self.S + s]

    def _row_max(self, i2: int) -> float:
        """Rescan Q row i2 = h*S + s after a write to it: store the row's
        lowest-index argmax in _greedy and return the row max."""
        q = self._q
        base = i2 * self.A
        best, arg = q[base], 0
        for a in range(1, self.A):
            val = q[base + a]
            if val > best:
                best, arg = val, a
        self._greedy[i2] = arg
        return best

    def observe(self, h: int, s: int, a: int, s_next: int) -> None:
        raise NotImplementedError

    def observe_trajectory(self, traj) -> None:
        """observe each step (s, a, r, s_next) of a recorded trajectory."""
        for h, (s, a, _r, s_next) in enumerate(traj):
            self.observe(h, s, a, s_next)

    def reference_episode(self, mdp: EpisodicMdp, rng, episode_index: int = 0,
                          init: InitialStates = DEFAULT_STARTS):
        """Roll out one episode with sample_episode feeding observe, one
        transition at a time; returns (traj, EpisodeReport).  What
        run_episode does without the kernel, and what the kernel must match
        bit for bit."""
        e0, u0, r0 = self.stage_end_count, self.q_update_count, self.ref_fixed_count
        traj = sample_episode(mdp, self, rng, episode_index, init)
        return traj, EpisodeReport(stage_ends=self.stage_end_count - e0,
                                   q_updates=self.q_update_count - u0,
                                   refs_fixed=self.ref_fixed_count - r0)

    def run_episode(self, mdp: EpisodicMdp, rng, episode_index: int = 0,
                    init: InitialStates = DEFAULT_STARTS):
        """Roll out one episode, learning online; returns (traj, EpisodeReport).
        rng is a harness.UniformStream.  A one-episode call (_call); the
        report is the counters' differences."""
        e0, u0, r0 = self.stage_end_count, self.q_update_count, self.ref_fixed_count
        self._call(mdp, rng, init, episode_index, 1)
        return self._last_traj(), EpisodeReport(
            self.stage_end_count - e0, self.q_update_count - u0, self.ref_fixed_count - r0)

    def run_stretch(self, mdp: EpisodicMdp, rng, first: int, stop: int,
                    init: InitialStates = DEFAULT_STARTS):
        """Play episodes first, first + 1, ... (0-based, below stop) in one
        call (_call), which stops after the first one that changes Q, or at
        the end of the block of START_BLOCK start states that holds
        `first`; rng is a harness.UniformStream.  An audited learner's call
        (metrics.Audit) stops at the end of first's block of AUDIT_ROWS
        episodes instead, the rows its buffers hold, and with the kernel's
        audit and NumPy's ddot plays through Q changes: the call that
        metrics.Audit._play plays in Python.  Returns (played, changed):
        the episodes played and whether Q changed."""
        u0 = self.q_update_count
        played = self._call(mdp, rng, init, first, stop - first)[0]
        return played, self.q_update_count > u0

    def run_rounds(self, mdp: EpisodicMdp, rng, first: int, agents: int, consumed: int,
                   limit: int, changes: list, init: InitialStates = DEFAULT_STARTS):
        """Play run_concurrent's rounds of `agents` episodes online from
        generated episode first (0-based) in one call (_call), adding each
        played one to consumed and each round's first Q-changing one to
        changes, and skipping the rest of that round, uniforms too, up to a
        round start with consumed >= limit, or the end of the block of
        START_BLOCK start states that holds `first` (past it after a skip).
        Returns (generated, consumed)."""
        played, consumed, new = self._call(mdp, rng, init, first, START_BLOCK, agents,
                                           consumed, limit)
        changes.extend(new)
        return played, consumed

    def _call(self, mdp: EpisodicMdp, rng, init: InitialStates, first: int, count: int,
              agents: int = 0, consumed: int = 0, limit: int = 0):
        """Play at most count episodes from generated episode first, and no
        further than the end of its block of START_BLOCK start states, or
        audited, of AUDIT_ROWS rows: one kernel call (stageq_stretch), or
        its twin _play without the kernel.  agents = 0 is a stretch
        (run_stretch), agents = M a call of rounds (run_rounds).  Returns
        (played, consumed, changes): the episodes played or skipped,
        consumed plus those played, and, with agents, the generation index
        of each Q-changing one."""
        b, j = divmod(first, START_BLOCK)
        count = min(count, START_BLOCK - j)
        if self._lib is None:
            return self._play(mdp, rng, init, first, count, agents, consumed, limit)
        k = self._kstate
        if k.row_reals:     # audited: the row buffers hold AUDIT_ROWS
            count = min(count, AUDIT_ROWS - first % AUDIT_ROWS)
        if agents and not self._changes:     # at most one per episode of a call
            self._changes = array("q", [0]) * START_BLOCK
            k.changes = self._changes.buffer_info()[0]
        if mdp is not self._mdp:
            self._bind_mdp(mdp)
        if rng is not self._rng:
            self._bind_stream(rng)
        if init is not self._init:     # _block: which block of init's starts k.starts reads
            self._init, self._block = init, None
        if b != self._block:
            starts = init.block(b, self.S)
            if starts is not self._starts:
                self._starts, self._starts_at = starts, starts.obj.ctypes.data
            self._block = b
        k.starts = self._starts_at + 8 * j     # int64 entries
        k.count, k.agents, k.first, k.consumed, k.limit = count, agents, first, consumed, limit
        i = rng._i
        k.u_index, k.u_avail = i, rng.BLOCK - i
        played = self._stretch(self._kaddr)
        # past the buffer's tail the kernel stepped the generator itself
        rng._i = min(i + k.used, rng.BLOCK)
        self._add_counts()
        return played, k.consumed, self._changes[:k.n_changes]

    def _play(self, mdp: EpisodicMdp, rng, init: InitialStates, first: int, count: int,
              agents: int, consumed: int, limit: int):
        """stageq_stretch's unaudited call, one reference_episode at a time:
        a stretch ends after its first Q change; a call of rounds ends at a
        round start once consumed >= limit, and skips the rest of each
        Q-changing episode's round, uniforms too (a skip may pass count)."""
        played, changes = 0, []
        while played < count:
            k = first + played
            if agents and k % agents == 0 and consumed >= limit:
                break
            self._traj, report = self.reference_episode(mdp, rng, k, init)
            played += 1
            consumed += 1
            if report.q_changed:
                if not agents:
                    break
                changes.append(k)
                skip = -(k + 1) % agents       # the round's discarded episodes
                rng.skip(skip * mdp.H)
                played += skip
        return played, consumed, changes

    def _bind_stream(self, rng) -> None:
        """Point the struct's u and pcg at rng's buffer and its PCG64's
        state (TypeError for another generator); both stay where they are
        for the stream's life, and the learner holds the stream."""
        k = self._kstate
        k.pcg = kernel.pcg64_state(rng.generator.bit_generator)
        k.u = rng._buf.ctypes.data
        self._rng = rng

    def _bind_mdp(self, mdp: EpisodicMdp) -> None:
        cum = mdp.cum_array()      # freezes the MDP: P and r are C-ordered float64
        H, S, A = self.H, self.S, self.A
        if cum.shape != (H, S, A, S) or mdp.r.shape != (H, S, A):
            raise ValueError(f"MDP shape {mdp.r.shape} != learner's {(H, S, A)}")
        k = self._kstate
        k.cum, k.mdp_rew, k.P = cum.ctypes.data, mdp.r.ctypes.data, mdp.P.ctypes.data
        self._mdp = mdp

    def _last_traj(self) -> list:
        """The trajectory of the last episode played."""
        if self._lib is None:
            return self._traj
        return list(zip(self._path_s, self._path_a, self._path_r, self._path_next))

    def _add_counts(self) -> None:
        """Apply a kernel call's counter increments, then raise what it hit."""
        k = self._kstate
        self.stage_end_count += k.stage_ends
        self.q_update_count += k.q_updates
        self.ref_fixed_count += k.refs_fixed
        self.reference_wins += k.ref_wins
        if k.bad_index:
            raise IndexError("state or action outside the learner's tables")
        if k.bad_n:
            raise OutOfRangeError(k.bad_n, k.n_max)

    # ----------------------------------------------------------- exports

    def greedy_actions_flat(self):
        """Greedy action per (h, s) as a flat list; a copy the caller may keep."""
        return list(self._greedy)

    def greedy_buffer(self):
        """The live greedy table, flat by (h, s): read it at once, never keep
        it or write to it."""
        return self._greedy

    def q_at(self, i3: int) -> float:
        """Q at flat index i3 = (h*S + s)*A + a, read-only."""
        return self._q[i3]

    def q_array(self) -> np.ndarray:
        return np.array(self._q, dtype=float).reshape(self.H, self.S, self.A)

    def v_array(self) -> np.ndarray:
        return np.array(self._v, dtype=float).reshape(self.H + 1, self.S)

    def n_array(self) -> np.ndarray:
        return np.array(self._n, dtype=np.int64).reshape(self.H, self.S, self.A)

