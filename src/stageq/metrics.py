"""Regret, switching-cost and optimism metrics, and the table writers.

Per-episode regret compares the exact optimal value at the episode's
realized initial state with the exact value of the greedy policy the
learner held at the episode's start:  V*_1(s_1^k) - V^{pi_k}_1(s_1^k).
Both come from exact dynamic programming, not rollouts; PolicyValueCache
keeps V^pi of the last greedy table current at a cost only where it moves.

Local switching cost counts per-(h, s) action flips between consecutive
episode policies, n_switch = sum_k #{(h, s): pi_k(h, s) != pi_{k+1}(h, s)}.
For the stage-based learners the greedy policy can only move at stage-end
Q updates, which gives the deterministic ceiling switching_bound() below.

Optimism violations count Q-table entries strictly below Q* - OPTIMISM_TOL;
for the monotone learners an entry that dips under Q* stays under, so the
count is naturally non-decreasing over a run.  run_experiment reports
cum_optimism_violations as the running maximum of that count, taken after
each Q-changing episode.  For the stage learners this is the current count.
classic-qucb's Q moves both ways, so its entries can climb back above Q*;
there the column is the peak count seen so far, not the current one.

The audit loop pays O(H) per Q-changing episode for the switch and
optimism counts, because a learner writes Q (and so its greedy table) only
at the (h, s, a) cells of the episode it just ran: OptimismTracker re-tests
those H cells, and PolicyValueCache compares those H rows and counts the
ones that differ as switches.  check_optimism, count_switches,
SwitchTracker.record and policy_evaluation are the full-scan references
they must agree with.

Audit runs those steps a call at a time, in the compiled kernel where it
is built, else in its Python twin, into the same rows (see Audit).
write_table writes every numeric table from columns, in C where the
kernel is built, else through write_csv, the reference for the C body's
bytes; rounds.csv too, a window of NumPy-built round columns a call
(concurrent.write_rounds_csv).  The C body prints repr of each float with
1e-4 <= |x| < 2**53 by its own exact integer arithmetic, and hands the
others to CPython's repr routine.
"""

from __future__ import annotations

import ctypes
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import islice
from math import log
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from . import kernel
from .mdp import (DEFAULT_STARTS, START_BLOCK, EpisodicMdp, InitialStates, ValueTables,
                  checked_actions)

EPISODE_CSV_HEADER = ("k,episode_regret,cum_regret,cum_switching_cost,"
                      "cum_q_updates,cum_optimism_violations,ref_states_fixed")


@dataclass
class EpisodeRecord:
    """One audit row; all cum_* fields are non-decreasing in k."""

    k: int                       # 1-based episode index
    episode_regret: float
    cum_regret: float
    cum_switching_cost: int
    cum_q_updates: int
    cum_optimism_violations: int
    ref_states_fixed: int


class Table(Sequence):
    """A log kept as columns (each field's sequence, in row_type's order:
    source, or build(*source) made at the first read), read as a read-only
    sequence of fresh row_type(*cells) objects: changing one changes
    nothing here.  It equals any sequence of equal rows; a slice is a Table."""

    def __init__(self, row_type, source, build=None):
        self.row_type, self.source, self.build = row_type, source, build

    @cached_property
    def columns(self):
        return self.build(*self.source) if self.build else self.source

    @staticmethod
    def columns_of(row_type, rows):
        """rows' columns: a Table's own, else gathered from its row_type objects."""
        if isinstance(rows, Table):
            return rows.columns
        return [list(map(attrgetter(f.name), rows)) for f in fields(row_type)]

    def extend(self, *cells) -> None:
        for column, new in zip(self.columns, cells):
            column.extend(new)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i):
        cells = [c[i] for c in self.columns]
        return Table(self.row_type, cells) if isinstance(i, slice) else self.row_type(*cells)

    def __iter__(self):
        return map(self.row_type, *self.columns)

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented


class PolicyValueCache:
    """Exact V^pi of the last greedy table, kept current from table to table.

    Holds one table (a flat int64 array), the rows of P and r it selects
    (P_pi, (H, S, 1, S), and r_pi, (H, S)), its V and the running switch
    count, whatever the run length.  V[h] depends only on the actions at
    layers >= h, so the recursion V[h] = r_pi[h] + P_pi[h] . V[h+1]
    restarts at the deepest differing layer: S dot products per layer,
    each the one policy_evaluation computes, so V equals its V bit for bit.
    The kernel's audit writes the table, rows and V itself (see Audit).
    The MDP is frozen here (EpisodicMdp.freeze): the rows stay its own.
    """

    def __init__(self, mdp: EpisodicMdp):
        H, S = mdp.H, mdp.S
        mdp.freeze()
        self.mdp = mdp
        self.switches = 0          # differing rows summed over calls after the first
        self._flat = array("q", [-1]) * (H * S)    # the last table (none yet)
        self._P_pi = np.zeros((H, S, 1, S))
        self._r_pi = np.zeros((H, S))
        self._V = np.zeros((H + 1, S))   # its V, kept in place; callers get copies
        self._tables = None

    def copy(self) -> "PolicyValueCache":
        """A cache holding copies of this one's table, rows and V, with
        switches 0; built without __init__, it makes its own layer list."""
        new = object.__new__(PolicyValueCache)
        new.mdp, new.switches, new._flat = self.mdp, 0, self._flat[:]
        new._P_pi, new._r_pi, new._V = self._P_pi.copy(), self._r_pi.copy(), self._V.copy()
        new._tables = self._tables and ValueTables(V=self._V.copy(), Q=None)
        return new

    def values(self, actions_flat, rows=None) -> ValueTables:
        """V^pi of the flat (h, s) table actions_flat, a copy (Q None), or the
        same ValueTables if it equals the last at `rows`: the distinct flat
        indices where it may differ (default: every row; the audit passes
        the rows the last episode visited), the caller vouching for the
        rest.  Differing rows are gathered and added to switches, and V is
        recomputed (evaluate); the first table is taken whole.  ValueError
        on a bad action (outside [0, A) or not an integer) or length leaves
        the cache as it was."""
        mdp, last = self.mdp, self._flat
        if len(actions_flat) != len(last):
            raise ValueError(f"policy has {len(actions_flat)} entries, not {len(last)}")
        H, S, P, r = mdp.H, mdp.S, mdp.P, mdp.r
        P_pi, r_pi = self._P_pi, self._r_pi
        if self._tables is None:           # the first table: every row, at once
            acts = checked_actions(mdp, np.reshape(actions_flat, (H, S)))
            last[:] = kernel.table("q", acts)
            layer, state = np.indices((H, S))
            P_pi[:, :, 0] = P[layer, state, acts]
            r_pi[:] = r[layer, state, acts]
            top = H - 1
        else:
            rows = range(len(last)) if rows is None else rows
            diff = [i for i in rows if actions_flat[i] != last[i]]
            if not diff:
                return self._tables
            new = [actions_flat[i] for i in diff]
            if min(new) < 0 or max(new) >= mdp.A:
                raise ValueError(f"policy actions outside [0, {mdp.A})")
            ints = [int(a) for a in new]    # NaN raises ValueError here
            if ints != new:
                raise ValueError("policy actions must be integers")
            for i, a in zip(diff, ints):
                last[i] = a
                h, s = divmod(i, S)
                P_pi[h, s, 0] = P[h, s, a]
                r_pi[h, s] = r[h, s, a]
            self.switches += len(diff)
            top = max(diff) // S
        self.evaluate(top)
        self._tables = ValueTables(V=self._V.copy(), Q=None)
        return self._tables

    @cached_property
    def _layers(self) -> list:
        """evaluate's arguments for each layer, made at its first call: with
        the kernel and NumPy's ddot, an audited run's cache never makes one."""
        P_pi, V, r_pi = self._P_pi, self._V, self._r_pi
        col = V[:, :, None]        # each V[h] as the (S, 1) column dot writes
        return [(P_pi[h].dot, V[h + 1], col[h], V[h], r_pi[h]) for h in range(self.mdp.H)]

    def evaluate(self, top: int) -> None:
        """Recompute V[top], V[top - 1], ..., V[0] in place from the gathered
        rows, after a change of the table at layer top and none below it:
        V[h] = P_pi[h] . V[h+1], then += r_pi[h], one NumPy dot per layer
        (the same sum, with no temporaries)."""
        for dot, nxt, out, cur, r in self._layers[top::-1]:
            dot(nxt, out)          # out by position: no keyword parsing
            cur += r


def count_switches(prev_actions, new_actions) -> int:
    """Number of (h, s) cells whose greedy action differs."""
    return sum(1 for p, q in zip(prev_actions, new_actions) if p != q)


class SwitchTracker:
    """Accumulates local switching cost over a stream of episode policies."""

    def __init__(self):
        self._prev = None
        self.total = 0

    def record(self, actions_flat) -> int:
        """Feed episode k's policy (flat (h, s) action list); returns the
        increment against episode k-1's policy (0 for the first)."""
        inc = 0
        if self._prev is not None:
            inc = count_switches(self._prev, actions_flat)
            self.total += inc
        self._prev = list(actions_flat)
        return inc


def switching_bound(S: int, A: int, H: int, T: int) -> float:
    """Deterministic ceiling 4 H^2 S A ln(T/(2 S A H^2) + 1) on n_switch.

    Each (h, s) can flip only when one of its A counters hits a stage end;
    summing the per-counter stage-count bound and using concavity of ln in
    the total step count T gives the ceiling.  Vacuously 0 at T = 0.
    """
    return 4.0 * H * H * S * A * log(T / (2.0 * S * A * H * H) + 1.0)


OPTIMISM_TOL = 1e-9     # a Q entry below Q* - OPTIMISM_TOL is an optimism violation


def check_optimism(q_learner: np.ndarray, q_star: np.ndarray) -> int:
    """Count learner Q entries strictly below Q* - OPTIMISM_TOL.

    q_learner has shape (H, S, A); q_star may carry the boundary row
    (H+1, S, A) and is sliced to match.
    """
    H = q_learner.shape[0]
    return int(np.count_nonzero(q_learner < q_star[:H] - OPTIMISM_TOL))


class OptimismTracker:
    """check_optimism kept current by re-testing only the cells that moved.

    One flag per flat (h, s, a) cell says whether the learner's Q there is
    below Q* - OPTIMISM_TOL; the flags and their count come from one full scan of
    q_learner, and update() re-tests the H cells of an episode's trajectory.
    The thresholds and flags are flat arrays (array('d') and array('b')),
    which the kernel's audit reads and writes in place (see Audit).
    """

    def __init__(self, q_learner: np.ndarray, q_star: np.ndarray):
        H, self._S, self._A = q_learner.shape
        self._thr = kernel.table("d", q_star[:H] - OPTIMISM_TOL)
        below = q_learner.ravel() < np.frombuffer(self._thr)
        self._below = kernel.table("b", below)
        self.count = int(np.count_nonzero(below))

    def update(self, q_at, traj) -> int:
        """Re-test the cells (h, s, a) of traj [(s, a, r, s_next)] after the
        episode that produced it; q_at(i) reads Q at flat index i.  Returns
        the current count."""
        S, A, thr, below = self._S, self._A, self._thr, self._below
        count = self.count
        for h, (s, a, _r, _s_next) in enumerate(traj):
            i = (h * S + s) * A + a
            now = q_at(i) < thr[i]
            if now != below[i]:
                below[i] = now
                count += 1 if now else -1
        self.count = count
        return count


class Audit:
    """One run's audit, a stretch of the learner's episodes at a time.

    stretch(rng, first, stop, keep) has the learner play episodes first,
    first + 1, ... (0-based, below stop) from the run's start states init,
    audits each, adds the row of each one whose 1-based k is in keep (an
    increasing sequence) to `records` (a Table of int64 and float64
    columns, 56 bytes a row) and returns how many it played.  The running
    values, which each Audit starts at 0, are attributes of `fields`, a
    kernel.Learner: reg (the last episode's regret), cum_regret (their sum,
    added episode by episode), negative (the first 1-based episode whose
    regret is below -1e-9, or 0), switches, violations (the running maximum
    of the optimism count), optimism and pending (see _kernel.c).  start, a
    PolicyValueCache of the same MDP that has evaluated a table, spares the
    first evaluation where the learner's first table is that table: the
    audit's cache is its copy (PolicyValueCache.copy).

    One call plays the episodes, stageq_stretch's audited call: it ends at
    stop or at the end of the block of START_BLOCK start states that holds
    first, one block rule for every call, and writes every episode's row
    into the row buffers (START_BLOCK rows), from which stretch builds the
    kept rows.  With the compiled kernel, fields is the learner's Learner
    struct, whose audit fields point at V*[0], the policy cache's table,
    rows and V, the optimism tracker's thresholds and flags and the row
    buffers; the struct holds them from then on (_buffers), so they live
    as long as the learner.  Where the kernel found no ddot, its
    call also ends at each Q change, and the layers are recomputed here
    from the deepest one it reports.  Without the kernel, fields is a
    Learner bound to nothing, and _play, the call's Python twin, plays: the
    reference the kernel must match row for row.
    """

    def __init__(self, learner, mdp: EpisodicMdp, vstar: ValueTables,
                 init: InitialStates = DEFAULT_STARTS, start: PolicyValueCache | None = None):
        self.learner, self.mdp, self.init = learner, mdp, init
        greedy = learner.greedy_buffer()
        if start is not None and start._flat == greedy:
            self.cache = cache = start.copy()
        else:
            self.cache = cache = PolicyValueCache(mdp)
            cache.values(greedy)
        self.records = Table(EpisodeRecord, [array(t) for t in "qddqqqq"])
        self._optimism = optimism = OptimismTracker(learner.q_array(), vstar.Q)
        self._vstar0 = vstar0 = np.ascontiguousarray(vstar.V[0], dtype=float)
        self._reals = array("d", [0.0]) * (2 * START_BLOCK)     # reg, cum_regret
        self._counts = array("q", [0]) * (4 * START_BLOCK)     # see _kernel.c
        if learner._lib is None:
            self.fields = f = kernel.Learner()
        else:
            self.fields = f = learner._kstate
            f.vstar0, f.vpi, f.p_pi, f.r_pi = (a.ctypes.data for a in (
                vstar0, cache._V, cache._P_pi, cache._r_pi))
            f.thr, f.below, f.last, f.row_reals, f.row_counts = (a.buffer_info()[0] for a in (
                optimism._thr, optimism._below, cache._flat, self._reals, self._counts))
            f.ddot = kernel.ddot()
            f._buffers = (vstar0, cache, optimism, self._reals, self._counts)
        f.reg = f.cum_regret = 0.0
        f.negative = f.violations = f.switches = f.pending = 0
        f.optimism = optimism.count

    def stretch(self, rng, first: int, stop: int, keep=()):
        learner = self.learner
        q0, r0 = learner.q_update_count, learner.ref_fixed_count
        if learner._lib is None:
            played = self._play(rng, first, stop)
        else:
            played, _ = learner.run_stretch(self.mdp, rng, first, stop, self.init)
            if self.fields.top >= 0:
                self.cache.evaluate(self.fields.top)
        x, n = self._reals, self._counts
        ks = keep[bisect_right(keep, first):bisect_right(keep, first + played)]
        consecutive = ks and ks[-1] - ks[0] == len(ks) - 1     # one run [a, b)
        for a, b in [(ks[0], ks[-1] + 1)] if consecutive else [(k, k + 1) for k in ks]:
            i, j = a - 1 - first, b - 1 - first     # the rows' places in the call
            self.records.extend(range(a, b), x[2 * i:2 * j:2], x[2 * i + 1:2 * j:2],
                                n[4 * i:4 * j:4], map(q0.__add__, n[4 * i + 1:4 * j:4]),
                                n[4 * i + 2:4 * j:4], map(r0.__add__, n[4 * i + 3:4 * j:4]))
        return played

    def _play(self, rng, first: int, stop: int) -> int:
        """stageq_stretch's audited call with ddot, one run_episode at a
        time, up to stop or the end of first's block of START_BLOCK start
        states (one block rule); returns the episodes played."""
        learner, mdp, cache, f = self.learner, self.mdp, self.cache, self.fields
        x, n, optimism, S = self._reals, self._counts, self._optimism, mdp.S
        vstar0, vpi = self._vstar0, cache._V[0]     # a view: evaluate writes V in place
        q0, r0 = learner.q_update_count, learner.ref_fixed_count
        b, j = divmod(first, START_BLOCK)
        starts = self.init.block(b, S)[j:j + stop - first]
        for i, s1 in enumerate(starts):
            f.switches += f.pending
            f.pending = 0
            f.reg = reg = vstar0[s1] - vpi[s1]
            f.cum_regret += reg
            if reg < -1e-9 and not f.negative:
                f.negative = first + i + 1
            traj, report = learner.run_episode(mdp, rng, first + i, self.init)
            if report.q_changed:
                f.optimism = optimism.update(learner.q_at, traj)
                f.violations = max(f.violations, f.optimism)
                before = cache.switches
                cache.values(learner.greedy_buffer(), [h * S + s for h, (s, *_) in enumerate(traj)])
                f.pending = cache.switches - before
            x[2 * i], x[2 * i + 1] = reg, f.cum_regret
            n[4 * i:4 * i + 4] = array("q", (f.switches, learner.q_update_count - q0,
                                             f.violations, learner.ref_fixed_count - r0))
        return len(starts)


def write_csv(out, row_format: str, rows) -> None:
    """row_format % row per row, 1024 rows a write, to an open text file:
    write_table's Python body.  Cells must be Python numbers (tolist(),
    attributes): %r of an np.float64 prints np.float64(...)."""
    lines = map(row_format.__mod__, rows)
    while chunk := list(islice(lines, 1024)):
        out.write("\n".join(chunk) + "\n")


class GridAxis(NamedTuple):
    """A column of a C-ordered grid's indices along one axis: row // div % mod."""

    div: int
    mod: int


def grid(shape) -> list:
    """The index columns of a C-ordered grid of this shape, one per axis."""
    axes, div = [], 1
    for n in reversed(shape):
        axes.append(GridAxis(div, n))
        div *= n
    return axes[::-1]


CHUNK_BYTES = 1 << 17      # the kernel body's buffer: rows formatted per write
_PERCENT = {kernel.COL_INT: "%d", kernel.COL_FLOAT: "%r", kernel.COL_GRID: "%d",
            kernel.COL_EMPTY: ""}    # the Python body's format of each kind of cell


def write_table(out, header: str | None, columns) -> None:
    """The header (none if None), then each row of the columns
    comma-separated, to a path or an open text file: integers in decimal
    (%d), floats by repr (%r).  A column is a flat run of numbers (anything
    np.ravel takes; arrays are read in place), a GridAxis, or None for an
    empty cell.  With the kernel, C formats CHUNK_BYTES of rows a call
    (kernel.formatter), floats with 1e-4 <= |x| < 2**53 by its own digit
    search and the rest through CPython's repr routine; without it,
    write_csv does, 1024 rows at a time: the reference for the C body's
    bytes.  Either holds one chunk of text, whatever the row count."""
    if not hasattr(out, "write"):
        with open(out, "w") as f:
            return write_table(f, header, columns)
    cols = [c if c is None or isinstance(c, GridAxis) else _numbers(c) for c in columns]
    lengths = {len(c) for c in cols if isinstance(c, np.ndarray)}
    if len(lengths) != 1:
        raise ValueError(f"columns of numbers of lengths {sorted(lengths)}, not one length")
    n = lengths.pop()
    kinds = [kernel.COL_EMPTY if c is None else kernel.COL_GRID if isinstance(c, GridAxis)
             else kernel.COL_FLOAT if c.dtype == np.float64 else kernel.COL_INT for c in cols]
    if header is not None:
        out.write(header + "\n")
    fmt = kernel.formatter()
    if fmt is None:
        row_format = ",".join(_PERCENT[k] for k in kinds)
        return write_csv(out, row_format, _row_chunks(cols, n))
    spec = (kernel.Column * len(cols))(*(
        (k, None, *c) if k == kernel.COL_GRID else (k, None if c is None else c.ctypes.data)
        for k, c in zip(kinds, cols)))
    cap = max(CHUNK_BYTES, len(cols) * kernel.CELL_MAX + 1)
    buf = bytearray(cap)
    at = ctypes.addressof(ctypes.c_char.from_buffer(buf))
    row = ctypes.c_int64(0)
    while row.value < n:
        size = fmt(spec, len(cols), ctypes.byref(row), n, at, cap)
        out.write(str(memoryview(buf)[:size], "ascii"))


def _numbers(column) -> np.ndarray:
    """A column of numbers as a flat float64 or int64 array (a view where it is one)."""
    a = np.ravel(column)
    return a.astype(np.float64 if a.dtype.kind == "f" else np.int64, copy=False, casting="safe")


def _row_chunks(cols, n: int):
    """write_table's rows as tuples of Python numbers, made 1024 at a time."""
    for i in range(0, n, 1024):
        j = min(i + 1024, n)
        yield from zip(*(c[i:j].tolist() if isinstance(c, np.ndarray)
                         else [r // c.div % c.mod for r in range(i, j)]
                         for c in cols if c is not None))


def write_episode_csv(records, path) -> None:
    """Write audit rows (a Table, or any sequence of EpisodeRecord) from their columns."""
    write_table(path, EPISODE_CSV_HEADER, Table.columns_of(EpisodeRecord, records))
