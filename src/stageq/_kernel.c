/* Compiled episode loop of the tabular agents (advantage,
 * hoeffding-stage, classic-qucb and the oracle).
 *
 * stageq_stretch plays whole episodes on the learner's own tables.  It
 * repeats the learner's Python observe operation for operation
 * (UcbAdvantageLearner.observe and _stage_update, or ClassicQUcbLearner.
 * observe, as the struct's mode says; the oracle's changes nothing): the
 * same uniforms in the same order, the next state bisect_right picks from
 * the same cumulative rows (next_state counts the entries <= u, which form
 * a prefix of each row), the same double expressions evaluated left to
 * right, max(0.0, x) and safe_ratio with Python's semantics, and the
 * per-stage constants computed in Python.  Built with -O2
 * -ffp-contract=off and never -ffast-math (see kernel.py), every +, -, *,
 * / and sqrt rounds as Python's does, so the tables come out bit for bit
 * equal to the Python path's.
 *
 * With the audit fields bound (metrics.Audit binds them), stageq_stretch
 * also audits each episode, as metrics.Audit._play does in Python, and
 * writes its audit row.  Each layer sum of V^pi calls the ddot that NumPy's dot
 * calls, so V^pi comes out bit for bit as PolicyValueCache.evaluate
 * computes it, and the call plays on through Q changes; without that
 * function the call ends at the first Q change, as it does unaudited.
 *
 * With agents = M > 0 (run_concurrent's rounds of M episodes, unaudited),
 * a call plays through Q changes, skipping the rest of each Q-changing
 * episode's round, and stops at a round start at the caller's limit.
 *
 * The uniforms are the stream's (harness.UniformStream): the kernel reads
 * the unread tail of its buffer, then steps the generator's PCG64 state in
 * place (pcg64_double), writing it back when the call ends.  The start
 * states are read in place from the block InitialStates.block returns.
 *
 * One Learner struct, whose layout kernel.py mirrors (every field 8 bytes
 * wide), is stageq_stretch's one argument; its last fields are the inputs
 * set before each call and the outputs the call fills.
 *
 * stageq_cum_rows and stageq_solve prepare an instance (harness.Prepared)
 * with the bits of their NumPy bodies: its cumulative rows, and V*, Q*, pi*.
 *
 * stageq_format_rows writes the rows of metrics.write_table: integers in
 * decimal, and floats as repr writes them.  For 1e-4 <= |x| < 2**53, where
 * repr is in fixed notation, put_repr finds the shortest digits itself in
 * exact 128-bit integer arithmetic; every other float goes through the
 * routine float.__repr__ calls, PyOS_double_to_string(x, 'r', 0,
 * Py_DTSF_ADD_DOT_0, NULL), which kernel.py passes in with PyMem_Free, and
 * calls with the GIL held.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* Which observe the kernel repeats (Learner.mode) */
enum { MODE_HOEFFDING_STAGE, MODE_ADVANTAGE, MODE_CLASSIC_QUCB, MODE_ORACLE };

/* The stage learners use every field; classic-qucb leaves vref, the stage
 * accumulators and the stage-end tables NULL and reads cb and h3iota. */
typedef struct {
    int64_t S, A, H;
    double *q;              /* H*S*A */
    double *v;              /* (H+1)*S, zero boundary row */
    double *vref;           /* (H+1)*S, zero boundary row */
    const double *rew;      /* H*S*A */
    int64_t *n;             /* visits per (h, s, a) */
    int64_t *nchk;          /* visits in the current stage */
    double *mu_chk, *ups_chk, *sig_chk, *mu_ref, *sig_ref;
    int64_t *n_state;       /* visits per (h, s) */
    int8_t *ref_fixed;      /* per (h, s) */
    int64_t *greedy;        /* lowest-index argmax per (h, s) */
    int64_t *end_idx;       /* per (h, s, a): index in ends of the first stage end
                               >= the visit count the kernel last saw there */
    const int64_t *ends;    /* every stage end, increasing, the last >= n_max */
    const double *lower;    /* c3 lower-order term at each stage end */
    const double *bbar;     /* Hoeffding width at each stage end */
    int64_t n_max;
    double n0, c1, c2, iota;
    int64_t mode;           /* MODE_*; the reference route is on in MODE_ADVANTAGE */
    double cb, h3iota;      /* classic-qucb's bonus multiplier and H^3 * iota */
    int64_t *path_s, *path_a, *path_next;   /* the last episode's steps */
    double *path_r;         /* and their rewards */
    /* what a stretch reads besides the tables; set when it changes */
    const double *cum;      /* the MDP's (H, S, A, S) cumulative rows */
    const double *mdp_rew;  /* the MDP's (H, S, A) rewards, for path_r */
    const double *u;        /* the stream's buffer of uniforms */
    uint64_t *pcg;          /* its generator's PCG64 state and increment, two
                               128-bit integers stored low word first */
    const int64_t *starts;  /* the initial states of the episodes to play */
    const double *P;        /* the MDP's (H, S, A, S) transition rows */
    /* the audit, on when vstar0 is set; its running values are
     * metrics.Audit.fields */
    const double *vstar0;   /* V*[0], per state */
    double *vpi;            /* V^pi of the greedy policy played, (H+1)*S */
    const double *thr;      /* Q* - 1e-9 per (h, s, a) */
    int8_t *below;          /* q < thr, per (h, s, a) */
    int64_t *last;          /* the policy cache's table, per (h, s) */
    double *p_pi, *r_pi;    /* the rows of P and r that table selects */
    /* each episode's audit row, at its place in the call (q_updates and
     * refs_fixed as increments in the call) */
    double *row_reals;      /* reg, cum_regret */
    int64_t *row_counts;    /* switches, q_updates, violations, refs_fixed */
    int64_t *changes;       /* with agents, each Q-changing episode's index */
    /* NumPy's BLAS ddot (n, x, incx, y, incy), or NULL: top is left to Python */
    double (*ddot)(int64_t, const double *, int64_t, const double *, int64_t);
    double reg, cum_regret; /* the last episode's regret, and the running sum */
    int64_t negative;       /* the first episode (1-based) with regret < -1e-9, or 0 */
    int64_t optimism;       /* entries below thr */
    int64_t violations;     /* the running max of optimism after each Q change */
    int64_t switches;       /* rows that differ between the policies of
                               consecutive episodes played */
    int64_t pending;        /* rows in which the policy after the last episode
                               differs; added to switches when the next plays */
    /* per-call inputs */
    int64_t u_index;        /* index in u of the first unread uniform */
    int64_t u_avail;        /* unread uniforms at u + u_index; past them the
                               kernel steps pcg */
    int64_t count;          /* episodes to play at most, in one block of
                               starts (one block rule): the audit's rows */
    int64_t agents;         /* M, the episodes of a concurrent round, or 0 */
    int64_t first;          /* starts[0]'s episode (with agents, generation) index */
    int64_t limit, consumed;    /* with agents, the call ends at a round start
                               once consumed (episodes kept, in and out) >= limit */
    /* per-call outputs, each set by stageq_stretch */
    int64_t stage_ends, q_updates, refs_fixed, ref_wins;   /* counter increments */
    int64_t used;           /* uniforms read or skipped, from the buffer's
                               tail first, then from pcg */
    int64_t bad_n;          /* visit count above n_max, or 0 */
    int64_t bad_index;      /* 1 if a state or action was out of range */
    int64_t top;            /* with no ddot, the deepest layer the audit's table
                               changed, for Python to recompute from; else -1 */
    int64_t n_changes;      /* entries written to changes */
} Learner;

/* sizeof(Learner), which kernel.py checks against its own layout */
int64_t stageq_learner_size(void)
{
    return (int64_t)sizeof(Learner);
}

/* NumPy's PCG64 (pcg64.h, 128-bit arithmetic): step the LCG, then the
 * XSL-RR output of the new state, then next_double's top 53 bits. */
__extension__ typedef unsigned __int128 u128;
#define PCG64_MULT (((u128)2549297995355413924ULL << 64) | 4865540595714422341ULL)

static double pcg64_double(u128 *state, u128 inc)
{
    u128 x = *state * PCG64_MULT + inc;
    *state = x;
    uint64_t hi = (uint64_t)(x >> 64), xs = hi ^ (uint64_t)x;
    unsigned rot = (unsigned)(hi >> 58);
    uint64_t out = (xs >> rot) | (xs << ((64 - rot) & 63));
    return (double)(out >> 11) * (1.0 / 9007199254740992.0);
}

static double safe_ratio(double num, int64_t den)
{
    return den > 0 ? num / (double)den : 0.0;
}

static double clip0(double x)     /* max(0.0, x): x only when x > 0.0 */
{
    return x > 0.0 ? x : 0.0;
}

/* bisect.bisect_right(row, x) for x in [0, 1).  Each row is the cumulative
 * sum of a validated P row (mdp.cum_array), non-decreasing up to its last
 * entry, 1.0 > x, so the entries <= x are a prefix: halving keeps its end
 * in [lo, hi), and counting the <= 16 entries left finds it, branch-free. */
static int64_t next_state(const double *row, int64_t len, double x)
{
    int64_t lo = 0, hi = len;
    while (hi - lo > 16) {
        int64_t mid = (lo + hi) / 2;
        if (x < row[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    int64_t k = lo;
    for (int64_t i = lo; i < hi; i++)
        k += row[i] <= x;
    return k;
}

/* TabularQLearnerBase._row_max */
static double row_max(const Learner *L, int64_t i2)
{
    const double *q = L->q + i2 * L->A;
    double best = q[0];
    int64_t arg = 0;
    for (int64_t a = 1; a < L->A; a++) {
        if (q[a] > best) {
            best = q[a];
            arg = a;
        }
    }
    L->greedy[i2] = arg;
    return best;
}

/* UcbAdvantageLearner._stage_update at the j-th stage end */
static void stage_update(Learner *L, int64_t i2, int64_t i3, int64_t j)
{
    int64_t n = L->n[i3], nc = L->nchk[i3];
    double lower = L->lower[j], b_bar = L->bbar[j];
    double r = L->rew[i3];
    double cand = r + safe_ratio(L->ups_chk[i3], nc) + b_bar;
    int ref_won = 0;
    if (L->mode == MODE_ADVANTAGE) {
        double iota = L->iota;
        double mu_ref_bar = safe_ratio(L->mu_ref[i3], n);
        double nu_ref = clip0(safe_ratio(L->sig_ref[i3], n) - mu_ref_bar * mu_ref_bar);
        double mu_chk_bar = safe_ratio(L->mu_chk[i3], nc);
        double nu_chk = clip0(safe_ratio(L->sig_chk[i3], nc) - mu_chk_bar * mu_chk_bar);
        double b = (L->c1 * sqrt(nu_ref * iota / (double)n)
                    + L->c2 * sqrt(nu_chk * iota / (double)nc)
                    + lower);
        double cand2 = r + mu_ref_bar + mu_chk_bar + b;
        if (cand2 < cand) {
            cand = cand2;
            ref_won = 1;
        }
    }

    L->stage_ends += 1;
    if (cand < L->q[i3]) {
        L->q[i3] = cand;
        L->v[i2] = row_max(L, i2);
        L->q_updates += 1;
        L->ref_wins += ref_won;
    }

    L->nchk[i3] = 0;
    L->mu_chk[i3] = 0.0;
    L->ups_chk[i3] = 0.0;
    L->sig_chk[i3] = 0.0;
}

/* ClassicQUcbLearner.observe: one incremental update, counted as a Q
 * update whatever it wrote; no n_max check */
static void observe_qucb(Learner *L, int64_t h, int64_t s, int64_t a,
                         int64_t s_next)
{
    int64_t S = L->S, H = L->H;
    int64_t i2 = h * S + s;
    int64_t i3 = i2 * L->A + a;
    int64_t t = L->n[i3] + 1;
    L->n[i3] = t;
    double alpha = (H + 1.0) / (double)(H + t);
    double target = (L->rew[i3] + L->v[(h + 1) * S + s_next]
                     + L->cb * sqrt(L->h3iota / (double)t));
    L->q[i3] = (1.0 - alpha) * L->q[i3] + alpha * target;
    double best = row_max(L, i2);
    double ceiling = (double)(H - h);
    L->v[i2] = best > ceiling ? ceiling : best;
    L->q_updates += 1;
}

/* The learner's observe; returns 0, or the visit count above n_max
 * (stored first, as UcbAdvantageLearner.observe stores it before raising). */
static int64_t observe(Learner *L, int64_t h, int64_t s, int64_t a,
                       int64_t s_next)
{
    if (L->mode == MODE_ORACLE)     /* plays pi* and never learns */
        return 0;
    if (L->mode == MODE_CLASSIC_QUCB) {
        observe_qucb(L, h, s, a, s_next);
        return 0;
    }
    int64_t S = L->S;
    int64_t i2 = h * S + s;
    int64_t i3 = i2 * L->A + a;
    int64_t vi = (h + 1) * S + s_next;
    double v_next = L->v[vi];
    double vref_next = L->vref[vi];
    double d = v_next - vref_next;

    int64_t n = L->n[i3] + 1;
    L->n[i3] = n;
    if (n > L->n_max)
        return n;
    L->nchk[i3] += 1;
    L->mu_chk[i3] += d;
    L->ups_chk[i3] += v_next;
    L->sig_chk[i3] += d * d;
    L->mu_ref[i3] += vref_next;
    L->sig_ref[i3] += vref_next * vref_next;

    /* Visit counts only grow, and the Python path does not keep end_idx,
     * so the index catches up here; the last end is >= n_max >= n. */
    int64_t j = L->end_idx[i3];
    while (L->ends[j] < n)
        j++;
    L->end_idx[i3] = j;
    if (L->ends[j] == n)
        stage_update(L, i2, i3, j);

    int64_t ns = L->n_state[i2] + 1;
    L->n_state[i2] = ns;
    if ((double)ns >= L->n0 && !L->ref_fixed[i2]) {
        L->vref[i2] = L->v[i2];
        L->ref_fixed[i2] = 1;
        L->refs_fixed += 1;
    }
    return 0;
}

/* The audit of episode k (1-based), about to be played from state s1, against
 * V^pi of the policy it plays (the layers are current after each Q change). */
static void audit_regret(Learner *L, int64_t s1, int64_t k)
{
    double reg = L->vstar0[s1] - L->vpi[s1];
    L->reg = reg;
    L->cum_regret += reg;
    if (reg < -1e-9 && L->negative == 0)
        L->negative = k;
}

/* The audit after an episode that changed Q, which wrote Q and the greedy
 * table only along its path: OptimismTracker.update on the H cells, then
 * PolicyValueCache.values on the H rows (a row per layer, so the last one
 * that differs is the deepest). */
static void audit_change(Learner *L)
{
    int64_t S = L->S, A = L->A, H = L->H;
    int64_t differ = 0;
    for (int64_t h = 0; h < H; h++) {
        int64_t i2 = h * S + L->path_s[h];
        int64_t i3 = i2 * A + L->path_a[h];
        int8_t now = L->q[i3] < L->thr[i3];
        if (now != L->below[i3]) {
            L->below[i3] = now;
            L->optimism += now ? 1 : -1;
        }
        int64_t a = L->greedy[i2];
        if (a != L->last[i2]) {
            L->last[i2] = a;
            memcpy(L->p_pi + i2 * S, L->P + (i2 * A + a) * S, (size_t)S * sizeof(double));
            L->r_pi[i2] = L->mdp_rew[i2 * A + a];
            differ++;
            L->top = h;
        }
    }
    if (L->optimism > L->violations)
        L->violations = L->optimism;
    L->pending = differ;
}

/* NumPy's BLAS ddot (n, x, incx, y, incy), Learner.ddot's type */
typedef double (*Ddot)(int64_t, const double *, int64_t, const double *, int64_t);

/* x . y as NumPy's DOUBLE_dot forms it: 0.0 + ddot(...), which turns a -0.0
 * into 0.0 */
static double dot(Ddot ddot, int64_t n, const double *x, const double *y)
{
    double sum = 0.0;
    sum += ddot(n, x, 1, y, 1);
    return sum;
}

/* PolicyValueCache.evaluate(top) in place, and top = -1: V[h] for h = top
 * down to 0, each entry its row's dot, then + r_pi. */
static void audit_layers(Learner *L)
{
    int64_t S = L->S;
    for (int64_t h = L->top; h >= 0; h--) {
        double *v = L->vpi + h * S;
        for (int64_t s = 0; s < S; s++) {
            int64_t i2 = h * S + s;
            v[s] = dot(L->ddot, S, L->p_pi + i2 * S, v + S) + L->r_pi[i2];
        }
    }
    L->top = -1;
}

/* Play up to count episodes with initial states starts[0..), drawing one
 * uniform per step: the u_avail at u + u_index, then from pcg.
 * With the audit on, each episode is audited and its row written; with
 * ddot too, the call plays through Q changes.  With agents = M, starts[0]
 * is generated episode first; every episode played is consumed, and after
 * the Q-changing one at place j of its round the call writes its index to
 * changes and skips the round's other M - 1 - j (their uniforms count in
 * used; a skip may pass count); at each round start it stops once consumed
 * >= limit.  Otherwise the call stops after the first episode that changes
 * Q.  The switches of a policy change are added when the next episode
 * plays, so the row of the episode that changed Q does not count them.
 * Returns the episodes played or skipped, or -1 on an error (bad_n or
 * bad_index). */
int64_t stageq_stretch(Learner *L)
{
    int64_t S = L->S, A = L->A, H = L->H;
    const double *u = L->u + L->u_index;
    int64_t avail = L->u_avail;
    u128 state = (u128)L->pcg[1] << 64 | L->pcg[0];
    u128 inc = (u128)L->pcg[3] << 64 | L->pcg[2];
    const int64_t *starts = L->starts;
    int64_t count = L->count, M = L->agents;
    int64_t played = 0, used = 0;
    int64_t j = M ? L->first % M : 0;   /* the next episode's place in its round */
    int audit = L->vstar0 != NULL;
    int through = M || (audit && L->ddot != NULL);
    L->stage_ends = L->q_updates = L->refs_fixed = L->ref_wins = 0;
    L->bad_n = L->bad_index = 0;
    L->top = -1;
    L->n_changes = 0;
    while (played < count) {
        if (M && j == 0 && L->consumed >= L->limit)
            break;
        int64_t u0 = L->q_updates;
        int64_t s = starts[played++];
        if (s < 0 || s >= S) {
            L->bad_index = 1;
            break;
        }
        L->switches += L->pending;
        L->pending = 0;
        if (audit)
            audit_regret(L, s, L->first + played);
        int64_t bad = 0;
        for (int64_t h = 0; h < H && !bad; h++) {
            int64_t i2 = h * S + s;
            int64_t a = L->greedy[i2];
            double x = used < avail ? u[used] : pcg64_double(&state, inc);
            used++;
            int64_t s_next = next_state(L->cum + (i2 * A + a) * S, S, x);
            L->path_s[h] = s;
            L->path_a[h] = a;
            L->path_next[h] = s_next;
            L->path_r[h] = L->mdp_rew[i2 * A + a];
            bad = observe(L, h, s, a, s_next);
            s = s_next;
        }
        if (bad) {
            L->bad_n = bad;
            break;
        }
        int changed = L->q_updates > u0;
        if (audit) {
            if (changed)
                audit_change(L);
            double *x = L->row_reals + 2 * (played - 1);
            int64_t *n = L->row_counts + 4 * (played - 1);
            x[0] = L->reg;
            x[1] = L->cum_regret;
            n[0] = L->switches;
            n[1] = L->q_updates;
            n[2] = L->violations;
            n[3] = L->refs_fixed;
            if (changed && L->ddot != NULL)
                audit_layers(L);
        }
        if (M) {
            L->consumed += 1;
            if (changed) {
                L->changes[L->n_changes++] = L->first + played - 1;
                played += M - 1 - j;
                int64_t to = used + (M - 1 - j) * H;
                for (int64_t i = used > avail ? used : avail; i < to; i++)
                    state = state * PCG64_MULT + inc;
                used = to;
                j = 0;
            } else if (++j == M)
                j = 0;
        }
        if (changed && !through)
            break;
    }
    L->used = used;
    L->pcg[0] = (uint64_t)state;
    L->pcg[1] = (uint64_t)(state >> 64);
    return L->bad_n || L->bad_index ? -1 : played;
}

/* EpisodicMdp.cum_array: each of P's rows of n summed in order into cum,
 * as np.cumsum sums it, then its last entry set to 1.0 */
void stageq_cum_rows(const double *P, double *cum, int64_t rows, int64_t n)
{
    for (int64_t i = 0; i < rows * n; i += n) {
        double x = P[i];
        cum[i] = x;
        for (int64_t j = 1; j < n; j++) {
            x += P[i + j];
            cum[i + j] = x;
        }
        cum[i + n - 1] = 1.0;
    }
}

/* mdp.backward_induction of a validated MDP: Q[h, s, a] = r[h, s, a] +
 * dot(P[h, s, a], V[h + 1]) for h = H - 1 down to 0, pi the lowest-index
 * argmax (np.argmax's where there is no NaN) and V its Q.  Q and V come
 * zeroed: row H stays 0. */
void stageq_solve(const double *P, const double *r, int64_t S, int64_t A, int64_t H,
                  Ddot ddot, double *Q, double *V, int64_t *pi)
{
    for (int64_t i2 = H * S - 1; i2 >= 0; i2--) {
        const double *next = V + (i2 / S + 1) * S;
        double *q = Q + i2 * A;
        int64_t best = 0;
        for (int64_t a = 0; a < A; a++) {
            q[a] = r[i2 * A + a] + dot(ddot, S, P + (i2 * A + a) * S, next);
            if (q[a] > q[best])
                best = a;
        }
        pi[i2] = best;
        V[i2] = q[best];
    }
}


/* The column kinds of stageq_format_rows (kernel.COL_*) */
enum { COL_INT, COL_FLOAT, COL_GRID, COL_EMPTY };

/* One column of a table: COL_INT and COL_FLOAT read data[row] (int64_t or
 * double); COL_GRID is the row's index along one axis of a C-ordered grid,
 * row / div % mod; COL_EMPTY writes an empty cell. */
typedef struct {
    int64_t kind;
    const void *data;
    int64_t div, mod;
} Column;

/* PyOS_double_to_string and PyMem_Free, as pystrtod.h and pymem.h declare them */
typedef char *(*DoubleToString)(double, char, int, int, int *);
typedef void (*MemFree)(void *);
#define DTSF_ADD_DOT_0 0x02     /* Py_DTSF_ADD_DOT_0: repr's "1.0", not "1" */

/* The room one cell may take: its comma and at most 24 characters, the
 * longest repr of a double ("-2.2250738585072014e-308") or 20 of an int64;
 * put_repr's longest is 23 ("-0.00012345678901234567"). */
#define CELL_MAX 32

static char *put_int(char *p, int64_t x)
{
    char digits[20];
    uint64_t m = x < 0 ? 0 - (uint64_t)x : (uint64_t)x;
    int n = 0;
    do {
        digits[n++] = (char)('0' + m % 10);
        m /= 10;
    } while (m);
    if (x < 0)
        *p++ = '-';
    while (n)
        *p++ = digits[--n];
    return p;
}

/* repr(x) for finite x with 1e-4 <= |x| < 2**53, where repr is in fixed
 * notation: the fewest digits that read back as x, of those the nearest to
 * x, ties to the even one (Steele & White, Gay; cf. Adams' Ryu), found in
 * exact integers.  At the scale 2^(e-2), |x| = m 2^e is 4m and the numbers
 * that round to it lie within 2 of it.  Two refinements of that interval
 * change no digit in this range, so they are left out.  Its ends are x's
 * when m is even, but at the scale 10^-k no end is a multiple of 10 (each
 * is 2^(k+e-1) times an odd multiple of 5^k, and k + e <= 1) and the
 * integer nearest |x| 10^k lies strictly inside.  Its gap below a power of
 * two is half as wide, but each power of two here is an exact decimal of
 * at most 16 digits, and every shorter decimal lies farther from it than
 * the wider gap; tests/test_metrics.py checks every one. */
static char *put_repr(char *p, double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    int e = (int)(bits >> 52 & 0x7ff) - 1075;            /* -66 <= e <= 0 */
    uint64_t m = (bits & ((UINT64_C(1) << 52) - 1)) | UINT64_C(1) << 52;
    /* k = 16 - floor((e + 52) log10 2), 1 <= k <= 21 (>> is arithmetic in
     * gcc and clang), puts |x| 10^k in [1e16, 2e17), under 2^64 after the
     * shift by s, with (4m + 2) 10^k < 2^55 10^21 < 2^125 */
    int k = 16 - ((e + 52) * 78913 >> 18), s = 2 - e, t = 0;
    unsigned __int128 pk = 1, mask = ((unsigned __int128)1 << s) - 1;
    for (int j = 0; j < k; j++)
        pk *= 10;
    unsigned __int128 v = (unsigned __int128)(4 * m) * pk, lo = v - 2 * pk;
    /* the integers [l, u] read back as x at the scale 10^-k; find the
     * largest t for which a multiple of 10^t lies among them */
    uint64_t l = (uint64_t)(lo >> s) + ((lo & mask) != 0),
             u = (uint64_t)((v + 2 * pk) >> s), pt = 1;
    while (u / 10 >= (l + 9) / 10) {
        u /= 10;
        l = (l + 9) / 10;
        pt *= 10;
        t++;
    }
    /* round |x| 10^(k-t) = c + (rem + frac / 2^s) / pt to the nearest, ties
     * to even, comparing (rem, frac) with its half, (pt / 2, (pt & 1) 2^(s-1));
     * an interval centred on x that holds an integer holds the nearest, so
     * c lies in [l, u] */
    uint64_t c = (uint64_t)(v >> s) / pt, rem = (uint64_t)(v >> s) % pt;
    unsigned __int128 frac = v & mask, half = (unsigned __int128)(pt & 1) << (s - 1);
    int cmp = rem != pt / 2 ? (rem > pt / 2) - (rem < pt / 2) : (frac > half) - (frac < half);
    c += cmp > 0 || (cmp == 0 && c & 1);
    /* |x|'s digits are c's (no trailing zero), times 10^point */
    int point = t - k;
    if (x < 0)
        *p++ = '-';
    char *end = put_int(p, (int64_t)c);
    int n = (int)(end - p), lead = -(n + point);
    if (lead >= 0) {                    /* 0.000ddd */
        memmove(p + 2 + lead, p, n);
        memcpy(p, "0.", 2);
        memset(p + 2, '0', lead);
        return end + 2 + lead;
    }
    if (point < 0) {                    /* dd.ddd */
        memmove(end + point + 1, end + point, -point);
        end[point] = '.';
        return end + 1;
    }
    memset(end, '0', point);            /* ddd000.0 */
    memcpy(end + point, ".0", 2);
    return end + point + 2;
}

/* Write rows *row, *row + 1, ... (below rows) of the ncols columns into out,
 * comma-separated, each ending in a newline, while cap leaves room for one
 * more row; set *row past the last one written and return the bytes
 * written, or -1 when to_string fails (its exception is set).  out's cap
 * must hold one row, ncols * CELL_MAX + 1 bytes. */
int64_t stageq_format_rows(DoubleToString to_string, MemFree mem_free,
                           const Column *cols, int64_t ncols, int64_t *row,
                           int64_t rows, char *out, int64_t cap)
{
    char *p = out;
    int64_t i = *row;
    for (; i < rows && cap - (p - out) > ncols * CELL_MAX; i++) {
        for (int64_t c = 0; c < ncols; c++) {
            const Column *col = cols + c;
            if (c)
                *p++ = ',';
            if (col->kind == COL_INT) {
                p = put_int(p, ((const int64_t *)col->data)[i]);
            } else if (col->kind == COL_GRID) {
                p = put_int(p, i / col->div % col->mod);
            } else if (col->kind == COL_FLOAT) {
                double x = ((const double *)col->data)[i];
                if (fabs(x) >= 1e-4 && fabs(x) < 0x1p53) {
                    p = put_repr(p, x);
                    continue;
                }
                char *s = to_string(x, 'r', 0, DTSF_ADD_DOT_0, NULL);
                if (s == NULL) {
                    *row = i;
                    return -1;
                }
                size_t n = strlen(s);
                memcpy(p, s, n);
                p += n;
                mem_free(s);
            }
        }
        *p++ = '\n';
    }
    *row = i;
    return p - out;
}
