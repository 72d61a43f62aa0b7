/* Compiled episode loop of the tabular learners (advantage,
 * hoeffding-stage, classic-qucb).
 *
 * stageq_stretch plays whole episodes on the learner's own tables.  It
 * repeats the learner's Python observe operation for operation
 * (UcbAdvantageLearner.observe and _stage_update, or
 * ClassicQUcbLearner.observe, as the struct's mode says): the same
 * uniforms in the same order, bisect_right over the same cumulative rows,
 * the same double expressions evaluated left to right, max(0.0, x) and
 * safe_ratio with Python's semantics, and the per-stage constants computed
 * in Python.  Built with -O2 -ffp-contract=off and never -ffast-math (see
 * kernel.py), every +, -, *, / and sqrt rounds as Python's does, so the
 * tables come out bit for bit equal to the Python path's.
 *
 * The learner is described by one Learner struct whose layout kernel.py
 * mirrors: every field is 8 bytes wide.  stageq_stretch takes that
 * struct alone, so that a call from Python converts one argument; the
 * inputs that change from call to call go through its io array.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

/* Which observe the kernel repeats (Learner.mode) */
enum { MODE_HOEFFDING_STAGE, MODE_ADVANTAGE, MODE_CLASSIC_QUCB };

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
    const double *u;        /* the stream's block of uniforms */
    const int64_t *starts;  /* the initial states of the episodes to play */
    const int8_t *halt;     /* S halt flags */
    int64_t *io;            /* IO_LEN slots, below */
} Learner;

/* Slots of the io array: the per-call inputs, set before each call, and
 * the outputs the stretch fills. */
enum {
    IN_U,                   /* index in u of the first unread uniform */
    IN_COUNT,               /* episodes to play at most */
    IN_HALT,                /* 1 to stop at a start state with its halt flag */
    OUT_STAGE_ENDS,         /* counter increments over the whole call */
    OUT_Q_UPDATES,
    OUT_REFS_FIXED,
    OUT_REF_WINS,
    OUT_USED,               /* uniforms consumed */
    OUT_BAD_N,              /* visit count above n_max, or 0 */
    OUT_BAD_INDEX,          /* 1 if a state or action was out of range */
    IO_LEN
};

/* sizeof(Learner), which kernel.py checks against its own layout */
int64_t stageq_learner_size(void)
{
    return (int64_t)sizeof(Learner);
}

static double safe_ratio(double num, int64_t den)
{
    return den > 0 ? num / (double)den : 0.0;
}

static double clip0(double x)     /* max(0.0, x): x only when x > 0.0 */
{
    return x > 0.0 ? x : 0.0;
}

/* bisect.bisect_right, the same probes in the same order */
static int64_t bisect_right(const double *row, int64_t len, double x)
{
    int64_t lo = 0, hi = len;
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (x < row[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
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
static void stage_update(const Learner *L, int64_t i2, int64_t i3, int64_t j,
                         int64_t *io)
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

    io[OUT_STAGE_ENDS] += 1;
    if (cand < L->q[i3]) {
        L->q[i3] = cand;
        L->v[i2] = row_max(L, i2);
        io[OUT_Q_UPDATES] += 1;
        io[OUT_REF_WINS] += ref_won;
    }

    L->nchk[i3] = 0;
    L->mu_chk[i3] = 0.0;
    L->ups_chk[i3] = 0.0;
    L->sig_chk[i3] = 0.0;
}

/* ClassicQUcbLearner.observe: one incremental update, counted as a Q
 * update whatever it wrote; no n_max check */
static void observe_qucb(const Learner *L, int64_t h, int64_t s, int64_t a,
                         int64_t s_next, int64_t *io)
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
    io[OUT_Q_UPDATES] += 1;
}

/* The learner's observe; returns 0, or the visit count above n_max
 * (stored first, as UcbAdvantageLearner.observe stores it before raising). */
static int64_t observe(const Learner *L, int64_t h, int64_t s, int64_t a,
                       int64_t s_next, int64_t *io)
{
    if (L->mode == MODE_CLASSIC_QUCB) {
        observe_qucb(L, h, s, a, s_next, io);
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
        stage_update(L, i2, i3, j, io);

    int64_t ns = L->n_state[i2] + 1;
    L->n_state[i2] = ns;
    if ((double)ns >= L->n0 && !L->ref_fixed[i2]) {
        L->vref[i2] = L->v[i2];
        L->ref_fixed[i2] = 1;
        io[OUT_REFS_FIXED] += 1;
    }
    return 0;
}

static void clear_outputs(int64_t *io)
{
    for (int i = OUT_STAGE_ENDS; i < IO_LEN; i++)
        io[i] = 0;
}

/* Play up to io[IN_COUNT] episodes with initial states starts[0..), drawing
 * one uniform per step from u + io[IN_U] (IN_COUNT*H of them must be
 * readable), and stop after the first episode that changes Q or, with
 * io[IN_HALT] set, whose initial state s has halt[s] set.  Returns the
 * number of episodes played, or -1 when it stopped on an error (OUT_BAD_N
 * or OUT_BAD_INDEX). */
int64_t stageq_stretch(const Learner *L)
{
    int64_t S = L->S, A = L->A, H = L->H;
    int64_t *io = L->io;
    const double *u = L->u + io[IN_U];
    const int64_t *starts = L->starts;
    int64_t count = io[IN_COUNT];
    const int8_t *halt = io[IN_HALT] ? L->halt : NULL;
    int64_t played = 0, used = 0;
    clear_outputs(io);
    while (played < count) {
        int64_t u0 = io[OUT_Q_UPDATES];
        int64_t s = starts[played++];
        if (s < 0 || s >= S) {
            io[OUT_BAD_INDEX] = 1;
            break;
        }
        int64_t bad = 0;
        for (int64_t h = 0; h < H && !bad; h++) {
            int64_t i2 = h * S + s;
            int64_t a = L->greedy[i2];
            int64_t s_next = bisect_right(L->cum + (i2 * A + a) * S, S, u[used++]);
            L->path_s[h] = s;
            L->path_a[h] = a;
            L->path_next[h] = s_next;
            L->path_r[h] = L->mdp_rew[i2 * A + a];
            bad = observe(L, h, s, a, s_next, io);
            s = s_next;
        }
        if (bad) {
            io[OUT_BAD_N] = bad;
            break;
        }
        if (io[OUT_Q_UPDATES] > u0 || (halt != NULL && halt[starts[played - 1]]))
            break;
    }
    io[OUT_USED] = used;
    return io[OUT_BAD_N] || io[OUT_BAD_INDEX] ? -1 : played;
}
