/* The compiled tree recursion (`tree_feed`), the compiled folds of
   standard CV (`standard_feed`), the feed (`feed_rows`) of the exact
   `Pegasos`, `LsqSgd` and `OnlineKMeans` types, the shuffle of every
   randomized estimate, and the sparse-text scanner of
   `dataio.parse_sparse_text`.

   `feed_rows` feeds one model of any of the three types every row of x,
   by the one row loop, `feed_each`, that `tree_feed` and `standard_feed`
   feed their models with too.  Every step is the learner's
   `_update_point`, with the same operations in the same order, so the
   model gets the bits the Python update gives it:

   - every dot product is `ndarray.dot` of two contiguous vectors: the
     BLAS ddot that numpy calls, through the pointer `set_ddot` stores,
     added to +0.0, except that one element is a plain multiply and no
     elements give +0.0;
   - a k-means distance is a row of `np.einsum("ij,ij->i", D, D)` for
     D = centers - x, and a linear prediction a row of
     `np.einsum("ij,j->i", X, w)`.  numpy's einsum sums a row of d
     products in two lanes, lane 0 taking the even and lane 1 the odd
     elements: blocks of 8 elements, each adding its last pair to the
     lanes first, then its earlier pairs from last to first; then the
     remaining pairs in order, an odd last element paired with +0.0;
     then lane 0 plus lane 1, and that sum added to +0.0.  That is how an
     x86-64 numpy built for its SSE baseline, with no einsum dispatched
     at run time, reduces; the loader feeds k-means models here only if
     their distances match np.einsum's bit for bit on this numpy, and
     keeps `tree_feed` and `standard_feed` only if their predictions
     match `predict_many`'s;
   - a nearest center is numpy's `argmin`: the lowest index of the least
     distance, or of the first NaN;
   - vector steps are elementwise, as numpy's ufuncs compute them;
   - the file is compiled at -O3 with -ffp-contract=off and without
     fast-math, because a fused multiply-add or a reassociated sum
     changes bits.  -O3 vectorizes the elementwise loops, whose lanes
     round each element as the scalar code does, and reorders no sum.
     Under GCC on x86-64 ELF the Pegasos and LsqSgd row loop,
     `feed_linear`, is also built for AVX2, whose wider lanes still
     round each element alone and fuse nothing, and the dynamic loader
     picks that clone or the baseline one per CPU (an ifunc); other
     compilers and architectures build the baseline loop alone.  On a
     2-vCPU Xeon VM the clone takes an LsqSgd update at d=20 from ~42 to
     ~30 ns, and a Pegasos one from ~31 to ~27.  k-means stays on the
     baseline: built for AVX2 its step ran slower.

   `tree_feed` runs subtree s..e of `tree._visit`'s recursion for one
   model of those types: depth first, in `_visit`'s order, each node
   keeping its incoming model for the right branch in a slot of its
   depth (a memcpy is the clone), feeding the left branch's model the
   right half and the right branch's the left half, and writing each
   leaf's `predict_many` of its chunk into one output array, or under a
   built-in loss its score.  A randomized node shuffles its fed rows as
   `tree._fed_rows` does, with the stream derive_seed(shuffle_seed,
   first, last), into a buffer at the range's own offset, and reads the
   rows of x by index; a fixed node reads them in place.

   `standard_feed` runs folds first..last of `standard.standard_cv` for
   one model of those types: each fold copies the fresh model into a
   slot, feeds it the rows of every other chunk, in dataset order or
   shuffled as `standard._shuffled_order` shuffles them, with the stream
   derive_seed(fold_seed, c), reading x by index, and writes its
   `predict_many` of its chunk into one output array, or its score.

   Under the ZERO_ONE, SQUARED or QUANTIZATION loss of `core`, both
   score each chunk in C, as `core.chunk_scores` scores its
   predictions: each row's loss with the bits of the loss's numpy
   function (for k-means the distance to the nearest center, which is
   np.einsum("...i,...i->...") of the row minus it where `Kernels.kmeans`
   found so), summed by `add` and `total`, CPython's math.fsum, and
   divided by the chunk's size.  The one correctly rounded sum has one
   set of bits, so the sums are fsum's.  A sum that meets an inf, a NaN
   or an overflow fails the call, as a raised flag does, and the caller
   scores the chunks from predictions in Python, which raises or
   reports what it always did.

   numpy warns on, or under np.errstate raises for, an overflow, an
   invalid operation, a division by zero or an underflow in those dot
   products and vector steps, and Python raises on a scalar division by
   zero.  So a kernel clears the floating-point flags, tests them at the
   end, and returns nonzero if any of the four was raised, leaving the
   caller to discard the models' state and feed them through Python
   instead.  (np.einsum raises no flag, so a k-means distance that
   overflows sends the rows to Python, which gives the same bits.)  The
   caller's own flags are restored either way.

   `shuffle` is integer code only: it is `SplitMix64Stream.shuffle`, so
   it gives the permutation that the Python loop gives.  It shuffles the
   rows the tree's Python recursion feeds a node and a standard-CV fold's
   training rows, one vector per call; `tree_feed` and `standard_feed`
   run the same loop on each range they feed.

   `parse_sparse` scans sparse text once.  A number of at most 19
   significant digits w, whose decimal exponent q (its exponent less its
   fraction's digits) has |q| <= 19, is w * 10**q computed exactly in
   128-bit integers and rounded once to 53 bits, as in Clinger's and
   Lemire's conversions; that takes in the `repr` of every double of
   magnitude in [1e-3, 1e20), and zero.  Any other number goes to strtod.
   Both are correctly rounded, as Python's float() is, so every decimal
   string the grammar admits becomes the double float() gives; the
   loader checks that on pinned hard cases of both before first use.  A
   compiler without 128-bit integers sends every number to strtod.  Any
   line outside the strict grammar, or in error, is handed back, and the
   caller parses the whole text in Python.  */

#include <fenv.h>
#include <float.h>
#include <math.h>
#include <stdlib.h>
#include <stdint.h>
#include <string.h>

typedef double (*ddot_fn)(int64_t n, const double *x, int64_t incx, const double *y,
                          int64_t incy);

static ddot_fn ddot;

#define RAISED (FE_OVERFLOW | FE_UNDERFLOW | FE_INVALID | FE_DIVBYZERO)
#define GAMMA 0x9E3779B97F4A7C15u

void set_ddot(ddot_fn fn)
{
    ddot = fn;
}

/* Keep the caller's floating-point flags and clear them. */
static void begin(fexcept_t *caller)
{
    fegetexceptflag(caller, FE_ALL_EXCEPT);
    feclearexcept(FE_ALL_EXCEPT);
}

/* Whether the kernel failed or raised a flag; restores the caller's. */
static int end(const fexcept_t *caller, int failed)
{
    int raised = fetestexcept(RAISED);
    fesetexceptflag(caller, FE_ALL_EXCEPT);
    return failed || raised != 0;
}

static double dot(int64_t n, const double *a, const double *b)
{
    if (n == 1)
        return a[0] * b[0];
    double sum = 0.0;
    if (n > 1)
        sum += ddot(n, a, 1, b, 1);
    return sum;
}

/* The squared distance from x to the center c: a row of np.einsum, summed
   as the header says. */
static double distance(int64_t d, const double *c, const double *x)
{
    double lane0 = 0.0, lane1 = 0.0, sq[8];
    int64_t k = 0;
    for (; k + 8 <= d; k += 8) {
        for (int i = 0; i < 8; i++) {
            double diff = c[k + i] - x[k + i];
            sq[i] = diff * diff;
        }
        for (int i = 6; i >= 0; i -= 2) {
            lane0 = sq[i] + lane0;
            lane1 = sq[i + 1] + lane1;
        }
    }
    for (; k < d; k += 2) {
        double diff0 = c[k] - x[k];
        double diff1 = k + 1 < d ? c[k + 1] - x[k + 1] : 0.0;
        lane0 = diff0 * diff0 + lane0;
        lane1 = diff1 * diff1 + lane1;
    }
    return 0.0 + (lane0 + lane1);
}

/* The dot product of x and w as a row of np.einsum("ij,j->i") sums it:
   `distance`'s order, with products in place of squares. */
static double einsum_dot(int64_t d, const double *x, const double *w)
{
    double lane0 = 0.0, lane1 = 0.0, p[8];
    int64_t k = 0;
    for (; k + 8 <= d; k += 8) {
        for (int i = 0; i < 8; i++)
            p[i] = x[k + i] * w[k + i];
        for (int i = 6; i >= 0; i -= 2) {
            lane0 = p[i] + lane0;
            lane1 = p[i + 1] + lane1;
        }
    }
    for (; k < d; k += 2) {
        lane0 = x[k] * w[k] + lane0;
        lane1 = (k + 1 < d ? x[k + 1] * w[k + 1] : 0.0) + lane1;
    }
    return 0.0 + (lane0 + lane1);
}

static inline void pegasos_step(int64_t d, double lam, double *a, double *v, int64_t *t,
                                const double *x, double y)
{
    double margin = y * (*a * dot(d, v, x));
    int64_t step = ++*t;
    if (step == 1) {
        for (int64_t k = 0; k < d; k++)
            v[k] = 0.0;
        *a = 1.0;
    } else {
        *a = *a * (1.0 - 1.0 / (double)step);
    }
    if (margin < 1.0) {
        double scale = y / (lam * (double)step * *a);
        for (int64_t k = 0; k < d; k++)
            v[k] += scale * x[k];
    }
}

/* rate is 2 * alpha. */
static inline void lsqsgd_step(int64_t d, double rate, double *w, double *w_avg,
                               int64_t *t, const double *x, double y)
{
    double scale = rate * (dot(d, w, x) - y);
    for (int64_t k = 0; k < d; k++)
        w[k] -= scale * x[k];
    double norm = sqrt(dot(d, w, w));
    if (norm > 1.0)
        for (int64_t k = 0; k < d; k++)
            w[k] /= norm;
    double step = (double)++*t;
    for (int64_t k = 0; k < d; k++)
        w_avg[k] += (w[k] - w_avg[k]) / step;
}

/* The nearest of the first `active` centers to x, and in *least its
   squared distance. */
static int64_t nearest(int64_t d, int64_t active, const double *centers, const double *x,
                       double *least)
{
    int64_t best = 0;
    *least = 0.0;
    for (int64_t j = 0; j < active; j++) {
        double dist = distance(d, centers + j * d, x);
        if (j == 0 || (!isnan(*least) && (isnan(dist) || dist < *least))) {
            best = j;
            *least = dist;
        }
    }
    return best;
}

/* One `OnlineKMeans` step on k centers, *active of them in use.  Returns
   nonzero, with the state spoiled, if a count would pass INT64_MAX,
   where numpy warns of an overflow, or if a NaN coordinate of a center
   meets a NaN step of other bits. */
static int kmeans_step(int64_t d, int64_t k, double *centers, int64_t *counts, int64_t *active,
                       const double *x)
{
    if (*active < k) {
        int existing = 0;
        for (int64_t j = 0; j < *active && !existing; j++) {
            const double *c = centers + j * d;
            existing = 1;
            for (int64_t m = 0; m < d && existing; m++)
                existing = c[m] == x[m];
        }
        if (!existing) {
            memcpy(centers + *active * d, x, (size_t)d * sizeof(double));
            counts[(*active)++] = 1;
            return 0;
        }
    }
    double least;
    int64_t best = nearest(d, *active, centers, x, &least);
    if (counts[best] == INT64_MAX)
        return 1;
    double count = (double)++counts[best];
    double *c = centers + best * d;
    for (int64_t m = 0; m < d; m++) {
        double step = (x[m] - c[m]) / count;
        if (isnan(c[m])) {
            /* The sum is the NaN of either operand when one is NaN.  When
               both are, which one numpy's `c += step` gives depends on how
               its loop ordered them. */
            if (!isnan(step) || memcmp(&step, c + m, sizeof step) == 0)
                continue;
            return 1;
        }
        c[m] += step;
    }
    return 0;
}

/* The learners `feed_rows`, `tree_feed` and `standard_feed` feed, and the
   three state arrays of each, in the order the caller passes them and a
   slot holds them: PEGASOS a (1), v (d), t (1, int64); LSQSGD w (d),
   w_avg (d), t (1, int64); KMEANS centers (k * d), counts (k, int64),
   centers in use (1, int64). */
enum { PEGASOS, LSQSGD, KMEANS };

/* Run `body` for each `row` that `order` lists, or for rows lo to
   lo + n - 1 when it is NULL: one loop for each, so no row tests it. */
#define EACH_ROW(body)                                    \
    do {                                                  \
        if (order)                                        \
            for (int64_t i = 0; i < n; i++) {             \
                int64_t row = order[i];                   \
                body;                                     \
            }                                             \
        else                                              \
            for (int64_t row = lo; row < lo + n; row++) { \
                body;                                     \
            }                                             \
    } while (0)

/* The AVX2 and baseline clones of `feed_linear` (see the header). */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && defined(__ELF__)
#define LINEAR_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define LINEAR_CLONES
#endif

/* The row loop of `feed_each` for a Pegasos or LsqSgd model: each has
   loops of its own, so no row tests `kind`. */
static LINEAR_CLONES void feed_linear(int64_t kind, int64_t d, double param, double *f0,
                                      double *f1, int64_t *f2, const double *x,
                                      const double *y, const int64_t *order, int64_t lo,
                                      int64_t n)
{
    if (kind == PEGASOS)
        EACH_ROW(pegasos_step(d, param, f0, f1, f2, x + row * d, y[row]));
    else
        EACH_ROW(lsqsgd_step(d, 2.0 * param, f0, f1, f2, x + row * d, y[row]));
}

/* The one row loop of every feed: feed a model of `kind`, its state f0,
   f1 and f2, the rows of x (d wide, labeled by y for the linear
   learners) that `order` lists, or rows lo to lo + n - 1.  param is lam
   or alpha, and k the k-means model's centers.  Nonzero as `kmeans_step`
   says.  Each learner has loops of its own, so no row tests `kind` or
   reads a label it does not take: GCC unswitches neither test from a
   loop of this size.  The steps are inline so that each stays within
   its loops, with no function call per row. */
static int feed_each(int64_t kind, int64_t d, double param, int64_t k, double *f0, void *f1,
                     int64_t *f2, const double *x, const double *y, const int64_t *order,
                     int64_t lo, int64_t n)
{
    if (kind != KMEANS)
        feed_linear(kind, d, param, f0, f1, f2, x, y, order, lo, n);
    else
        EACH_ROW(if (kmeans_step(d, k, f0, f1, f2, x + row * d)) return 1);
    return 0;
}

/* Feed one model of `kind` (see `feed_each`) the n rows of x, d wide and
   labeled by y for the linear learners (NULL for k-means); nonzero as
   `kmeans_step` says, or on a raised flag. */
int feed_rows(int64_t kind, int64_t n, int64_t d, double param, int64_t k, double *f0, void *f1,
              int64_t *f2, const double *x, const double *y)
{
    fexcept_t caller;
    begin(&caller);
    return end(&caller, feed_each(kind, d, param, k, f0, f1, f2, x, y, NULL, 0, n));
}

void kmeans_distances(int64_t k, int64_t d, const double *centers, const double *x,
                      double *out)
{
    for (int64_t j = 0; j < k; j++)
        out[j] = distance(d, centers + j * d, x);
}

/* The most partials `add` keeps.  Nonoverlapping partials each hold
   bits of their own among the 2,098 places of a double's bits, from
   2**-1074 to 2**1023, so no sum needs more; CPython's math.fsum starts
   with 32 and reallocates. */
#define PARTIALS 2098

/* A sum kept as exact partials, as CPython's math.fsum keeps it: each
   a double, nonoverlapping, in increasing magnitude. */
struct sum {
    int n;
    double p[PARTIALS];
};

/* Add x to s by the loop of math.fsum (Shewchuk's, as in CPython's
   `msum`).  Nonzero, with s spoiled, where x is not finite or the sum
   overflows, where fsum returns a non-finite sum or raises. */
static int add(struct sum *s, double x)
{
    int i = 0;
    for (int j = 0; j < s->n; j++) {
        double y = s->p[j];
        if (fabs(x) < fabs(y)) {
            double held = x;
            x = y;
            y = held;
        }
        double hi = x + y;
        double lo = y - (hi - x);
        if (lo != 0.0)
            s->p[i++] = lo;
        x = hi;
    }
    s->n = i;
    if (x != 0.0) {
        if (!isfinite(x) || i == PARTIALS)
            return 1;
        s->p[s->n++] = x;
    }
    return 0;
}

/* The sum of s rounded to the nearest double, ties to even, as
   math.fsum rounds it: there is one such double, so fsum of the same
   values gives its bits. */
static double total(const struct sum *s)
{
    int n = s->n;
    double hi = 0.0, lo = 0.0;
    if (n == 0)
        return hi;
    hi = s->p[--n];
    while (n > 0) {  /* add from the top while the sum stays exact */
        double x = hi, y = s->p[--n];
        hi = x + y;
        lo = y - (hi - x);
        if (lo != 0.0)
            break;
    }
    /* a tie between hi and its neighbour that the partials below break;
       fsum's hi + y overflows past DBL_MAX, and keeps hi, where this does
       not add it */
    if (n > 0 && ((lo < 0.0 && s->p[n - 1] < 0.0) || (lo > 0.0 && s->p[n - 1] > 0.0))
        && fabs(hi) < DBL_MAX) {
        double y = lo * 2.0, x = hi + y;
        if (y == x - hi)
            hi = x;
    }
    return hi;
}

/* The math.fsum of the n values into *out, for the self-check and the
   tests of `add` and `total`.  Nonzero where `add` is, or a flag was
   raised. */
int exact_sum(const double *values, int64_t n, double *out)
{
    fexcept_t caller;
    begin(&caller);
    struct sum sum;
    sum.n = 0;
    int failed = 0;
    for (int64_t i = 0; i < n && !failed; i++)
        failed = add(&sum, values[i]);
    *out = total(&sum);
    return end(&caller, failed);
}

/* The SplitMix64 finalizer, as `rng._mix`. */
static uint64_t mix(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9u;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBu;
    return z ^ (z >> 31);
}

/* Shuffle the n values of part by the Fisher-Yates loop of
   `SplitMix64Stream(state).shuffle`: from the last position i down to 1,
   swap i with j = randbelow(i + 1), where a draw u with u - u % bound >
   2**64 - bound is rejected and drawn again. */
static void fisher_yates(int64_t *part, int64_t n, uint64_t state)
{
    for (int64_t i = n - 1; i > 0; i--) {
        uint64_t bound = (uint64_t)i + 1, u, j;
        do {
            state += GAMMA;
            u = mix(state);
            j = u % bound;
        } while (u - j > 0 - bound);
        int64_t held = part[i];
        part[i] = part[j];
        part[j] = held;
    }
}

/* `fisher_yates`, exported for `rng.shuffled`.  The feeds call the static
   loop, which the compiler inlines there; a call to an exported function
   goes through the PLT, since another library may interpose it. */
void shuffle(int64_t *part, int64_t n, uint64_t state)
{
    fisher_yates(part, n, state);
}

/* The losses `tree_feed` and `standard_feed` score each chunk by, as
   `core`'s: NO_LOSS writes predictions instead.  The caller pairs
   ZERO_ONE and SQUARED with the linear learners and QUANTIZATION with
   k-means. */
enum { NO_LOSS, ZERO_ONE, SQUARED, QUANTIZATION };

/* What one `tree_feed` or `standard_feed` call reads, and what it adds
   up. */
struct tree {
    int64_t kind, loss, d, k;
    double param;  /* lam, alpha, or unused */
    const int64_t *bounds;
    const double *x, *y;
    int64_t randomized;
    uint64_t seed;  /* tree_feed's shuffle_seed, or standard_feed's fold_seed */
    size_t sizes[3];  /* the bytes of each state array */
    size_t slot;  /* the bytes of a model: their sum */
    char *slots;  /* tree_feed: one model per depth below the call's root;
                     standard_feed: the fresh model, then the fold's */
    int64_t base, first;  /* the first row and the first chunk predicted */
    int64_t *rows;  /* a randomized order: of a fed range, at its offset from base,
                       or of a fold's training rows */
    double *out;  /* the predictions, from row base on, or the scores, from chunk first on */
    int64_t updates, transfers;
    fexcept_t caller;  /* the caller's floating-point flags */
    struct sum sum;  /* a chunk's losses */
};

static void *field(const struct tree *t, char *slot, int i)
{
    for (int j = 0; j < i; j++)
        slot += t->sizes[j];
    return slot;
}

/* `feed_each` for the model in `slot`. */
static int feed_slot(struct tree *t, char *slot, const int64_t *order, int64_t lo, int64_t n)
{
    t->updates += n;
    return feed_each(t->kind, t->d, t->param, t->k, field(t, slot, 0), field(t, slot, 1),
                     field(t, slot, 2), t->x, t->y, order, lo, n);
}

/* Feed the model in `slot` the rows of chunks first..last, in the order
   of `tree._fed_rows`. */
static int feed(struct tree *t, char *slot, int64_t first, int64_t last)
{
    int64_t lo = t->bounds[first], n = t->bounds[last + 1] - lo;
    int64_t *order = NULL;
    if (t->randomized && n > 1) {
        /* derive_seed(shuffle_seed, first, last), inlined */
        uint64_t seed = mix((t->seed + GAMMA) ^ (uint64_t)first);
        order = t->rows + (lo - t->base);
        for (int64_t i = 0; i < n; i++)
            order[i] = lo + i;
        fisher_yates(order, n, mix((seed + GAMMA) ^ (uint64_t)last));
    }
    t->transfers += last - first + 1;
    return feed_slot(t, slot, order, lo, n);
}

/* Write the `predict_many` of the model in `slot` for every row of
   chunk c or, under a loss, the chunk's score: the `math.fsum` of its
   rows' losses over its size, each loss the bits of `core`'s numpy
   function.  A QUANTIZATION loss is the distance `nearest` takes, the
   einsum of the center minus the row.  Nonzero for a k-means model with
   no center, which `predict_many` refuses, or a sum `add` refuses. */
static int predict(struct tree *t, char *slot, int64_t c)
{
    int64_t d = t->d, lo = t->bounds[c], hi = t->bounds[c + 1];
    double *f0 = field(t, slot, 0), *f1 = field(t, slot, 1);
    int64_t *f2 = field(t, slot, 2);
    t->sum.n = 0;
    if (t->kind == KMEANS && *f2 == 0)
        return 1;
    for (int64_t row = lo; row < hi; row++) {
        const double *x = t->x + row * d;
        double p;
        if (t->kind == KMEANS) {
            int64_t best = nearest(d, *f2, f0, x, &p);
            if (t->loss == NO_LOSS) {
                memcpy(t->out + (row - t->base) * d, f0 + best * d, (size_t)d * sizeof(double));
                continue;
            }
        } else {
            /* v or w_avg, from +0.0, so copysign maps a zero to +1 */
            p = einsum_dot(d, x, f1);
            if (t->kind == PEGASOS)
                p = copysign(1.0, p);
            if (t->loss == NO_LOSS) {
                t->out[row - t->base] = p;
                continue;
            }
            if (t->loss == ZERO_ONE) {
                p = p != t->y[row];
            } else {
                double diff = p - t->y[row];
                p = diff * diff;
            }
        }
        if (add(&t->sum, p))
            return 1;
    }
    if (t->loss != NO_LOSS)
        t->out[c - t->first] = total(&t->sum) / (double)(hi - lo);
    return 0;
}

/* Node s..e of `tree._visit`, its model in `slot` at `depth` below the
   call's root: the right branch's model is kept in the slot of depth + 1,
   which no node of the left branch writes. */
static int node(struct tree *t, int64_t s, int64_t e, char *slot, int64_t depth)
{
    if (s == e)
        return predict(t, slot, s);
    int64_t m = s + (e - s) / 2;
    char *right = t->slots + (size_t)(depth + 1) * t->slot;
    memcpy(right, slot, t->slot);
    return feed(t, slot, m + 1, e) || node(t, s, m, slot, depth + 1)
           || feed(t, right, s, m) || node(t, m + 1, e, right, depth + 1);
}

/* Folds first..last of standard CV over the `chunks` chunks: each copies
   the fresh model of the first slot into the second, feeds it the rows
   of every other chunk, rows 0 to bounds[c] - 1 and then bounds[c + 1]
   to the last, as `standard._train_rows` lists them, in that order or,
   randomized, shuffled with the stream derive_seed(fold_seed, c), and
   predicts its chunk. */
static int folds(struct tree *t, int64_t first, int64_t last, int64_t chunks)
{
    int64_t n = t->bounds[chunks];
    char *model = t->slots + t->slot;
    for (int64_t c = first; c <= last; c++) {
        int64_t lo = t->bounds[c], hi = t->bounds[c + 1], fed = 0;
        memcpy(model, t->slots, t->slot);
        t->transfers += chunks - 1;
        if (t->randomized) {
            for (int64_t row = 0; row < lo; row++)
                t->rows[fed++] = row;
            for (int64_t row = hi; row < n; row++)
                t->rows[fed++] = row;
            fisher_yates(t->rows, fed, mix((t->seed + GAMMA) ^ (uint64_t)c));
        }
        int failed = t->randomized ? feed_slot(t, model, t->rows, 0, fed)
                                   : feed_slot(t, model, NULL, 0, lo)
                                         || feed_slot(t, model, NULL, hi, n - hi);
        if (failed || predict(t, model, c))
            return 1;
    }
    return 0;
}

/* Set up `t` for a model of `kind` (see the enum above) whose state is
   f0, f1 and f2: the caller's flags kept and cleared, the bytes of each
   array, `count` model slots, the first holding a copy of that state,
   and for a randomized run `rows` row indices.  Nonzero if an allocation
   failed. */
static int start(struct tree *t, size_t count, int64_t rows, const void *f0, const void *f1,
                 const void *f2)
{
    begin(&t->caller);
    size_t width = (size_t)t->d * sizeof(double), one = sizeof(int64_t), k = (size_t)t->k;
    t->sizes[0] = t->kind == PEGASOS ? sizeof(double) : (t->kind == KMEANS ? k : 1) * width;
    t->sizes[1] = t->kind == KMEANS ? k * one : width;
    t->sizes[2] = one;
    t->slot = t->sizes[0] + t->sizes[1] + t->sizes[2];
    t->slots = malloc(count * t->slot);
    if (t->randomized)
        t->rows = malloc((size_t)rows * sizeof(int64_t));
    if (t->slots == NULL || (t->randomized && t->rows == NULL))
        return 1;
    memcpy(t->slots, f0, t->sizes[0]);
    memcpy(field(t, t->slots, 1), f1, t->sizes[1]);
    memcpy(field(t, t->slots, 2), f2, t->sizes[2]);
    return 0;
}

/* Hand back the counts of `t`, free what `start` allocated, restore the
   caller's flags and return whether the run failed or raised a flag. */
static int finish(struct tree *t, int failed, int64_t *counts)
{
    counts[0] = t->updates;
    counts[1] = t->transfers;
    free(t->slots);
    free(t->rows);
    return end(&t->caller, failed);
}

/* Run subtree s..e of the chunks that bounds delimits for a model whose
   state is f0, f1 and f2 (see the enum above), which is only read; a
   Pegasos or LsqSgd model's parameter is param, a k-means model has k
   centers.  Rows of x are d wide, and y holds the linear learners'
   labels.  A randomized run shuffles with shuffle_seed =
   derive_seed(run seed, TAG_NODE_SHUFFLE).  With `loss` NO_LOSS, out
   receives the leaves' predictions for rows bounds[s] to bounds[e + 1] -
   1, one double per row (times d for k-means); under another loss (see
   its enum), the scores of chunks s to e, one double each.  counts
   receives the point updates and model transfers.  Returns nonzero,
   with out spoiled, on a raised flag, a failed k-means step, a k-means
   leaf with no center, a sum `add` refuses or a failed allocation. */
int tree_feed(int64_t kind, int64_t s, int64_t e, const int64_t *bounds, int64_t d,
              const double *x, const double *y, int64_t randomized, uint64_t shuffle_seed,
              double param, int64_t k, const void *f0, const void *f1, const void *f2,
              int64_t loss, double *out, int64_t *counts)
{
    struct tree t = {.kind = kind, .loss = loss, .d = d, .k = k, .param = param,
                     .bounds = bounds, .x = x, .y = y, .randomized = randomized,
                     .seed = shuffle_seed, .base = bounds[s], .first = s, .out = out};
    int64_t height = 0;
    while (((int64_t)1 << height) < e - s + 1)
        height++;
    int failed = start(&t, (size_t)height + 1, bounds[e + 1] - bounds[s], f0, f1, f2)
                 || node(&t, s, e, t.slots, 0);
    return finish(&t, failed, counts);
}

/* Run folds first..last of standard CV over the `chunks` chunks that
   bounds delimits, each from a fresh model whose state is f0, f1 and f2,
   which is only read; the other arguments are `tree_feed`'s.  A
   randomized run shuffles fold c's training rows with the stream
   derive_seed(fold_seed, c), where fold_seed = derive_seed(run seed,
   TAG_FOLD_SHUFFLE).  out receives each fold's predictions for its
   chunk, rows bounds[first] to bounds[last + 1] - 1, or under a loss the
   scores of folds first to last, and counts the point updates and model
   transfers.  Nonzero, with out spoiled, as `tree_feed` says. */
int standard_feed(int64_t kind, int64_t first, int64_t last, int64_t chunks,
                  const int64_t *bounds, int64_t d, const double *x, const double *y,
                  int64_t randomized, uint64_t fold_seed, double param, int64_t k,
                  const void *f0, const void *f1, const void *f2, int64_t loss, double *out,
                  int64_t *counts)
{
    struct tree t = {.kind = kind, .loss = loss, .d = d, .k = k, .param = param,
                     .bounds = bounds, .x = x, .y = y, .randomized = randomized,
                     .seed = fold_seed, .base = bounds[first], .first = first, .out = out};
    int failed = start(&t, 2, bounds[chunks], f0, f1, f2) || folds(&t, first, last, chunks);
    return finish(&t, failed, counts);
}

/* The longest number token `parse_sparse` converts; a longer one sends
   its line to Python.  `repr` of a double is at most 24 characters. */
#define NUMBER_MAX 64

/* The most significant digits, and the largest |q|, `exact` takes. */
#define EXACT_DIGITS 19

static int is_digit(char c)
{
    return c >= '0' && c <= '9';
}

static int is_blank(char c)
{
    return c == ' ' || c == '\t' || c == '\r';
}

/* Set *out to w * 10**q rounded once to the nearest double, ties to even,
   and return 1, when w > 0 has at most EXACT_DIGITS digits and |q| <=
   EXACT_DIGITS; else return 0, as always without 128-bit integers.  The
   value is m * 2**e plus a sticky part below m's last bit: for q >= 0, m
   is the 128-bit product w * 10**q and e = 0; for q < 0, m is w shifted
   to the top of 128 bits and divided by 10**-q, a quotient of at least 64
   bits whose nonzero remainder is the sticky part.  Rounding m to 53 bits
   sees every bit of the value, so the double is the correctly rounded
   one, as float()'s is.  The value lies in [1e-19, 1e38], so it is
   normal. */
static int exact(uint64_t w, int64_t digits, int64_t q, double *out)
{
#ifdef __SIZEOF_INT128__
    typedef unsigned __int128 u128;
    static const uint64_t POW10[EXACT_DIGITS + 1] = {
        1, 10, 100, 1000, 10000, 100000, 1000000, 10000000, 100000000, 1000000000, 10000000000,
        100000000000, 1000000000000, 10000000000000, 100000000000000, 1000000000000000,
        10000000000000000, 100000000000000000, 1000000000000000000, 10000000000000000000u};
    if (digits > EXACT_DIGITS || q < -EXACT_DIGITS || q > EXACT_DIGITS)
        return 0;
    u128 m = (u128)w * POW10[q > 0 ? q : 0];
    int e = 0, sticky = 0;
    if (q < 0) {
        e = -64 - __builtin_clzll(w);
        u128 n = m << -e;
        m = n / POW10[-q];
        sticky = m * POW10[-q] != n;
    }
    /* Shift m's top bit to bit 127: its top 53 bits are the mantissa, and
       the 75 below them, moved to the top of `rest`, decide the rounding. */
    uint64_t high = (uint64_t)(m >> 64);
    int z = high ? __builtin_clzll(high) : 64 + __builtin_clzll((uint64_t)m);
    m <<= z;
    uint64_t mantissa = (uint64_t)(m >> 75);
    u128 rest = m << 53, half = (u128)1 << 127;
    mantissa += rest > half || (rest == half && (sticky || (mantissa & 1)));
    /* mantissa * 2**(e - z + 75), mantissa in [2**52, 2**53]: its implicit
       bit adds one to the biased exponent, and a mantissa that rounded up
       to 2**53 carries into it. */
    uint64_t bits = ((uint64_t)(e - z + 75 + 1074) << 52) + mantissa;
    memcpy(out, &bits, sizeof bits);
    return 1;
#else
    (void)w, (void)digits, (void)q, (void)out;
    return 0;
#endif
}

/* Scan the digits at p, before stop, into the significand *w, which wraps
   past EXACT_DIGITS digits, and count in *count those from its first
   nonzero digit on (not those where *w is nonzero: a wrapped *w can be
   0); return where they end. */
static const char *scan_digits(const char *p, const char *stop, uint64_t *w, int64_t *count)
{
    for (; p < stop && is_digit(*p); p++) {
        *w = *w * 10 + (uint64_t)(*p - '0');
        *count += *count > 0 || *p != '0';
    }
    return p;
}

/* Convert the number token at *s, which must match
   [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)? up to a blank or `stop`.  Its
   significant digits w, and its decimal exponent q (the exponent less the
   fraction's digits), go to `exact`; zero is 0.0, and a token `exact`
   does not take goes to strtod, which must consume all of it and give a
   finite double.  On success advance *s past the token and return 1;
   else return 0. */
static int number(const char **s, const char *stop, double *out)
{
    const char *p = *s;
    int negative = p < stop && *p == '-';
    if (p < stop && (*p == '+' || *p == '-'))
        p++;
    const char *digits = p;
    uint64_t w = 0;
    int64_t count = 0, q = 0;
    p = scan_digits(p, stop, &w, &count);
    int whole = p > digits, fraction = 0;
    if (p < stop && *p == '.') {
        const char *first = ++p;
        p = scan_digits(p, stop, &w, &count);
        fraction = p > first;
        q = first - p;
    }
    if (!whole && !fraction)
        return 0;
    if (p < stop && (*p == 'e' || *p == 'E')) {
        p++;
        int minus = p < stop && *p == '-';
        if (p < stop && (*p == '+' || *p == '-'))
            p++;
        const char *exponent = p;
        int64_t magnitude = 0;
        for (; p < stop && is_digit(*p); p++)
            if (magnitude < 1000000)
                magnitude = magnitude * 10 + (*p - '0');
        if (p == exponent)
            return 0;
        q += minus ? -magnitude : magnitude;
    }
    if ((p < stop && !is_blank(*p)) || p - *s > NUMBER_MAX)
        return 0;
    double value = 0.0;
    if (count > 0 && !exact(w, count, q, &value)) {
        char *used;
        value = strtod(digits, &used);
        if (used != p || !isfinite(value))
            return 0;
    }
    *out = negative ? -value : value;
    *s = p;
    return 1;
}

/* Parse the sparse text of `dataio.parse_sparse_text` from the `size`
   bytes of `text`, which must be followed by a NUL byte (as the buffer
   of a Python bytes object is).  Each line with a token gives a row:
   its label goes to labels, its entry count to counts, and its entries'
   0-based columns and values to cols and vals.  out receives the row
   count, the entry count and the largest index.  Rows are at most the
   lines and entries at most the ':' bytes, which the caller sizes the
   arrays from (row_cap, entry_cap).

   The grammar is strict: lines split on '\n', '#' starts a comment,
   tokens split on ' ', '\t' and '\r', a number is as `number` takes it
   and an index is +?d+, at least 1, below 2**63, increasing along the
   line and at most expected_dim.  Every value is correctly rounded, by
   `exact` or strtod, as Python's float() is, so each matches float()
   bit for bit.  strtod follows LC_NUMERIC, but a locale whose radix is
   not '.' stops it short of the token's end, which hands the line back.
   Returns 0 when every line parsed, else the 1-based number of the
   first line it does not take, leaving the caller to parse the text in
   Python, which raises the error or takes what this grammar does not
   (other whitespace, '_' in digits, "inf", "0x1p3", ...). */
int64_t parse_sparse(const char *text, int64_t size, int64_t expected_dim, int64_t row_cap,
                     int64_t entry_cap, int64_t *counts, double *labels, int64_t *cols,
                     double *vals, int64_t *out)
{
    const char *p = text, *end = text + size;
    int64_t line = 0, rows = 0, entries = 0, largest = 0;
    while (p < end) {
        line++;
        const char *eol = memchr(p, '\n', (size_t)(end - p));
        if (eol == NULL)
            eol = end;
        const char *comment = memchr(p, '#', (size_t)(eol - p));
        const char *stop = comment ? comment : eol;
        while (p < stop && is_blank(*p))
            p++;
        if (p < stop) {
            if (rows == row_cap || !number(&p, stop, &labels[rows]))
                return line;
            int64_t first = entries, previous = 0;
            for (;;) {
                while (p < stop && is_blank(*p))
                    p++;
                if (p == stop)
                    break;
                if (*p == '+')
                    p++;
                const char *digits = p;
                int64_t index = 0;
                for (; p < stop && is_digit(*p); p++) {
                    int64_t digit = *p - '0';
                    if (index > (INT64_MAX - digit) / 10)
                        return line;
                    index = index * 10 + digit;
                }
                if (p == digits || p == stop || *p != ':' || index <= previous
                    || index > expected_dim || entries == entry_cap)
                    return line;
                p++;
                if (!number(&p, stop, &vals[entries]))
                    return line;
                cols[entries++] = index - 1;
                previous = index;
            }
            counts[rows++] = entries - first;
            if (previous > largest)
                largest = previous;
        }
        p = eol + 1;
    }
    out[0] = rows;
    out[1] = entries;
    out[2] = largest;
    return 0;
}
