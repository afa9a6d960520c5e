/* Per-point update kernels for the exact `Pegasos`, `LsqSgd` and
   `OnlineKMeans` types, the shuffle of every randomized estimate, and
   the sparse-text scanner of `dataio.parse_sparse_text`.

   The linear kernels feed m models, stored as rows of stacked state
   arrays.  Model i is fed its own run of counts[i] consecutive rows of x
   and y, the runs laid out one after another.  `kmeans_feed` feeds one
   model every row of x.  Every step is the learner's `_update_point`,
   with the same operations in the same order, so every model gets the
   bits the Python update gives it:

   - every dot product is `ndarray.dot` of two contiguous vectors: the
     BLAS ddot that numpy calls, through the pointer `set_ddot` stores,
     added to +0.0, except that one element is a plain multiply and no
     elements give +0.0;
   - a k-means distance is a row of `np.einsum("ij,ij->i", D, D)` for
     D = centers - x.  numpy's einsum sums a row of d products in two
     lanes, lane 0 taking the even and lane 1 the odd elements: blocks of
     8 elements, each adding its last pair to the lanes first, then its
     earlier pairs from last to first; then the remaining pairs in order,
     an odd last element paired with +0.0; then lane 0 plus lane 1, and
     that sum added to +0.0.  That is how an x86-64 numpy built for its
     SSE baseline, with no einsum dispatched at run time, reduces; the
     loader keeps `kmeans_feed` only if its distances match np.einsum's
     bit for bit on this numpy;
   - a nearest center is numpy's `argmin`: the lowest index of the least
     distance, or of the first NaN;
   - vector steps are elementwise, as numpy's ufuncs compute them;
   - the file is compiled with -ffp-contract=off and without fast-math,
     because a fused multiply-add or a reassociated sum changes bits.

   numpy warns on, or under np.errstate raises for, an overflow, an
   invalid operation, a division by zero or an underflow in those dot
   products and vector steps, and Python raises on a scalar division by
   zero.  So a kernel clears the floating-point flags, tests them at the
   end, and returns nonzero if any of the four was raised, leaving the
   caller to discard the models' state and feed them through Python
   instead.  (np.einsum raises no flag, so a k-means distance that
   overflows sends the rows to Python, which gives the same bits.)  The
   caller's own flags are restored either way.

   `shuffle_ranges` is integer code only: it is `SplitMix64Stream.shuffle`
   run on each range with its own seed, so it gives the permutation that
   the Python loop gives.  It shuffles the ranges of a level of the
   tree's level loop, and, one range per call, the rows the tree's
   recursion feeds a node and a standard-CV fold's training rows.

   `parse_sparse` scans sparse text once and converts each number with
   strtod.  strtod and Python's float() are both correctly rounded (as
   in Gay's and Clinger's conversions), so every decimal string the
   grammar admits becomes the double float() gives; the loader checks
   that on pinned hard cases before first use.  Any line outside its
   strict grammar, or in error, is handed back, and the caller parses
   the whole text in Python.  */

#include <fenv.h>
#include <math.h>
#include <stdlib.h>
#include <stdint.h>
#include <string.h>

typedef double (*ddot_fn)(int64_t n, const double *x, int64_t incx, const double *y,
                          int64_t incy);

static ddot_fn ddot;

#define RAISED (FE_OVERFLOW | FE_UNDERFLOW | FE_INVALID | FE_DIVBYZERO)

void set_ddot(ddot_fn fn)
{
    ddot = fn;
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

int pegasos_feed(int64_t m, int64_t d, double lam, double *a, double *v, int64_t *t,
                 const double *x, const double *y, const int64_t *counts)
{
    fexcept_t caller;
    fegetexceptflag(&caller, FE_ALL_EXCEPT);
    feclearexcept(FE_ALL_EXCEPT);
    for (int64_t i = 0; i < m; i++, v += d) {
        for (int64_t j = 0; j < counts[i]; j++, x += d, y++) {
            double margin = *y * (a[i] * dot(d, v, x));
            int64_t step = ++t[i];
            if (step == 1) {
                for (int64_t k = 0; k < d; k++)
                    v[k] = 0.0;
                a[i] = 1.0;
            } else {
                a[i] = a[i] * (1.0 - 1.0 / (double)step);
            }
            if (margin < 1.0) {
                double scale = *y / (lam * (double)step * a[i]);
                for (int64_t k = 0; k < d; k++)
                    v[k] += scale * x[k];
            }
        }
    }
    int raised = fetestexcept(RAISED);
    fesetexceptflag(&caller, FE_ALL_EXCEPT);
    return raised != 0;
}

int lsqsgd_feed(int64_t m, int64_t d, double alpha, double *w, double *w_avg, int64_t *t,
                const double *x, const double *y, const int64_t *counts)
{
    fexcept_t caller;
    fegetexceptflag(&caller, FE_ALL_EXCEPT);
    feclearexcept(FE_ALL_EXCEPT);
    double rate = 2.0 * alpha;
    for (int64_t i = 0; i < m; i++, w += d, w_avg += d) {
        for (int64_t j = 0; j < counts[i]; j++, x += d, y++) {
            double scale = rate * (dot(d, w, x) - *y);
            for (int64_t k = 0; k < d; k++)
                w[k] -= scale * x[k];
            double norm = sqrt(dot(d, w, w));
            if (norm > 1.0)
                for (int64_t k = 0; k < d; k++)
                    w[k] /= norm;
            double step = (double)++t[i];
            for (int64_t k = 0; k < d; k++)
                w_avg[k] += (w[k] - w_avg[k]) / step;
        }
    }
    int raised = fetestexcept(RAISED);
    fesetexceptflag(&caller, FE_ALL_EXCEPT);
    return raised != 0;
}

/* The squared distance from x to the center c, summed as np.einsum sums
   a row (see above). */
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

void kmeans_distances(int64_t k, int64_t d, const double *centers, const double *x,
                      double *out)
{
    for (int64_t j = 0; j < k; j++)
        out[j] = distance(d, centers + j * d, x);
}

/* Feed one `OnlineKMeans` model of k centers, *seeded of them in use,
   the n rows of x.  It also returns nonzero, with the state spoiled, if
   a count would pass INT64_MAX, where numpy warns of an overflow, or if
   a NaN coordinate of a center meets a NaN step of other bits. */
int kmeans_feed(int64_t n, int64_t d, int64_t k, double *centers, int64_t *counts,
                int64_t *seeded, const double *x)
{
    fexcept_t caller;
    fegetexceptflag(&caller, FE_ALL_EXCEPT);
    feclearexcept(FE_ALL_EXCEPT);
    int failed = 0;
    int64_t active = *seeded;
    for (int64_t i = 0; i < n; i++, x += d) {
        if (active < k) {
            int existing = 0;
            for (int64_t j = 0; j < active && !existing; j++) {
                const double *c = centers + j * d;
                existing = 1;
                for (int64_t m = 0; m < d && existing; m++)
                    existing = c[m] == x[m];
            }
            if (!existing) {
                memcpy(centers + active * d, x, (size_t)d * sizeof(double));
                counts[active++] = 1;
                continue;
            }
        }
        int64_t best = 0;
        double least = 0.0;
        for (int64_t j = 0; j < active; j++) {
            double dist = distance(d, centers + j * d, x);
            if (j == 0 || (!isnan(least) && (isnan(dist) || dist < least))) {
                best = j;
                least = dist;
            }
        }
        if (counts[best] == INT64_MAX) {
            failed = 1;
            break;
        }
        double count = (double)++counts[best];
        double *c = centers + best * d;
        for (int64_t m = 0; m < d; m++) {
            double step = (x[m] - c[m]) / count;
            if (isnan(c[m])) {
                /* The sum is the NaN of either operand when one is NaN.
                   When both are, which one numpy's `c += step` gives
                   depends on how its loop ordered them. */
                if (!isnan(step) || memcmp(&step, c + m, sizeof step) == 0)
                    continue;
                failed = 1;
                goto done;
            }
            c[m] += step;
        }
    }
done:
    *seeded = active;
    int raised = fetestexcept(RAISED);
    fesetexceptflag(&caller, FE_ALL_EXCEPT);
    return failed || raised != 0;
}

/* The SplitMix64 finalizer, as `rng._mix`. */
static uint64_t mix(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9u;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBu;
    return z ^ (z >> 31);
}

/* Shuffle values[starts[r]:stops[r]] in place for every r of m, each by
   the Fisher-Yates loop of `SplitMix64Stream(seeds[r]).shuffle`: from the
   last position i down to 1, swap i with j = randbelow(i + 1), where a
   draw u with u - u % bound > 2**64 - bound is rejected and drawn again.
   The ranges must not overlap. */
void shuffle_ranges(int64_t *values, int64_t m, const uint64_t *seeds, const int64_t *starts,
                    const int64_t *stops)
{
    for (int64_t r = 0; r < m; r++) {
        int64_t *part = values + starts[r];
        uint64_t state = seeds[r];
        for (int64_t i = stops[r] - starts[r] - 1; i > 0; i--) {
            uint64_t bound = (uint64_t)i + 1, u, j;
            do {
                state += 0x9E3779B97F4A7C15u;
                u = mix(state);
                j = u % bound;
            } while (u - j > 0 - bound);
            int64_t held = part[i];
            part[i] = part[j];
            part[j] = held;
        }
    }
}

/* The longest number token `parse_sparse` converts; a longer one sends
   its line to Python.  `repr` of a double is at most 24 characters. */
#define NUMBER_MAX 64

static int is_digit(char c)
{
    return c >= '0' && c <= '9';
}

static int is_blank(char c)
{
    return c == ' ' || c == '\t' || c == '\r';
}

/* Convert the number token at *s, which must match
   [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)? up to a blank or `stop`, with strtod, which must consume all of it and give a finite
   double.  On success advance *s past it and return 1; else return 0. */
static int number(const char **s, const char *stop, double *out)
{
    const char *start = *s, *p = start;
    if (p < stop && (*p == '+' || *p == '-'))
        p++;
    const char *digits = p;
    while (p < stop && is_digit(*p))
        p++;
    int whole = p > digits, fraction = 0;
    if (p < stop && *p == '.') {
        const char *first = ++p;
        while (p < stop && is_digit(*p))
            p++;
        fraction = p > first;
    }
    if (!whole && !fraction)
        return 0;
    if (p < stop && (*p == 'e' || *p == 'E')) {
        p++;
        if (p < stop && (*p == '+' || *p == '-'))
            p++;
        const char *exponent = p;
        while (p < stop && is_digit(*p))
            p++;
        if (p == exponent)
            return 0;
    }
    if ((p < stop && !is_blank(*p)) || p - start > NUMBER_MAX)
        return 0;
    char *used;
    double value = strtod(start, &used);
    if (used != p || !isfinite(value))
        return 0;
    *out = value;
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
   line and at most expected_dim.  Every value is strtod's, which is
   correctly rounded, as Python's float() is, so each matches float()
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
