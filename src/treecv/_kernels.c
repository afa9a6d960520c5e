/* Per-point update kernels for the exact `Pegasos` and `LsqSgd` types.

   Each kernel feeds m models, stored as rows of stacked state arrays.
   Model i is fed its own run of counts[i] consecutive rows of x and y,
   the runs laid out one after another.  Every step is the learner's
   `_update_point`, with the same operations in the same order, so every
   model gets the bits the Python update gives it:

   - every dot product is `ndarray.dot` of two contiguous vectors: the
     BLAS ddot that numpy calls, through the pointer `set_ddot` stores,
     added to +0.0, except that one element is a plain multiply and no
     elements give +0.0;
   - vector steps are elementwise, as numpy's ufuncs compute them;
   - the file is compiled with -ffp-contract=off and without fast-math,
     because a fused multiply-add or a reassociated sum changes bits.

   numpy warns on, or under np.errstate raises for, an overflow, an
   invalid operation, a division by zero or an underflow in those dot
   products and vector steps, and Python raises on a scalar division by
   zero.  So a kernel clears the floating-point flags, tests them at the
   end, and returns nonzero if any of the four was raised, leaving the
   caller to discard the models' state and feed them through Python
   instead.  The caller's own flags are restored either way.  */

#include <fenv.h>
#include <math.h>
#include <stdint.h>

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
