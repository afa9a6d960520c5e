"""The compiled tree recursion (`tree_feed`), standard-CV folds
(`standard_feed`) and per-point feed (`feed_rows`) of the exact
`Pegasos`, `LsqSgd` and `OnlineKMeans` types, the Fisher-Yates shuffle
that both schedulers draw their randomized orders with (`rng.shuffled`),
the uniforms of a large `SplitMix64Stream.normal_array` (`uniforms`),
and the sparse-text scanner of `dataio.parse_sparse_text`.

`_kernels.c` feeds models of these types point by point, bit for bit as
their `_update_point` does, runs whole subtrees of the tree's recursion
and groups of standard-CV folds for them, scoring each chunk under the
built-in losses as `math.fsum` sums, shuffles a vector as
`SplitMix64Stream.shuffle` does, draws uniforms as
`SplitMix64Stream.uniform_array` does, and parses the strict part of the
sparse-text grammar, converting a number of at most 19 significant
digits and a decimal exponent within 19 exactly in 128-bit integers and
any other with strtod, both rounding as float() does; its header says
how.  This module builds and loads it with the standard library alone:

* it compiles the source once with the system C compiler, `cc`, at
  `FLAGS`, into a per-user cache (`$XDG_CACHE_HOME/treecv`, else
  `~/.cache/treecv`), under a name keyed by the source, the flags and
  the BLAS library that holds numpy's ddot.  The file is written under
  a temporary name and renamed into place, so concurrent processes and
  forked workers never load a partial one.  `FLAGS` build at -O3, which
  vectorizes the elementwise loops, with -ffp-contract=off and no
  fast-math, so the compiler fuses no multiply-add and reorders no sum,
  and the kernels keep every bit the checks below compare.  Under GCC
  on x86-64 the linear learners' row loop is built for AVX2 as well, and
  the dynamic loader picks that clone where the CPU has AVX2; the checks
  below run whichever clone it picked;
* it hands the kernels `scipy_cblas_ddot64_`, the BLAS ddot that
  `ndarray.dot` calls, resolved from numpy's own extension module;
* it feeds a pinned probe of the linear learners through both
  `feed_rows` and `_update_point`, shuffles pinned ranges through both
  `shuffle` and `SplitMix64Stream.shuffle`, draws from pinned states
  through both `uniforms` and `SplitMix64Stream.uniform_array`, and keeps
  the kernels only if every bit agrees;
* when k-means first asks for its feed (`Kernels.kmeans`), it checks
  that the kernel's distances sum as this numpy's `np.einsum("ij,ij->i")`
  does, a property of the numpy build, and feeds a second probe through
  `feed_rows`.  A mismatch there leaves `OnlineKMeans` in Python and
  keeps the other kernels.  Where those distances are also the bits of
  the QUANTIZATION loss, `np.einsum("...i,...i->...")`, the kernels
  score that loss (`Kernels.quantization`).  A process that never
  trains k-means never runs this check;
* when a scheduler first asks for `tree_feed` and `standard_feed`
  (`Kernels.tree`), it checks that `exact_sum`, the kernels' chunk sum,
  gives math.fsum's bits on `_SUM_PROBES` and refuses what fsum refuses.
  It runs a pinned tree and the folds of standard CV on the same
  chunks, for each learner and ordering, through them, and compares
  each fold's predictions with `predict_many` of a model fed that
  fold's order in Python (`tree_feed_orders`, or `_train_rows` shuffled
  by `_shuffled_order` without the kernels), bit for bit, which checks
  that the kernels' linear predictions sum as this numpy's
  `np.einsum("ij,j->i")` does.  At every other width the same calls
  score a built-in loss, in turn each one the kernels score for the
  learner, and the scores must be `core.chunk_scores`' of those
  predictions.  A mismatch there leaves both out: the tree runs the
  recursion and standard CV its Python loop;
* when the parser first asks for its kernel (`Kernels.parser`), it
  parses `_PARSER_PROBES`, strings that a conversion which is not
  correctly rounded gets wrong, on the exact path and on strtod's, and
  compares each double with float()'s.
  A mismatch there leaves `parse_sparse` out, and text parses in Python.

`kernels()` does the rest at most once per process, on first use, and
gives None when any step fails: no compiler, no ddot symbol, an
unwritable cache, a failed compile or a mismatch.  The learners then
keep their Python path, the tree runs the recursion, standard CV its
Python loop, every shuffle runs the Python loop of
`SplitMix64Stream.shuffle`, normals draw their uniforms with numpy, text
parses in Python, and `reason()` says why.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import os
import struct
from importlib import resources

import numpy as np

SOURCE = "_kernels.c"
FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
DDOT = "scipy_cblas_ddot64_"


class _Unavailable(Exception):
    """Why the kernels cannot be used in this process."""


# Every function `_kernels.c` exports, with its argument and result
# types; `Kernels` binds each under its own name.
_INT, _FLOAT, _ARRAY = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
_FUNCTIONS = {
    "set_ddot": ([_ARRAY], None),
    "feed_rows": ([_INT] * 3 + [_FLOAT, _INT] + [_ARRAY] * 5, ctypes.c_int),
    "kmeans_distances": ([_INT] * 2 + [_ARRAY] * 3, None),
    "shuffle": ([_ARRAY, _INT, ctypes.c_uint64], None),
    "uniforms": ([ctypes.c_uint64, _INT, _ARRAY], None),
    "tree_feed": ([_INT] * 3 + [_ARRAY, _INT] + [_ARRAY] * 2 + [_INT, ctypes.c_uint64, _FLOAT,
                  _INT] + [_ARRAY] * 3 + [_INT] + [_ARRAY] * 2, ctypes.c_int),
    "standard_feed": ([_INT] * 4 + [_ARRAY, _INT] + [_ARRAY] * 2 + [_INT, ctypes.c_uint64,
                      _FLOAT, _INT] + [_ARRAY] * 3 + [_INT] + [_ARRAY] * 2, ctypes.c_int),
    "exact_sum": ([_ARRAY, _INT, _ARRAY], ctypes.c_int),
    "parse_sparse": ([ctypes.c_char_p] + [_INT] * 4 + [_ARRAY] * 5, _INT),
}


class Kernels:
    """The loaded kernels, every array passed as a pointer to its
    C-contiguous data (see `_kernels.c`):

    * `feed_rows`, called as (kind, n, d, parameter, k, three state
      arrays, x, y) through `learners._Feed.feed_rows`, which checks the
      arrays; for k-means (y NULL) once `kmeans()` has checked it;
    * `kmeans_distances`, called as (k, d, centers, x, out): the squared
      distances `feed_rows` computes for k-means, for that check;
    * `tree_feed`, called as (kind, s, e, bounds, d, x, y, randomized,
      shuffle_seed, parameter, k, three state arrays, loss, out, counts)
      through `learners._Feed.run_subtree`, once `tree()` has checked it;
    * `standard_feed`, called as (kind, first, last, chunks, bounds, d, x,
      y, randomized, fold_seed, parameter, k, three state arrays, loss,
      out, counts) through `learners._Feed.run_folds`, once `tree()` has
      checked it;
    * `exact_sum`, called as (values, n, out): the `math.fsum` that
      `tree_feed` and `standard_feed` score a chunk's losses by, for the
      check of `tree()`;
    * `shuffle`, called as (values, n, seed) through `rng.shuffled`,
      which checks the vector;
    * `uniforms`, called as (state, count, out) through
      `SplitMix64Stream.normal_array`, which allocates out;
    * `parse_sparse`, called as (text, size, expected_dim, row_cap,
      entry_cap, counts, labels, cols, vals, out) through
      `dataio.parse_compiled`, which sizes the arrays, once `parser()`
      has checked it.

    `kmeans()`, `tree()` and `parser()` each run their self-check on
    their first call (`_CHECKS`); `reasons` maps each check run to why it
    failed, or None.  `quantization` says whether `kmeans()` found that
    the kernel's squared distances are the bits of the QUANTIZATION
    loss, which `tree_feed` and `standard_feed` then score k-means by.
    """

    def __init__(self, lib: ctypes.CDLL, ddot: int):
        for name, (argtypes, restype) in _FUNCTIONS.items():
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = argtypes, restype
            setattr(self, name, fn)
        self.set_ddot(ddot)
        self.lib = lib  # the functions are valid while the library is loaded
        self.reasons: dict[str, str | None] = {}
        self.quantization = False

    def _checked(self, check: str):
        """The kernel `_CHECKS[check]` gates if it passes its self-check,
        else None.  The first call runs the check."""
        kernel, probe, falls_back = _CHECKS[check]
        if check not in self.reasons:
            # marked first: the k-means probe feeds its models through `kmeans()`
            self.reasons[check] = None
            mismatch = probe(self)
            if mismatch is not None:
                self.reasons[check] = f"{falls_back}: {mismatch}"
        return None if self.reasons[check] else getattr(self, kernel)

    # `feed_rows` for `OnlineKMeans` (`_probe_kmeans`), `tree_feed`, which
    # also gates `standard_feed` (`_probe_tree`), and `parse_sparse`
    # (`_probe_parser`), each if it passes its self-check, else None
    kmeans = functools.partialmethod(_checked, "kmeans")
    tree = functools.partialmethod(_checked, "tree")
    parser = functools.partialmethod(_checked, "parser")


def _numpy_ddot() -> tuple[int, str]:
    """The address of the ddot `ndarray.dot` calls, and the path of the
    library that defines it."""
    from numpy._core import _multiarray_umath

    umath = _multiarray_umath.__file__
    try:
        address = ctypes.cast(getattr(ctypes.CDLL(umath), DDOT), ctypes.c_void_p).value
    except (AttributeError, OSError):
        raise _Unavailable(f"numpy's {os.path.basename(umath)} has no {DDOT}") from None

    class DlInfo(ctypes.Structure):
        _fields_ = [("fname", ctypes.c_char_p), ("fbase", ctypes.c_void_p),
                    ("sname", ctypes.c_char_p), ("saddr", ctypes.c_void_p)]

    info = DlInfo()
    try:
        found = ctypes.CDLL(None).dladdr(ctypes.c_void_p(address), ctypes.byref(info))
    except (AttributeError, OSError, TypeError):  # no dladdr: key the cache by numpy's module
        found = 0
    return address, os.fsdecode(info.fname) if found and info.fname else umath


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "treecv")


def _build(source: bytes, blas: str) -> str:
    """The path of the compiled source, compiling it if the cache lacks it."""
    # imported here, so that a process that never builds the kernels loads none of them
    import hashlib
    import shutil
    import subprocess
    import tempfile

    key = hashlib.sha256(b"\0".join([source, " ".join(FLAGS).encode(), os.fsencode(blas)]))
    path = os.path.join(_cache_dir(), f"kernels-{key.hexdigest()[:16]}.so")
    if os.path.exists(path):
        return path
    cc = shutil.which("cc")
    if cc is None:
        raise _Unavailable("no C compiler: `cc` is not on PATH")
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, partial = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
        os.close(fd)
    except OSError as err:
        raise _Unavailable(f"kernel cache {os.path.dirname(path)} is not writable: {err}") from None
    try:
        done = subprocess.run([cc, *FLAGS, "-o", partial, "-x", "c", "-", "-lm"], input=source,
                              capture_output=True, timeout=300)
        if done.returncode:
            raise _Unavailable(f"{cc} failed: {done.stderr.decode(errors='replace').strip()}")
        os.replace(partial, path)
    except (OSError, subprocess.SubprocessError) as err:
        raise _Unavailable(f"cannot compile {SOURCE} with {cc}: {err}") from None
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return path


# A seed whose first SplitMix64 draw is 2**64 - 1 (the finalizer inverted
# step by step): randbelow(40) rejects that draw and draws again.
_REJECTED_SEED = 0x31628AF67B2131AB

# (state, count) of the uniforms probe: no draw, one, an odd count, a
# state that wraps 2**64, and one whose first draw is 0 (2**64 - GAMMA),
# whose first uniform is 0.0
_UNIFORM_PROBES = ((5, 0), (6, 1), (7, 37), (2**64 - 1, 4), (0x61C8864680B583EB, 3))


def _probe(kernels: Kernels) -> str | None:
    """Why the kernels fail their self-check on a pinned probe, or None.

    The linear kernels feed one model per call, through both the kernels
    and `_update_point`, at widths 0, 1, 2 and 20: runs of 3, 0, 7 and 5
    rows into a fresh model, a trained one, a t = 0 restart from a
    nonzero iterate and one with a -0.0 iterate, with `LsqSgd`
    projections.  `shuffle` shuffles ranges of length 0, 1, 2, 3 and 40,
    one call each, one of them seeded so that its first draw is rejected,
    which `SplitMix64Stream.shuffle` must shuffle alike.  `uniforms` draws
    `_UNIFORM_PROBES`, which `SplitMix64Stream.uniform_array` must draw
    alike.  No draw here goes through `normal_array`, which would resolve
    the kernels that this check is resolving."""
    from .core import IncrementalLearner
    from .learners import COMPILED, LsqSgd, Pegasos
    from .rng import SplitMix64Stream

    counts = (3, 0, 7, 5)
    rows = sum(counts)
    for d in (0, 1, 2, 20):
        x = np.sin(np.arange(rows * d) * 0.7 + 0.3).reshape(rows, d) * 4.0
        y = np.where(np.arange(rows) % 3, 1.0, -1.0)
        for proto in (Pegasos(d, 0.05), LsqSgd(d, 0.3)):
            trained = proto.fresh()
            IncrementalLearner.update(trained, x[:4], y[:4])
            restart, signed = trained.clone(), trained.clone()
            restart.t = 0
            if d:
                (signed.v if type(proto) is Pegasos else signed.w)[0] = -0.0
            feed = COMPILED[type(proto)]
            first = 0
            for i, model in enumerate([proto.fresh(), trained, restart, signed]):
                run = slice(first, first + counts[i])
                first = run.stop
                state, fed = feed(model), proto.fresh()
                if not state.feed_rows(kernels, x[run], y[run]):
                    return (f"self-check against _update_point failed: {type(proto).__name__} "
                            f"at d={d} raised a floating-point flag")
                IncrementalLearner.update(model, x[run], y[run])
                state.store(fed)
                for name in feed.fields:
                    if (np.asarray(getattr(fed, name)).tobytes()
                            != np.asarray(getattr(model, name)).tobytes()):
                        return (f"self-check against _update_point failed: "
                                f"{type(proto).__name__}.{name} of model {i} differs at d={d}")

    start = 0
    for length, seed in zip((0, 1, 2, 3, 40), (5, 6, 7, 8, _REJECTED_SEED)):
        values = np.arange(start, start + length, dtype=np.int64)
        expected = values.tolist()
        start += length
        kernels.shuffle(values.ctypes.data, length, seed)
        SplitMix64Stream(seed).shuffle(expected)
        if values.tolist() != expected:
            return (f"self-check against SplitMix64Stream.shuffle failed: the compiled shuffle "
                    f"gives another order of a range of {length} with seed {seed:#x}")

    for state, count in _UNIFORM_PROBES:
        drawn = np.empty(count)
        kernels.uniforms(state, count, drawn.ctypes.data)
        if drawn.tobytes() != SplitMix64Stream(state).uniform_array(count).tobytes():
            return (f"self-check against SplitMix64Stream.uniform_array failed: the compiled "
                    f"uniforms draw other doubles from state {state:#x}, count {count}")
    return None


def _einsum_rows(diffs: np.ndarray) -> np.ndarray:
    """What `OnlineKMeans._nearest` sums: each row of `diffs` dotted with
    itself by np.einsum, the reference of the k-means probe."""
    return np.einsum("ij,ij->i", diffs, diffs)


def _probe_kmeans(kernels: Kernels) -> str | None:
    """Where `kmeans_distances` and np.einsum, or `feed_rows` and
    `_update_point`, disagree on a pinned k-means probe, or None.

    The distances are taken from rows whose elements span 16 orders of
    magnitude, so that summing them in any other order changes the last
    bits, at widths on both sides of einsum's 8-element blocks and
    2-element pairs.  The models are fed runs from a grid of halves,
    which repeats points and ties distances, at widths 0 to 20, from a
    fresh model, a partly seeded one and a trained one; one run seeds a
    duplicate, a -0.0, a tie that the lower index wins and a NaN.  Where
    the QUANTIZATION loss of those rows, np.einsum("...i,...i->..."), has
    the bits of the distances too, it sets `Kernels.quantization`.
    """
    from .core import QUANTIZATION
    from .learners import KMeansFeed, OnlineKMeans

    quantization = True
    for d in (0, 1, 2, 3, 7, 8, 9, 10, 17, 20):
        i = np.arange(6 * d)
        centers = (np.sin(i * 1.3 + 0.2) * 10.0 ** (i * 7 % 17 - 8)).reshape(6, d)
        x = np.cos(np.arange(d) * 0.9) * 10.0 ** (np.arange(d) % 5 - 2)
        distances = np.empty(6)
        kernels.kmeans_distances(6, d, centers.ctypes.data, x.ctypes.data, distances.ctypes.data)
        if distances.tobytes() != _einsum_rows(centers - x).tobytes():
            return f"its squared distances at d={d} are not np.einsum's"
        quantization &= QUANTIZATION.batch(centers, x, None).tobytes() == distances.tobytes()
    kernels.quantization = quantization

    mixed = np.array([[2.0, 0.0], [2.0, 0.0], [0.0, 0.0], [1.0, 0.0], [-0.0, 0.0],
                      [3.0, 1.0], [np.nan, 0.0], [0.0, 1.0]])
    runs = [(OnlineKMeans(2, 2), 0, mixed), (OnlineKMeans(2, 3), 1, mixed)]
    for d, k in ((0, 2), (1, 3), (2, 1), (3, 4), (9, 5), (20, 3)):
        grid = np.round(np.sin(np.arange(40 * d) * 2.1) * 4.0).reshape(40, d) * 0.5
        runs += [(OnlineKMeans(d, k), first, grid) for first in (0, 1, 25)]
    for model, first, x in runs:
        for row in x[:first]:
            model._update_point(row, None)
        fed = model.clone()
        for row in x[first:]:
            model._update_point(row, None)
        if not KMeansFeed.feed_model(kernels, fed, np.ascontiguousarray(x[first:]), None):
            return f"it raised a floating-point flag at d={model.dim}"
        for name in ("centers", "counts", "n_centers"):
            if (np.asarray(getattr(fed, name)).tobytes()
                    != np.asarray(getattr(model, name)).tobytes()):
                return f"OnlineKMeans.{name} differs at d={model.dim}, K={model.n_clusters}"
    return None


# Losses whose math.fsum a sum that is not exactly rounded gets wrong:
# cancellation down to a term 200 orders of magnitude below the others, a
# tie that a partial below it breaks, subnormals that cancel normal
# numbers, the largest double cancelled, ten equal terms whose float sum
# drifts, and no terms or a -0.0, which sum to +0.0; then sums that fsum
# refuses or makes infinite: an intermediate overflow, an inf and a NaN.
_SUM_PROBES = (
    (1e100, 1.0, -1e100, 1e-100), (1e-16, 1.0, 1e16),
    (5e-324, 5e-324, 2.2250738585072009e-308, -2.2250738585072014e-308),
    (1.7976931348623157e308, 1.0, -1.7976931348623157e308), (0.1,) * 10, (), (-0.0,),
    (1e308, 1e308, -1e308), (math.inf, 1.0), (math.nan,),
)


def _fsum(values) -> float | None:
    """The reference sum of the sum probe: math.fsum, or None where it
    raises or gives an inf or a NaN."""
    try:
        total = math.fsum(values)
    except (OverflowError, ValueError):
        return None
    return total if math.isfinite(total) else None


def _probe_tree(kernels: Kernels) -> str | None:
    """Where `tree_feed` and the oracle replay of the tree's feeding
    orders, or `standard_feed` and standard CV's Python loop, disagree on
    a pinned probe, or `exact_sum` and math.fsum on `_SUM_PROBES`, or
    None.

    Each learner (k-means only if `kmeans()` passed) runs a tree of six
    ragged chunks, and their six folds of standard CV in two calls, in
    both orderings, at widths on both sides of einsum's 8-element blocks
    and 2-element pairs, on rows whose elements span 16 orders of
    magnitude, so that a prediction summed in any other order than
    `predict_many`'s changes its last bits.  Each fold's reference is
    `predict_many` of a model fed by the Python update: for the tree its
    `tree_feed_orders` order, for standard CV its `_train_rows`, shuffled
    by `_shuffled_order` without the kernels when randomized.  At every
    other width of each ordering, the same calls run again under one of
    the losses the kernels score for the learner (`learners._Feed.code`),
    each in turn, and their scores must be `core.chunk_scores` of the
    reference predictions.
    """
    from .core import IncrementalLearner, Partition, check_partition, chunk_scores
    from .learners import COMPILED, LsqSgd, OnlineKMeans, Pegasos
    from .rng import derive_seed
    from .standard import TAG_FOLD_SHUFFLE, _shuffled_order, _train_rows
    from .tree import TAG_NODE_SHUFFLE, tree_feed_orders

    out = np.empty(1)
    for values in _SUM_PROBES:
        array = np.array(values, dtype=np.float64)
        refused = kernels.exact_sum(array.ctypes.data, len(array), out.ctypes.data)
        expected = _fsum(values)
        if (expected is None) != bool(refused) or (
                expected is not None and out.tobytes() != struct.pack("d", expected)):
            return f"exact_sum of {values} is not math.fsum's"

    part = Partition((0, 2, 3, 7, 8, 12, 13))
    bounds = check_partition(part)
    seeds = {"fixed": None, "randomized": 11}
    orders = {}  # each fold's feeding order, by kernel and ordering
    for ordering, seed in seeds.items():
        orders["tree_feed", ordering] = tree_feed_orders(part, ordering, 11)
        orders["standard_feed", ordering] = [
            _train_rows(part, fold) if seed is None else _shuffled_order(None, part, seed, fold)
            for fold in range(part.k)]
    # the chunks of each call, with the tag of its seed
    heads = {"tree_feed": ([(0, part.k - 1)], TAG_NODE_SHUFFLE),
             "standard_feed": ([(0, 1, part.k), (2, part.k - 1, part.k)], TAG_FOLD_SHUFFLE)}
    for width, d in enumerate((0, 1, 2, 3, 7, 8, 9, 17, 33)):
        i = np.arange(part.n * d)
        x = (np.sin(i * 1.3 + 0.2) * 10.0 ** (i * 7 % 17 - 8)).reshape(part.n, d)
        y = np.where(np.arange(part.n) % 3, 1.0, -1.0)
        protos = [Pegasos(d, 0.05), LsqSgd(d, 0.3)]
        if kernels.kmeans() is not None:
            protos.append(OnlineKMeans(d, 3))
        for proto, (kernel, ordering) in itertools.product(protos, orders):
            name, state = type(proto).__name__, COMPILED[type(proto)](proto)
            calls, tag = heads[kernel]
            seed = seeds[ordering] and derive_seed(seeds[ordering], tag)
            expected = []
            for fold, order in enumerate(orders[kernel, ordering]):
                model = proto.fresh()
                IncrementalLearner.update(model, x[order], y[order])
                expected.append(model.predict_many(x[part.chunk_slice(fold)]))
            predicted = np.concatenate(expected)
            runs = [(None, 0)]  # the predictions
            scored = [(loss, code) for loss, code in state.losses if state.code(kernels, loss)]
            turn = width + (ordering == "randomized")
            if scored and turn % 2 == 0:  # and at every other width, a scored loss in turn
                runs.append(scored[turn // 2 % len(scored)])
            for loss, code in runs:
                for head in calls:
                    ran = state.call(getattr(kernels, kernel), code, head, bounds, x, y, seed)
                    if ran is None:
                        return f"{kernel} failed on {name} at d={d}"
                    rows = slice(bounds[head[0]], bounds[head[1] + 1])
                    if loss is None:
                        if ran[0].tobytes() != predicted[rows].tobytes():
                            return f"{kernel}'s {name} predictions at d={d} are not predict_many's"
                    elif ran[0].tobytes() != np.array(chunk_scores(
                            loss, predicted[rows], x[rows], y[rows], bounds, *head[:2])).tobytes():
                        return (f"{kernel}'s {name} {loss.name} scores at d={d} are not "
                                f"chunk_scores'")
    return None


# Decimal strings that a conversion which is not correctly rounded gets
# wrong: 2**53 + 1, a tie that rounds to even, and strings just above and
# below it; 1e23 and its neighbours, near a halfway point; the smallest
# subnormal and the strings either side of half of it; the step from
# subnormal to normal (2.2250738585072011e-308); DBL_MAX and a string
# that rounds down to it; signed zeros, the grammar's short forms and
# underflow to zero; and values of 17 to 38 significant digits.  Then
# the edges of `_kernels.c`'s exact path (at most 19 significant digits,
# |q| <= 19): ties at 2**52 + 0.5 and + 1.5, which round down and up to
# even, and at 2**53 + 3; 19 digits at q = 19 and -19, and 20 digits and
# q = 20 and -20, which go to strtod; and a 17-digit value just above a
# tie whose quotient in 128 bits is the tie itself, so that only the
# division's remainder rounds it up (found by an exact-integer search);
# and 2**64 in 20 digits, which wraps a 64-bit significand to 0.
_PARSER_PROBES = (
    "9007199254740993", "9007199254740993.0000000001", "9007199254740992.9999999999",
    "1e23", "9.999999999999999e22", "1.0000000000000001e23", "8.5", "2.5e-1", "0.1",
    "4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
    "5e-324", "2.2250738585072011e-308", "2.2250738585072012e-308",
    "2.2250738585072014e-308", "1.7976931348623157e308", "1.7976931348623158e+308",
    "-0", "-0.0", "+0e-5", ".5", "1.", "-1.e2", "1E+05", "1e-400", "-1e-400",
    "0.30000000000000004", "1.0000000000000002", "-4.3749999999999996e-5",
    "1234567890123456789012345", "0.1000000000000000055511151231257827",
    "7.2057594037927933e16", "3.4028234663852885981170418348451692544e38",
    "4503599627370496.5", "4503599627370497.5", "9007199254740995",
    "9876543210987654321e19", "-0.9876543210987654321", "1234567890123456789e-19",
    "12345678901234567891", "98765432109876543215e-20", "1e20", "7e-20",
    "0.0044971322986972922", "18446744073709551616", "1.8446744073709551616e19",
)


def _float(text: str) -> float:
    """The reference conversion of the parser probe: Python's float()."""
    return float(text)


def _probe_parser(kernels: Kernels) -> str | None:
    """Where `parse_sparse` and float() disagree on `_PARSER_PROBES`, each
    parsed as a label and as a feature value, or None."""
    from .dataio import parse_compiled

    text = "".join(f"{value} 1:{value}\n" for value in _PARSER_PROBES)
    parsed = parse_compiled(kernels.parse_sparse, text, None)
    if parsed is None:
        return "it handed back a line of its probe"
    labels, _, _, values, _ = parsed
    for value, label, entry in zip(_PARSER_PROBES, labels.tolist(), values.tolist()):
        expected = struct.pack("<d", _float(value))
        if struct.pack("<d", label) != expected or struct.pack("<d", entry) != expected:
            return (f"parse_sparse (its exact conversion, else strtod) and float() convert "
                    f"{value!r} to different doubles")
    return None


def _load() -> Kernels:
    try:
        source = (resources.files(__package__) / SOURCE).read_bytes()
    except OSError as err:
        raise _Unavailable(f"cannot read {SOURCE}: {err}") from None
    ddot, blas = _numpy_ddot()
    path = _build(source, blas)
    try:
        return Kernels(ctypes.CDLL(path), ddot)
    except (OSError, AttributeError) as err:
        raise _Unavailable(f"cannot load {path}: {err}") from None


def _resolve() -> tuple[Kernels | None, str | None]:
    """The checked kernels and None, or None and why they cannot be used."""
    try:
        loaded = _load()
    except _Unavailable as err:
        return None, str(err)
    mismatch = _probe(loaded)
    if mismatch is not None:
        return None, mismatch
    return loaded, None


# The lazy self-checks of `Kernels`: for each, the kernel it gates, its
# probe, and what runs instead when the probe fails.
_CHECKS = {
    "kmeans": ("feed_rows", _probe_kmeans,
               "feed_rows failed its k-means self-check, so OnlineKMeans runs in Python"),
    "tree": ("tree_feed", _probe_tree,
             "tree_feed and standard_feed failed their self-check, so the tree runs the "
             "recursion and standard CV its Python loop"),
    "parser": ("parse_sparse", _probe_parser,
               "parse_sparse failed its self-check, so sparse text parses in Python"),
}

_resolved: tuple[Kernels | None, str | None] | None = None


def kernels() -> Kernels | None:
    """The compiled kernels, or None when this process cannot use them.
    The first call builds, loads and checks them; later calls reuse the
    outcome."""
    global _resolved
    if _resolved is None:
        _resolved = _resolve()
    return _resolved[0]


def reason() -> str | None:
    """Why `kernels()` gives None, or why its `kmeans()`, `tree()` or
    `parser()` gave None, or None when every kernel asked for is loaded."""
    loaded = kernels()
    if loaded is None:
        return _resolved[1]
    return "; ".join(filter(None, map(loaded.reasons.get, _CHECKS))) or None
