"""The compiled per-point kernels: the loader and its reasons, and the
floating-point exceptions the kernels hand back to the Python update."""

import math
import platform
import re
import shutil
import struct
import sys
import time
import warnings

from importlib import resources

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from treecv import (
    QUANTIZATION,
    SQUARED,
    Dataset,
    IncrementalLearner,
    LsqSgd,
    MeanPredictor,
    OnlineKMeans,
    Pegasos,
    TreeCvConfig,
    UpdateFailedError,
    loocv,
    parse_sparse_text,
    partition,
    standard_cv,
    synth_blobs,
    synth_regression,
    tree_cv,
)
from treecv import _native
from treecv.rng import SplitMix64Stream
from treecv.learners import COMPILED, KMeansFeed, _update_compiled


def test_the_kernels_load_wherever_a_c_compiler_is_on_path(monkeypatch):
    """CI runs on x86-64 Linux, where numpy's einsum sums as `feed_rows`
    and `tree_feed` do and glibc's strtod rounds correctly: a silent fall
    back to the Python path of any learner, to the tree's Python
    recursion, or to the Python parser fails there, and a 1,000-line text
    parses in one `parse_sparse` call.  A numpy that sums in another order
    elsewhere leaves k-means in Python, with a reason that names its
    kernel."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    loaded = _native.kernels()
    assert loaded is not None, _native.reason()
    if sys.platform == "linux" and platform.machine() == "x86_64":
        assert loaded.kmeans() is not None, _native.reason()
        assert loaded.tree() is not None, _native.reason()
        assert loaded.parser() is not None, _native.reason()
        assert _native.reason() is None
        calls = []
        parse = loaded.parse_sparse
        monkeypatch.setattr(loaded, "parse_sparse", lambda *args: calls.append(1) or parse(*args))
        text = "".join(f"{i % 2 * 2 - 1} 1:{i * 0.25} 3:{-i}e-3\n" for i in range(1000))
        assert parse_sparse_text(text).n == 1000
        assert len(calls) == 1
    elif loaded.kmeans() is None:
        assert "k-means self-check" in _native.reason()
    else:
        assert _native.reason() is None


def test_the_kernels_export_exactly_the_functions_the_loader_binds():
    """Every top-level definition of `_kernels.c` that is not `static` is
    a function `Kernels` binds, and every function it binds is one: an
    export that nothing binds is dead code.  Read from the source, so no
    compiler is needed."""
    source = (resources.files("treecv") / _native.SOURCE).read_text(encoding="utf-8")
    code = re.sub(r"/\*.*?\*/", "", source, flags=re.S)
    definition = r"^(?!static\b|typedef\b)[A-Za-z_][\w \t*]*?\b(\w+)\("
    assert sorted(re.findall(definition, code, flags=re.M)) == sorted(_native._FUNCTIONS)


def test_an_unusable_kernel_leaves_the_python_path_with_a_reason(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setenv("PATH", str(tmp_path))  # no cc
    kernels, reason = _native._resolve()
    assert kernels is None and reason == "no C compiler: `cc` is not on PATH"

    monkeypatch.setattr(_native, "DDOT", "no_such_ddot")
    kernels, reason = _native._resolve()
    assert kernels is None and "has no no_such_ddot" in reason


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_the_cache_is_built_once_and_an_unwritable_one_is_a_reason(monkeypatch, tmp_path):
    cache = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    kernels, reason = _native._resolve()
    assert kernels is not None and reason is None
    [built] = (cache / "treecv").iterdir()  # no temporary file is left behind
    assert built.suffix == ".so"
    built_at = built.stat().st_mtime_ns
    assert _native._resolve()[1] is None and built.stat().st_mtime_ns == built_at

    blocked = tmp_path / "blocked"
    blocked.write_text("a file where the cache directory would go")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))
    kernels, reason = _native._resolve()
    assert kernels is None and "is not writable" in reason


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_a_kernel_that_disagrees_with_update_point_is_not_used(monkeypatch):
    rule = Pegasos._update_point

    def halved(self, x, y):
        rule(self, x * 0.5, y)

    monkeypatch.setattr(Pegasos, "_update_point", halved)
    kernels, reason = _native._resolve()
    assert kernels is None and reason.startswith("self-check against _update_point failed")


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_a_shuffle_kernel_that_disagrees_with_shuffle_is_not_used(monkeypatch):
    """The self-check shuffles ranges of 0, 1, 2, 3 and 40 values, the last
    with a rejected first draw, through both the compiled `shuffle` and
    `SplitMix64Stream.shuffle`; a reference that shuffles otherwise (here,
    one that never rejects a draw) makes the loader refuse the kernels,
    naming the compiled shuffle."""
    def never_rejects(stream, values):
        for i in range(len(values) - 1, 0, -1):
            j = stream.next_u64() % (i + 1)
            values[i], values[j] = values[j], values[i]

    kernels, reason = _native._resolve()
    assert kernels is not None and reason is None
    monkeypatch.setattr(SplitMix64Stream, "shuffle", never_rejects)
    kernels, reason = _native._resolve()
    assert kernels is None and "compiled shuffle" in reason
    assert "range of 40" in reason


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
@pytest.mark.parametrize("mutation", ["shift by 12", "count from i"])
def test_a_uniforms_kernel_that_disagrees_with_uniform_array_is_not_used(mutation, monkeypatch):
    """The self-check draws `_UNIFORM_PROBES` through both the compiled
    `uniforms` and `SplitMix64Stream.uniform_array`; a reference that
    draws otherwise (here, one that shifts each draw by 12 bits, not 11,
    or one whose counter starts a step early) makes the loader refuse the
    kernels, naming the compiled uniforms."""
    uniform_array = SplitMix64Stream.uniform_array

    def drawn(stream, count):
        if mutation == "count from i":
            return uniform_array(SplitMix64Stream(stream.state - 0x9E3779B97F4A7C15), count)
        return (stream.next_u64_array(count) >> np.uint64(12)).astype(np.float64) * 2.0**-53

    kernels, reason = _native._resolve()
    assert kernels is not None and reason is None
    monkeypatch.setattr(SplitMix64Stream, "uniform_array", drawn)
    kernels, reason = _native._resolve()
    assert kernels is None and "compiled uniforms" in reason
    assert "state 0x6, count 1" in reason  # the first probe that draws anything


def test_the_load_time_check_draws_no_normals(monkeypatch):
    """A large `normal_array` resolves the kernels, so the check that
    resolving them runs must draw no normals: it would resolve them again
    inside itself."""
    drawn = []
    monkeypatch.setattr(SplitMix64Stream, "normal_array",
                        lambda stream, count: drawn.append(_native._resolved))
    monkeypatch.setattr(_native, "_resolved", None)
    _native.kernels()
    assert drawn == []


def test_kernels_are_resolved_before_the_clock_only_for_learners_that_run_them(monkeypatch):
    """Fixed-order `MeanPredictor` runs never resolve the kernels.  An
    `OnlineKMeans` run resolves them and checks their k-means feed once per
    process, before its clock starts and before it forks, in either
    scheduler.  So does a randomized `MeanPredictor` run, which shuffles
    with them."""
    events = []
    perf_counter = time.perf_counter
    resolve = _native._resolve

    class Unchecked:  # stands in for the kernels: records its k-means check, gives no kernel
        kmeans_checked = False

        def kmeans(self):
            if not self.kmeans_checked:
                self.kmeans_checked = True
                events.append("check")

        def tree(self):
            return None

    monkeypatch.setattr(_native, "_resolve",
                        lambda: events.append("resolve") or (Unchecked(), None))
    monkeypatch.setattr(time, "perf_counter", lambda: events.append("clock") or perf_counter())
    data = synth_regression(60, 3, seed=1)
    blobs = synth_blobs(60, 3, 2, seed=1)
    part = partition(blobs, 6)
    runs = [
        lambda workers: tree_cv(lambda: OnlineKMeans(3, 2), blobs, part, QUANTIZATION,
                                TreeCvConfig(max_workers=workers)),
        lambda workers: standard_cv(lambda: OnlineKMeans(3, 2), blobs, part, QUANTIZATION,
                                    max_workers=workers),
    ]
    for run in runs:
        monkeypatch.setattr(_native, "_resolved", None)
        loocv(lambda: MeanPredictor(3), data, SQUARED)
        standard_cv(lambda: MeanPredictor(3), data, partition(data, 6), SQUARED, max_workers=2)
        assert "clock" in events and "resolve" not in events
        events.clear()
        for workers in (0, 2):
            run(workers)
        assert events.count("resolve") == events.count("check") == 1
        assert events.index("resolve") < events.index("check") < events.index("clock")
        events.clear()

    # the real kernels, or None without a compiler: either way, resolved once
    monkeypatch.setattr(_native, "_resolve", lambda: events.append("resolve") or resolve())
    randomized = [
        lambda workers: loocv(lambda: MeanPredictor(3), data, SQUARED,
                              TreeCvConfig(ordering="randomized", max_workers=workers)),
        lambda workers: standard_cv(lambda: MeanPredictor(3), data, partition(data, 6),
                                    SQUARED, "randomized", max_workers=workers),
    ]
    for run in randomized:
        monkeypatch.setattr(_native, "_resolved", None)
        events.clear()
        for workers in (0, 2):
            run(workers)
        assert events.count("resolve") == 1 and events.index("resolve") < events.index("clock")


def _other_order_rows(lanes):
    """Squared row sums in an order other than this numpy's einsum: left
    to right for one lane, else as an einsum built for `lanes`-wide
    vectors would sum, in blocks of 4 * lanes elements."""
    def rows(diffs):
        products = diffs * diffs
        if lanes == 1:
            total = np.zeros(len(diffs))
            for column in products.T:
                total = total + column
            return total
        sums = []
        for row in products:
            padded = np.concatenate([row, np.zeros(-len(row) % lanes)]).reshape(-1, lanes)
            acc = np.zeros(lanes)
            blocks = len(row) // (4 * lanes)
            for block in range(blocks):
                for step in (3, 2, 1, 0):
                    acc = padded[4 * block + step] + acc
            for vector in padded[4 * blocks:]:
                acc = vector + acc
            while len(acc) > 1:
                acc = acc[: len(acc) // 2] + acc[len(acc) // 2:]
            sums.append(0.0 + acc[0])
        return np.array(sums)
    return rows


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
@pytest.mark.parametrize("lanes", [1, 4])
def test_a_kmeans_kernel_that_sums_in_another_order_is_left_out_alone(lanes, monkeypatch):
    """A numpy whose einsum sums rows in another order than the kernel
    fails the k-means self-check: `OnlineKMeans` is left to Python, with a
    reason that names the check, and `Pegasos` and `LsqSgd` stay compiled."""
    monkeypatch.setattr(_native, "_einsum_rows", _other_order_rows(lanes))
    loaded, reason = _native._resolve()
    assert loaded is not None and reason is None
    monkeypatch.setattr(_native, "_resolved", (loaded, reason))
    assert _native.reason() is None  # k-means has not asked for its kernel yet
    assert loaded.kmeans() is None
    reason = _native.reason()
    assert "k-means self-check" in reason and "OnlineKMeans" in reason and "np.einsum" in reason

    x = np.sin(np.arange(60.0)).reshape(20, 3)
    y = np.where(np.arange(20) % 2, 1.0, -1.0)
    assert _update_compiled(Pegasos(3, 0.1), x, y) and _update_compiled(LsqSgd(3, 0.1), x, y)
    model, twin = OnlineKMeans(3, 2), OnlineKMeans(3, 2)
    assert not _update_compiled(model, x, None)
    model.update(x)
    IncrementalLearner.update(twin, x)
    assert model.centers.tobytes() == twin.centers.tobytes()


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
@pytest.mark.parametrize("learner", [Pegasos, LsqSgd])
def test_a_tree_feed_whose_predictions_disagree_is_left_out_alone(learner, monkeypatch):
    """A `predict_many` that differs from `tree_feed`'s in the last bit (as
    a numpy whose einsum sums in another order would) fails the tree's
    self-check: `tree_feed` is left out, with a reason that names it, the
    tree runs the recursion to the same report, and the learners' update
    kernels stay compiled."""
    predict_many = learner.predict_many
    monkeypatch.setattr(learner, "predict_many",
                        lambda self, x: np.nextafter(predict_many(self, x), np.inf))
    loaded, reason = _native._resolve()
    assert loaded is not None and reason is None
    monkeypatch.setattr(_native, "_resolved", (loaded, reason))
    assert _native.reason() is None  # no tree has run yet
    assert loaded.tree() is None
    reason = _native.reason()
    assert "tree_feed" in reason and learner.__name__ in reason and "predict_many" in reason
    monkeypatch.setattr(learner, "predict_many", predict_many)

    calls = []
    tree_feed = loaded.tree_feed
    monkeypatch.setattr(loaded, "tree_feed", lambda *args: calls.append(1) or tree_feed(*args))
    data = synth_regression(60, 3, seed=2)
    config = TreeCvConfig(ordering="randomized", seed=3)
    report = loocv(lambda: LsqSgd(3, 0.3), data, SQUARED, config)
    x = np.sin(np.arange(60.0)).reshape(20, 3)
    y = np.where(np.arange(20) % 2, 1.0, -1.0)
    assert _update_compiled(Pegasos(3, 0.1), x, y) and _update_compiled(LsqSgd(3, 0.1), x, y)
    monkeypatch.setattr(_native, "_resolved", (None, "forced off"))
    assert calls == [] and report.comparable() == loocv(lambda: LsqSgd(3, 0.3), data, SQUARED,
                                                        config).comparable()


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_a_parser_whose_strtod_disagrees_with_float_is_left_out_alone(monkeypatch):
    """A reference conversion that differs from strtod in the last bit of
    one probe (as a strtod that is not correctly rounded would) fails the
    parser's self-check: `parse_sparse` is left out, with a reason that
    names it and the string, text parses in Python, and the learners'
    kernels stay compiled."""
    exact = _native._float
    monkeypatch.setattr(_native, "_float",
                        lambda text: np.nextafter(1e23, 2e23) if text == "1e23" else exact(text))
    loaded, reason = _native._resolve()
    assert loaded is not None and reason is None
    monkeypatch.setattr(_native, "_resolved", (loaded, reason))
    assert _native.reason() is None  # nothing has parsed text yet
    assert loaded.parser() is None
    reason = _native.reason()
    assert "parse_sparse" in reason and "'1e23'" in reason and "strtod" in reason

    calls = []
    monkeypatch.setattr(loaded, "parse_sparse", lambda *args: calls.append(args))
    parsed = parse_sparse_text("1 1:1e23\n-1 2:0.5\n")
    assert calls == [] and parsed.x[0, 0] == 1e23 and parsed.y.tolist() == [1.0, -1.0]
    x = np.sin(np.arange(60.0)).reshape(20, 3)
    y = np.where(np.arange(20) % 2, 1.0, -1.0)
    assert _update_compiled(Pegasos(3, 0.1), x, y) and _update_compiled(LsqSgd(3, 0.1), x, y)
    if loaded.kmeans() is not None:
        assert _update_compiled(OnlineKMeans(3, 2), x, None)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_a_parser_whose_exact_conversion_disagrees_with_float_is_left_out_alone(monkeypatch):
    """A reference that differs in the last bit of a probe that the exact
    128-bit path converts, the one whose rounding rests on the division's
    remainder alone, fails the parser's self-check, with a reason that
    names the probe and the conversion."""
    probe = "0.0044971322986972922"
    exact = _native._float
    monkeypatch.setattr(_native, "_float", lambda text: np.nextafter(exact(probe), 0.0)
                        if text == probe else exact(text))
    loaded, reason = _native._resolve()
    assert loaded is not None and reason is None
    monkeypatch.setattr(_native, "_resolved", (loaded, reason))
    assert loaded.parser() is None
    reason = _native.reason()
    assert "parse_sparse" in reason and repr(probe) in reason and "exact conversion" in reason


def _overflowing_batch():
    # the iterate's step on row 4 overflows
    x = np.full((10, 3), 0.5)
    x[4] *= 1e160
    return x, np.linspace(-1.0, 1.0, 10)


def _underflowing_batch():
    # the dot product of row 4 with the iterate underflows
    x = np.full((10, 3), 0.5)
    x[4] = 1e-310
    return x, np.linspace(-1.0, 1.0, 10)


def _outcome(update, batch, **errstate):
    """What `update` does to a fresh LsqSgd: the error it raises, the
    warnings it gives, and the bytes of the state it leaves."""
    model = LsqSgd(3, 0.1)
    error = None
    with warnings.catch_warnings(record=True) as caught, np.errstate(**errstate):
        warnings.simplefilter("always")
        try:
            update(model, *batch)
        except FloatingPointError as err:
            error = str(err)
    state = [np.asarray(getattr(model, name)).tobytes() for name in COMPILED[LsqSgd].fields]
    return error, [str(w.message) for w in caught], state


@pytest.mark.parametrize("batch, errstate, error", [
    (_overflowing_batch, {"over": "raise"}, "overflow encountered in multiply"),
    (_overflowing_batch, {}, None),
    (_underflowing_batch, {"under": "raise"}, "underflow encountered in dot"),
    (_underflowing_batch, {}, None),
])
def test_a_raised_flag_gives_the_python_paths_error_warnings_and_bits(batch, errstate, error,
                                                                      kernels):
    assert len(batch()[0]) >= COMPILED[LsqSgd].min_rows
    compiled = _outcome(LsqSgd.update, batch(), **errstate)
    python = _outcome(IncrementalLearner.update, batch(), **errstate)
    assert compiled == python
    assert compiled[0] == error
    assert bool(compiled[1]) == (batch is _overflowing_batch and not errstate)


@pytest.mark.parametrize("scale, errstate, match", [
    (1e160, {"over": "raise"}, "overflow"),
    (1e-310, {"under": "raise"}, "underflow"),
])
def test_a_raised_flag_in_the_tree_is_the_python_paths_update_failure(scale, errstate, match,
                                                                       monkeypatch):
    data = synth_regression(120, 4, seed=4)
    x = data.x.copy()
    x[[20, 100]] = scale
    data = Dataset(x, data.y)
    config = TreeCvConfig(ordering="randomized", seed=5)
    ranges = []
    for forced_off in (False, True):
        if forced_off:
            monkeypatch.setattr(_native, "kernels", lambda: None)
        with np.errstate(**errstate), pytest.raises(UpdateFailedError, match=match) as info:
            loocv(lambda: LsqSgd(4, 0.1), data, SQUARED, config)
        ranges.append(info.value.chunk_range)
    assert ranges[0] == ranges[1]


def _kmeans_outcome(update, x, **errstate):
    """What `update` does to a fresh 2-means model: the error it raises,
    the warnings it gives, and the bytes of the state it leaves."""
    model = OnlineKMeans(3, 2)
    error = None
    with warnings.catch_warnings(record=True) as caught, np.errstate(**errstate):
        warnings.simplefilter("always")
        try:
            update(model, x)
        except FloatingPointError as err:
            error = str(err)
    state = [np.asarray(getattr(model, name)).tobytes()
             for name in ("centers", "counts", "n_centers")]
    return error, [str(w.message) for w in caught], state


@pytest.mark.parametrize("scale", [1e200, 1.5e308])
@pytest.mark.parametrize("errstate", [{}, {"over": "raise"}])
def test_a_kmeans_overflow_gives_the_python_paths_error_warnings_and_bits(scale, errstate,
                                                                        kernels):
    """Near 1e200 a squared distance overflows, which np.einsum does not
    report; near 1.5e308 a difference overflows, which numpy warns of or
    raises.  Either way the kernel raises a flag and Python reruns the
    batch."""
    x = np.full((10, 3), 0.5)
    x[3], x[6] = scale, -scale
    assert not KMeansFeed.feed_model(kernels, OnlineKMeans(3, 2), x, None)
    compiled = _kmeans_outcome(OnlineKMeans.update, x, **errstate)
    python = _kmeans_outcome(IncrementalLearner.update, x, **errstate)
    assert compiled == python
    subtract_overflows = scale > 1e300
    assert compiled[0] == ("overflow encountered in subtract"
                           if subtract_overflows and errstate else None)
    assert bool(compiled[1]) == (subtract_overflows and not errstate)


def test_a_kmeans_overflow_in_the_tree_is_the_python_paths_update_failure(monkeypatch):
    x = synth_blobs(120, 4, 3, seed=4).x.copy()
    x[20], x[100] = 1.5e308, -1.5e308
    data = Dataset(x)
    config = TreeCvConfig(ordering="randomized", seed=5)
    ranges = []
    for forced_off in (False, True):
        if forced_off:
            monkeypatch.setattr(_native, "kernels", lambda: None)
        with np.errstate(over="raise"), pytest.raises(UpdateFailedError, match="overflow") as info:
            loocv(lambda: OnlineKMeans(4, 3), data, QUANTIZATION, config)
        ranges.append(info.value.chunk_range)
    assert ranges[0] == ranges[1]


# ---------------------------------------------------------------------------
# The chunk sum of `tree_feed` and `standard_feed`: math.fsum in C


def exact_sum(kernels, values):
    """`exact_sum` of the values: their sum, or None where it refuses them."""
    array = np.array(values, dtype=np.float64)
    out = np.empty(1)
    refused = kernels.exact_sum(array.ctypes.data, len(array), out.ctypes.data)
    return None if refused else out[0]


def fsum(values):
    """math.fsum of the values, or None where it raises or gives an inf or
    a NaN, which sends a chunk to the Python path."""
    try:
        total = math.fsum(values)
    except (OverflowError, ValueError):
        return None
    return total if math.isfinite(total) else None


def wide(mantissa: float, exponent: int) -> float:
    return math.ldexp(mantissa, exponent)


@st.composite
def sums(draw):
    """Values to sum: runs of finite doubles from anywhere in the range,
    subnormals, doubles of any exponent, long runs of one value, and now
    and then an inf, a NaN or a double near the largest; some of them
    cancelled by their negations, in any order."""
    piece = st.one_of(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
        st.lists(st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308), max_size=6),
        st.lists(st.builds(wide, st.floats(-1.0, 1.0), st.integers(-1074, 1023)), max_size=6),
        st.builds(lambda value, count: [value] * count,
                  st.floats(allow_nan=False, allow_infinity=False), st.integers(1, 300)),
        st.lists(st.sampled_from([math.inf, -math.inf, math.nan, 1.7976931348623157e308,
                                  -1.7976931348623157e308, 8.98846567431158e307]), max_size=2),
    )
    values = [value for part in draw(st.lists(piece, max_size=6)) for value in part]
    cancelled = draw(st.lists(st.sampled_from(values), max_size=6)) if values else []
    return draw(st.permutations(values + [-value for value in cancelled]))


# `kernels` is the same object in every example
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sums())
def test_the_chunk_sum_is_math_fsum(kernels, values):
    """`exact_sum`, the sum `tree_feed` and `standard_feed` score a chunk
    by, gives math.fsum's bits, and refuses the values exactly where fsum
    raises or gives an inf or a NaN: cancellation, subnormals, every
    exponent, long runs of one value and non-finite values."""
    expected = fsum(values)
    total = exact_sum(kernels, values)
    assert (total is None) == (expected is None)
    if expected is not None:
        assert struct.pack("<d", total) == struct.pack("<d", expected)


def test_the_chunk_sum_breaks_a_tie_as_math_fsum_does(kernels):
    """Pinned sums that a sum not exactly rounded gets wrong: a tie that
    a partial below it breaks, a term lost to cancellation, ten equal
    terms whose float sum drifts, and the largest double plus a quarter
    of its last place and more, which fsum rounds down to it."""
    for values in ([1e-16, 1.0, 1e16], [1e100, 1.0, -1e100], [0.1] * 10,
                   [1.7976931348623157e308, 2.0 ** 969, 1e-300],
                   [5e-324, -5e-324, -0.0], []):
        assert struct.pack("<d", exact_sum(kernels, values)) == struct.pack("<d", fsum(values))


def test_kmeans_scores_its_predictions_where_the_quantization_check_fails(monkeypatch):
    """Where `Kernels.kmeans` found that np.einsum("...i,...i->...") sums
    otherwise than the kernel's distances (`quantization` False),
    `tree_feed` and `standard_feed` write k-means predictions, which
    `core.chunk_scores` scores, to the reports of the kernel's own
    scores."""
    loaded = _native.kernels()
    if loaded is None or loaded.kmeans() is None or loaded.tree() is None:
        pytest.skip(f"k-means or tree_feed runs in Python here: {_native.reason()}")
    assert loaded.quantization
    data = Dataset(synth_blobs(300, 4, 3, seed=2).x)
    part = partition(data, 10)
    codes = []
    call = KMeansFeed.call
    monkeypatch.setattr(KMeansFeed, "call",
                        lambda self, kernel, code, *rest: codes.append(code)
                        or call(self, kernel, code, *rest))

    def reports():
        factory = lambda: OnlineKMeans(4, 3)  # noqa: E731
        return (tree_cv(factory, data, part, QUANTIZATION).comparable(),
                standard_cv(factory, data, part, QUANTIZATION, "randomized", 4).comparable())

    scored = reports()
    monkeypatch.setattr(loaded, "quantization", False)
    assert reports() == scored
    assert codes == [3, 3, 0, 0]
