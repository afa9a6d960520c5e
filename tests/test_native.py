"""The compiled per-point kernels: the loader and its reasons, and the
floating-point exceptions the kernels hand back to the Python update."""

import shutil
import warnings

import numpy as np
import pytest

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
    partition,
    standard_cv,
    synth_blobs,
    synth_regression,
    tree_cv,
)
from treecv import _native
from treecv.learners import LOCKSTEP


def test_the_kernels_load_wherever_a_c_compiler_is_on_path():
    """CI installs gcc: a silent fall back to the Python path fails here."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    assert _native.kernels() is not None, _native.reason()
    assert _native.reason() is None


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


def test_runs_of_learners_without_kernels_never_resolve_them(monkeypatch):
    resolved = []
    monkeypatch.setattr(_native, "_resolved", None)
    monkeypatch.setattr(_native, "_resolve", lambda: resolved.append(1) or (None, "unused"))
    blobs = synth_blobs(60, 3, 2, seed=1)
    part = partition(blobs, 6)
    for workers in (0, 2):
        tree_cv(lambda: OnlineKMeans(3, 2), blobs, part, QUANTIZATION,
                TreeCvConfig(max_workers=workers))
        standard_cv(lambda: OnlineKMeans(3, 2), blobs, part, QUANTIZATION, max_workers=workers)
    data = synth_regression(60, 3, seed=1)
    loocv(lambda: MeanPredictor(3), data, SQUARED)
    assert resolved == []
    loocv(lambda: LsqSgd(3, 0.1), data, SQUARED)
    assert resolved == [1]


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
    state = [np.asarray(getattr(model, name)).tobytes() for name in LOCKSTEP[LsqSgd].fields]
    return error, [str(w.message) for w in caught], state


@pytest.mark.parametrize("batch, errstate, error", [
    (_overflowing_batch, {"over": "raise"}, "overflow encountered in multiply"),
    (_overflowing_batch, {}, None),
    (_underflowing_batch, {"under": "raise"}, "underflow encountered in dot"),
    (_underflowing_batch, {}, None),
])
def test_a_raised_flag_gives_the_python_paths_error_warnings_and_bits(batch, errstate, error,
                                                                      kernels):
    assert len(batch()[0]) >= LOCKSTEP[LsqSgd].min_rows
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
