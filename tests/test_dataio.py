"""Sparse text parsing, transforms, synthetic generators, shuffling."""

import numpy as np
import pytest

from treecv import (
    Dataset,
    DegenerateRangeError,
    OnlineKMeans,
    ParseError,
    Pegasos,
    QUANTIZATION,
    ZERO_ONE,
    evaluate_chunk,
    fit_transform,
    parse_sparse_text,
    partition,
    serialize_sparse_text,
    shuffle_dataset,
    standard_cv,
    synth_blobs,
    synth_classification,
    synth_regression,
)
from treecv.rng import SplitMix64Stream


# ---------------------------------------------------------------------------
# Parsing


def test_parse_basic_line():
    ds = parse_sparse_text("1 1:0.5 3:2\n")
    assert ds.dim == 3
    assert ds.y.tolist() == [1.0]
    assert ds.x[0].tolist() == [0.5, 0.0, 2.0]


def test_parse_line_without_features_gives_zero_vector():
    ds = parse_sparse_text("1 2:7\n-1\n")
    assert ds.x[1].tolist() == [0.0, 0.0]
    assert ds.y.tolist() == [1.0, -1.0]


def test_parse_comments_blank_lines_and_crlf():
    text = "# header\r\n1 1:2.0  # trailing comment\r\n\r\n-1 2:0.5\r\n"
    ds = parse_sparse_text(text)
    assert ds.n == 2
    assert ds.x[0].tolist() == [2.0, 0.0]
    assert ds.x[1].tolist() == [0.0, 0.5]


def test_parse_non_monotone_indices_error_carries_line_number():
    with pytest.raises(ParseError) as info:
        parse_sparse_text("1 1:1\n1 3:1 2:1\n")
    assert info.value.line_number == 2
    assert "strictly increasing" in str(info.value)


def test_parse_index_below_one_error_carries_line_number():
    with pytest.raises(ParseError) as info:
        parse_sparse_text("1 1:1\n1 1:1\n-1 0:2\n")
    assert info.value.line_number == 3
    assert ">= 1" in str(info.value)


def test_parse_unparsable_number_error_carries_line_number():
    with pytest.raises(ParseError) as info:
        parse_sparse_text("1 2:abc\n")
    assert info.value.line_number == 1
    with pytest.raises(ParseError) as info:
        parse_sparse_text("1 1:1\nhello 1:1\n")
    assert info.value.line_number == 2


def test_parse_all_featureless_lines_need_expected_dim():
    ds = parse_sparse_text("1\n-1\n", expected_dim=3)
    assert ds.x.shape == (2, 3)
    assert not ds.x.any()
    assert ds.y.tolist() == [1.0, -1.0]
    with pytest.raises(ParseError, match="cannot infer a feature dimension"):
        parse_sparse_text("1\n-1\n")


def test_parse_expected_dim_bounds():
    ds = parse_sparse_text("1 2:5\n", expected_dim=4)
    assert ds.dim == 4
    with pytest.raises(ParseError):
        parse_sparse_text("1 5:1\n", expected_dim=4)


def test_parse_rejects_empty_input():
    with pytest.raises(ParseError):
        parse_sparse_text("# only a comment\n")


def test_roundtrip_small():
    stream = SplitMix64Stream(42)
    for _ in range(50):
        n = 1 + stream.randbelow(12)
        d = 1 + stream.randbelow(6)
        x = stream.normal_array(n * d).reshape(n, d)
        mask = stream.uniform_array(n * d).reshape(n, d) < 0.4
        x = np.where(mask, 0.0, x)
        y = stream.normal_array(n)
        ds = Dataset(x, y)
        again = parse_sparse_text(serialize_sparse_text(ds), expected_dim=d)
        assert again == ds


def test_all_zero_row_serializes_as_a_bare_label_and_round_trips():
    ds = Dataset(np.array([[0.0, 1.5], [0.0, 0.0], [-2.0, 0.0]]), np.array([1.0, -1.0, 0.5]))
    text = serialize_sparse_text(ds)
    assert text.splitlines() == ["1.0 2:1.5", "-1.0", "0.5 1:-2.0"]
    assert parse_sparse_text(text) == ds


def test_serialize_requires_labels():
    with pytest.raises(ValueError):
        serialize_sparse_text(Dataset(np.ones((2, 2))))


# ---------------------------------------------------------------------------
# Transforms


def test_unit_variance_leaves_already_unit_column_unchanged():
    ds = Dataset(np.array([[0.0], [2.0]]), np.zeros(2))  # population std 1
    out, spec = fit_transform(ds, "unit-variance")
    assert np.array_equal(out.x, ds.x)
    assert spec.warnings == ()


def test_unit_variance_scales_and_warns_on_degenerate_features():
    x = np.array([[1.0, 5.0], [3.0, 5.0], [5.0, 5.0]])
    out, spec = fit_transform(Dataset(x, np.zeros(3)), "unit-variance")
    stds = out.x.std(axis=0)
    assert abs(stds[0] - 1.0) < 1e-9
    assert stds[1] == 0.0  # untouched
    assert np.array_equal(out.x[:, 1], x[:, 1])
    assert len(spec.warnings) == 1 and "feature 2" in spec.warnings[0]


def test_unit_variance_property_random_data():
    stream = SplitMix64Stream(5)
    for _ in range(20):
        n = 3 + stream.randbelow(40)
        d = 1 + stream.randbelow(5)
        x = stream.normal_array(n * d).reshape(n, d) * 7.0
        out, _ = fit_transform(Dataset(x), "unit-variance")
        assert np.all(np.abs(out.x.std(axis=0) - 1.0) < 1e-9)


def test_targets_to_unit_interval():
    ds = Dataset(np.zeros((3, 1)), np.array([10.0, 20.0, 30.0]))
    out, spec = fit_transform(ds, "targets-to-unit")
    assert out.y.tolist() == [0.0, 0.5, 1.0]
    # fitted spec reapplies the same affine map to other data
    other = Dataset(np.zeros((1, 1)), np.array([15.0]))
    assert spec.apply(other).y.tolist() == [0.25]


def test_targets_to_unit_rejects_constant_targets():
    with pytest.raises(DegenerateRangeError):
        fit_transform(Dataset(np.zeros((2, 1)), np.ones(2)), "targets-to-unit")


def test_binarize_label_and_idempotence():
    ds = Dataset(np.zeros((3, 1)), np.array([1.0, 2.0, 3.0]))
    out, spec = fit_transform(ds, "binarize-label", target_label=1.0)
    assert out.y.tolist() == [1.0, -1.0, -1.0]
    assert spec.apply(out).y.tolist() == out.y.tolist()  # idempotent on its output


# ---------------------------------------------------------------------------
# Synthetic generators


def test_generators_are_pure_functions_of_seed():
    for make in (
        lambda s: synth_classification(30, 4, margin=0.5, noise=0.2, seed=s),
        lambda s: synth_regression(30, 4, noise=0.2, seed=s),
        lambda s: synth_blobs(30, 4, 3, spread=0.5, seed=s),
    ):
        assert make(7) == make(7)
        assert make(7) != make(8)


def test_classification_labels_and_separable_training():
    ds = synth_classification(200, 5, margin=2.0, noise=0.0, seed=3)
    assert set(np.unique(ds.y)) <= {-1.0, 1.0}
    model = Pegasos(5, lam=1e-2)
    for _ in range(3):  # a few passes drive the training error to zero
        model.update(ds.x, ds.y)
    score = evaluate_chunk(model, ds, slice(0, ds.n), ZERO_ONE)
    assert score == 0.0


def test_regression_targets_live_in_unit_interval():
    ds = synth_regression(100, 3, noise=0.3, seed=4)
    assert ds.y.min() == 0.0 and ds.y.max() == 1.0


def test_blobs_unlabeled_and_zero_spread_quantizes_exactly():
    ds = synth_blobs(30, 2, 3, spread=0.0, seed=5)
    assert not ds.labeled
    report = standard_cv(lambda: OnlineKMeans(2, 3), ds, partition(ds, 5), QUANTIZATION)
    assert report.estimate == 0.0


@pytest.mark.parametrize("make, message", [
    (lambda v: synth_classification(20, 3, noise=v), "noise must be finite and in [0, 1]"),
    (lambda v: synth_regression(20, 3, noise=v), "noise must be finite and at least 0"),
    (lambda v: synth_blobs(20, 3, 2, spread=v), "spread must be finite and at least 0"),
], ids=["classification-noise", "regression-noise", "blobs-spread"])
@pytest.mark.parametrize("value", [float("nan"), -0.5, float("inf")])
def test_generators_reject_noise_and_spread_out_of_range(make, message, value):
    with pytest.raises(ValueError) as info:
        make(value)
    assert message in str(info.value)


def test_generators_accept_the_ends_of_their_ranges():
    assert set(synth_classification(20, 3, noise=1.0).y) <= {-1.0, 1.0}
    synth_regression(20, 3, noise=0.0)
    synth_blobs(20, 3, 2, spread=0.0)


@pytest.mark.parametrize("margin", [float("nan"), float("inf"), float("-inf")])
def test_classification_rejects_a_non_finite_margin(margin):
    with pytest.raises(ValueError, match="margin must be finite"):
        synth_classification(20, 3, margin=margin)


@pytest.mark.parametrize("margin", [-1.0, -1e-12])
def test_classification_rejects_a_negative_margin(margin):
    with pytest.raises(ValueError, match=f"margin must be at least 0, got {margin}"):
        synth_classification(20, 3, margin=margin)


# ---------------------------------------------------------------------------
# Shuffle


def test_shuffle_singleton_is_identity():
    ds = Dataset(np.ones((1, 2)), np.array([3.0]))
    assert shuffle_dataset(ds, seed=9) == ds


def test_shuffle_is_reproducible_and_preserves_multiset():
    ds = synth_regression(40, 2, noise=0.1, seed=6)
    a = shuffle_dataset(ds, seed=1)
    b = shuffle_dataset(ds, seed=1)
    c = shuffle_dataset(ds, seed=2)
    assert a == b
    assert a != c
    assert sorted(a.y.tolist()) == sorted(ds.y.tolist())
    assert sorted(map(tuple, a.x.tolist())) == sorted(map(tuple, ds.x.tolist()))
