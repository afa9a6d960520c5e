"""Sparse text parsing, transforms, synthetic generators, shuffling."""

import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
from treecv import _native
from treecv.dataio import parse_compiled
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


def _outcome(source, expected_dim=None):
    """The bytes and shape of a parse, or the error it raises, with a
    ParseError's line."""
    try:
        parsed = parse_sparse_text(source, expected_dim)
    except (ValueError, MemoryError) as err:  # ParseError, or a dimension numpy refuses
        return type(err).__name__, getattr(err, "line_number", None), str(err)
    return parsed.x.shape, parsed.x.tobytes(), parsed.y.tobytes()


def _compiled_takes(text, expected_dim=None):
    """Whether the compiled parser takes every line of `text` (None
    without the kernels)."""
    loaded = _native.kernels()
    parser = loaded.parser() if loaded is not None else None
    if parser is None:
        return None
    return text.isascii() and parse_compiled(parser, text, expected_dim) is not None


_DOUBLES = st.floats(allow_nan=False, allow_infinity=False)
_FORMATS = (repr, "{:.17g}".format, "{:.24e}".format)
# fragments outside the compiled grammar, or in error
_ODD_NUMBERS = ("1_0", "inf", "-Infinity", "nan", "0x1p3", "1e400", "-1e400", "1e-400", "+-1",
                ".", "1e", "1e+", "1.5.5", "", "2:3", "0." + "7" * 70, "1\x0b", "1\x00")
_ODD_INDICES = ("+3", "03", "0", "-1", "1_0", "", "9223372036854775808", " 2", "99")
_ODD_BLANKS = ("\x0b", "\x0c", "\x1c", "\x7f", "\u00a0", "\u2003")


@st.composite
def _sparse_texts(draw):
    """(text, expected_dim, well_formed): lines of `repr`-style doubles
    (subnormals and -0.0 included) with random comments, blank lines,
    separators and endings, some with a label, index, value or blank
    outside the grammar or in error."""
    lines, largest, well_formed = [], 0, True
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "comment"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "  \r"])))
            continue
        if kind == "comment":
            lines.append(draw(st.sampled_from(["#", "# note: 1 2:3", " #x\x01"])))
            continue
        fmt = draw(st.sampled_from(_FORMATS))
        label = fmt(draw(_DOUBLES))
        entries = [[str(j), fmt(draw(_DOUBLES))]
                   for j in sorted(draw(st.sets(st.integers(1, 12), max_size=5)))]
        blank = draw(st.sampled_from([" ", "\t", " \t "]))
        odd = draw(st.sampled_from([None, None, None, "label", "index", "value", "blank"]))
        if odd == "label":
            label = draw(st.sampled_from(_ODD_NUMBERS))
        elif odd == "blank":
            blank = draw(st.sampled_from(_ODD_BLANKS))
        elif odd and entries:
            entry = draw(st.sampled_from(entries))
            entry[odd == "value"] = draw(st.sampled_from(_ODD_INDICES if odd == "index"
                                                         else _ODD_NUMBERS))
        if odd:
            well_formed = False
        elif entries:
            largest = max(largest, int(entries[-1][0]))
        line = blank.join([label] + [":".join(entry) for entry in entries])
        lines.append(line + draw(st.sampled_from(["", " ", "# tail", " # 4:5"])))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines)
    if lines and draw(st.booleans()):
        text += "\n"
    expected_dim = draw(st.none() | st.integers(0, 14))
    if expected_dim is not None and expected_dim < largest:
        well_formed = False
    return text, expected_dim, well_formed


@settings(deadline=None, max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(_sparse_texts())
def test_the_compiled_parser_gives_the_python_parsers_bits_or_error(case):
    """A string (compiled wherever the kernels load) and the same text as
    a stream (the Python loop) give byte-equal x and y, or the same
    ParseError; a well-formed text never leaves the compiled parser."""
    text, expected_dim, well_formed = case
    assert _outcome(text, expected_dim) == _outcome(io.StringIO(text), expected_dim)
    if well_formed:
        assert _compiled_takes(text, expected_dim) in (True, None)


_LONG = "0." + "1234567890" * 80  # 800 digits


@pytest.mark.parametrize("text, expected_dim, compiled", [
    ("1\u00a01:2\n", None, False),  # non-ASCII whitespace
    ("1\u20031:2\n-1 2:1\n", None, False),
    ("1\x0b1:2\n", None, False),
    ("1 1:2\x0c\n", None, False),
    ("1 1:2\x1f\n", None, False),
    ("1 1:2\x7f\n", None, False),
    ("1 1:2\x00\n", None, False),
    ("1_0 1:2\n", None, False),
    ("1 1:1_0\n", None, False),
    ("1 1_0:2\n", None, False),
    ("1 +3:2\n", None, True),
    ("1 03:2\n", None, True),
    ("1 -3:2\n", None, False),
    ("1 0:2\n", None, False),
    ("1 0x1p3\n", None, False),
    ("1 1:0x1p3\n", None, False),
    ("inf 1:2\n", None, False),
    ("1 1:-Infinity\n", None, False),
    ("nan 1:2\n", None, False),
    ("1 1:1e400\n", None, False),
    ("1e400\n", 2, False),
    ("1 1:1e-400\n", None, True),
    ("-1e-400 1:-1e-400\n", None, True),
    (f"1 1:{_LONG}\n", None, False),
    (f"{_LONG} 1:1\n", None, False),
    ("1 1:2:3\n", None, False),
    ("1 1:\n", None, False),
    ("1 :2\n", None, False),
    ("1 1:2 3\n", None, False),
    ("1 2:1 2:1\n", None, False),
    ("1 3:1 2:1\n", None, False),
    ("1 5:1\n", 4, False),
    ("1 1:1\n", -3, False),
    ("1 9223372036854775808:1\n", None, False),
    ("1 1:1.5.5\n", None, False),
    ("1 1:1e5e5\n", None, False),
    ("1 1:.\n", None, False),
    ("1 1:1e\n", None, False),
    ("1 1:1e+\n", None, False),
    ("1 1:--1\n", None, False),
    ("1 1:2\r2:4\n", None, True),  # a lone CR separates tokens, as str.split() does
    ("", None, True),
    ("\n\n# only comments\n", None, True),
    ("1\n-1\n", None, True),
    ("1\n-1\n", 3, True),
    ("1 1:2\n", 0, False),
    (" 1.  2:.5  3:-0 \t# x:y\r\n+.5e-3 1:1E+05\n-0", None, True),
])
def test_inputs_outside_the_compiled_grammar_go_to_python(text, expected_dim, compiled):
    """Pinned inputs: those the compiled parser does not take are parsed
    (or refused) by the Python loop, and every one gives what the stream
    path gives."""
    assert _compiled_takes(text, expected_dim) in (compiled, None)
    assert _outcome(text, expected_dim) == _outcome(io.StringIO(text), expected_dim)


def test_the_standard10_text_parses_alike_on_both_paths():
    """The sparse text of the benchmark's standard10 workload (10,000
    blob points at d=10, labelled by cluster) at five seeds."""
    for seed in (7, 8, 9, 801, 802):
        blobs = synth_blobs(10000, 10, 5, seed=seed)
        text = serialize_sparse_text(Dataset(blobs.x, np.arange(10000) % 5))
        assert _compiled_takes(text) in (True, None)
        assert _outcome(text) == _outcome(io.StringIO(text))


@st.composite
def _exact_path_tokens(draw):
    """Spellings of one value near the compiled parser's exact path (at
    most 19 significant digits w and a decimal exponent q with |q| <=
    19): w of 1 to 21 digits at q in [-21, 21] as an integer with an
    exponent, as a fraction with leading and trailing zeros, and in
    exponent form; or an exact midpoint between two doubles m * 2**e +
    2**(e - 1), which fits in 19 digits for e in [-2, 10].  A w of 20 or
    21 digits is at times k * 2**64 followed by zeros, whose first 20
    digits wrap a 64-bit significand to 0."""
    sign = draw(st.sampled_from(["", "-", "+"]))
    if draw(st.booleans()):
        m, e = draw(st.integers(2**52, 2**53 - 1)), draw(st.integers(-2, 10))
        if e >= 1:
            return [sign + str((2 * m + 1) << (e - 1))]
        digits = str((2 * m + 1) * 5 ** (1 - e))
        return [f"{sign}{digits[:e - 1]}.{digits[e - 1:]}"]
    size = draw(st.integers(1, 21))
    if size >= 20 and draw(st.booleans()):
        w = str(draw(st.integers(1, 5)) << 64) + "0" * (size - 20)
    else:
        w = str(draw(st.integers(10 ** (size - 1), 10**size - 1)))
    q = draw(st.integers(-21, 21))
    padded = w + "0" * q if q >= 0 else w.rjust(1 - q, "0")
    point = len(padded) - max(-q, 0)
    lead, trail = "0" * draw(st.integers(0, 2)), "0" * draw(st.integers(0, 2))
    fraction = f"{lead}{padded[:point]}.{padded[point:]}{trail}"
    return [sign + f"{w}e{q}", sign + fraction, sign + f"{w[0]}.{w[1:]}E{q + size - 1:+d}"]


@settings(deadline=None, max_examples=300)
@given(st.lists(_exact_path_tokens(), min_size=1, max_size=8))
def test_the_compiled_parser_converts_as_float_on_and_beside_its_exact_path(spellings):
    """Each token, parsed by `parse_compiled` as a label and as a value,
    gives float()'s bits."""
    loaded = _native.kernels()
    parser = loaded.parser() if loaded is not None else None
    if parser is None:
        pytest.skip(f"no compiled parser: {_native.reason()}")
    tokens = [token for tokens in spellings for token in tokens]
    parsed = parse_compiled(parser, "".join(f"{t} 1:{t}\n" for t in tokens), None)
    assert parsed is not None
    labels, _, _, values, _ = parsed
    expected = np.array([float(t) for t in tokens])
    assert labels.tobytes() == expected.tobytes() and values.tobytes() == expected.tobytes()


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
