"""Dataset ingestion, preprocessing, and synthetic data.

The on-disk interchange format is sparse `label index:value` text, one
point per line, 1-based strictly increasing indices, `#` comments, UTF-8
with LF or CRLF endings.  Missing indices are zero; parsed datasets are
dense.  An ASCII string is scanned in C where the kernels load, bit for
bit as the Python loop parses it (see `parse_sparse_text`).

Transforms are fitted on a full dataset (before any partitioning) and
can be re-applied to other data via the returned spec.  Generators and
shuffles are pure functions of their seed.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from . import _native
from .core import DegenerateRangeError, Dataset, ParseError
from .rng import SplitMix64Stream, derive_seed

TAG_SYNTH = 5
TAG_DATASET_SHUFFLE = 6


# ---------------------------------------------------------------------------
# Sparse text format


def parse_sparse_text(source, expected_dim: int | None = None) -> Dataset:
    """Parse `label index:value ...` lines into a dense labeled Dataset.

    `source` is a string or a text stream.  The feature dimension is the
    largest index seen, or `expected_dim` when given (indices beyond it
    are an error).  Parse problems raise ParseError with the 1-based line
    number.

    An ASCII string is parsed by the compiled `parse_sparse` when the
    kernels load and its self-check passes (`_native.Kernels.parser`).
    It takes the strict grammar its comment in `_kernels.c` gives.  A
    number of at most 19 significant digits w and a decimal exponent q
    (its exponent less its fraction's digits) with |q| <= 19 is w * 10**q
    computed exactly in 128-bit integers and rounded once; any other goes
    to strtod.  Both are correctly rounded, as float() is, so it gives
    the bits the Python loop below gives.  At the first line it does not
    take (any error, or anything outside that grammar, such as other
    whitespace, `1_0` or `inf`) the whole text goes to the Python loop,
    which raises every ParseError.  A non-ASCII string and a text stream
    go to the Python loop directly.
    """
    parsed = None
    if isinstance(source, str) and source.isascii() and (
            expected_dim is None or type(expected_dim) is int):
        loaded = _native.kernels()
        parser = loaded.parser() if loaded is not None else None
        if parser is not None:
            parsed = parse_compiled(parser, source, expected_dim)
    if parsed is None:
        parsed = _parse_lines(io.StringIO(source) if isinstance(source, str) else source,
                              expected_dim)
    labels, counts, columns, values, max_index = parsed
    if not len(labels):
        raise ParseError(0, "no data lines in input")
    dim = expected_dim if expected_dim is not None else max_index
    if dim < 1:
        raise ParseError(0, "cannot infer a feature dimension from all-empty rows")
    n = len(labels)
    x = np.zeros((n, dim))
    x[np.repeat(np.arange(n), counts), columns] = values
    return Dataset(x, np.asarray(labels))


_INT64_MAX = 2**63 - 1


def parse_compiled(parser, text: str, expected_dim: int | None):
    """(labels, counts, columns, values, max_index) of an ASCII `text` by
    the compiled `parser`, or None where it hands a line back.  The arrays
    are sized from the text's line and ':' counts, which bound its rows
    and entries."""
    data = text.encode("ascii")  # its buffer ends in the NUL the scanner relies on
    buffer = np.frombuffer(data, np.uint8)
    rows = int(np.count_nonzero(buffer == ord("\n"))) + 1
    pairs = int(np.count_nonzero(buffer == ord(":")))
    counts = np.empty(rows, dtype=np.int64)
    labels = np.empty(rows)
    columns = np.empty(pairs, dtype=np.int64)
    values = np.empty(pairs)
    out = np.empty(3, dtype=np.int64)
    limit = _INT64_MAX if expected_dim is None else max(min(expected_dim, _INT64_MAX), -1)
    if parser(data, len(data), limit, rows, pairs, counts.ctypes.data, labels.ctypes.data,
              columns.ctypes.data, values.ctypes.data, out.ctypes.data):
        return None
    rows, entries, max_index = out.tolist()
    return labels[:rows], counts[:rows], columns[:entries], values[:entries], max_index


def _parse_lines(lines, expected_dim: int | None):
    """(labels, counts, columns, values, max_index) of the text lines
    `lines`, as lists, or a ParseError."""
    labels: list[float] = []
    columns: list[int] = []
    values: list[float] = []
    counts: list[int] = []
    max_index = 0
    for line_number, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(line_number, f"unparsable label {tokens[0]!r}") from None
        if not math.isfinite(label):
            raise ParseError(line_number, f"non-finite label {tokens[0]!r}")
        previous = 0
        for token in tokens[1:]:
            index_text, _, value_text = token.partition(":")
            if not value_text:
                raise ParseError(line_number, f"expected index:value, got {token!r}")
            try:
                index = int(index_text)
            except ValueError:
                raise ParseError(line_number, f"unparsable feature index {index_text!r}") from None
            if index < 1:
                raise ParseError(line_number, f"feature index must be >= 1, got {index}")
            if index <= previous:
                raise ParseError(
                    line_number, f"feature indices must be strictly increasing, got {index} after {previous}"
                )
            try:
                value = float(value_text)
            except ValueError:
                raise ParseError(line_number, f"unparsable feature value {value_text!r}") from None
            if not math.isfinite(value):
                raise ParseError(line_number, f"non-finite feature value {value_text!r}")
            if expected_dim is not None and index > expected_dim:
                raise ParseError(
                    line_number, f"feature index {index} exceeds expected dimension {expected_dim}"
                )
            columns.append(index - 1)
            values.append(value)
            previous = index
        labels.append(label)
        counts.append(len(tokens) - 1)
        if previous > max_index:
            max_index = previous
    return labels, counts, columns, values, max_index


def serialize_sparse_text(dataset: Dataset) -> str:
    """Render a labeled dataset in the sparse text format, eliding zeros."""
    if dataset.y is None:
        raise ValueError("the sparse text format requires labeled data")
    # one row's tolist() at a time: the whole matrix's would hold every cell,
    # zeros included, as a Python float at once
    lines = [
        " ".join([repr(label), *(f"{j}:{v!r}" for j, v in enumerate(row.tolist(), start=1) if v)])
        for label, row in zip(dataset.y.tolist(), dataset.x)
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Transforms


TRANSFORM_KINDS = ("unit-variance", "targets-to-unit", "binarize-label")


@dataclass(frozen=True)
class TransformSpec:
    """A fitted preprocessing step that can be re-applied to other data.

    kind "unit-variance" divides each feature by its population standard
    deviation (zero-variance features pass through unscaled and are named
    in `warnings`).  kind "targets-to-unit" min-max scales outcomes to
    [0, 1].  kind "binarize-label" maps outcomes equal to `target_label`
    to +1 and everything else to -1.
    """

    kind: str
    feature_scale: tuple[float, ...] | None = None
    target_min: float | None = None
    target_max: float | None = None
    target_label: float | None = None
    warnings: tuple[str, ...] = ()

    def apply(self, dataset: Dataset) -> Dataset:
        if self.kind == "unit-variance":
            scale = np.asarray(self.feature_scale)
            if scale.shape[0] != dataset.dim:
                raise ValueError("fitted feature count does not match dataset")
            return Dataset(dataset.x * scale, dataset.y)
        if self.kind == "targets-to-unit":
            if dataset.y is None:
                raise ValueError("targets-to-unit requires labeled data")
            span = self.target_max - self.target_min
            return Dataset(dataset.x, (dataset.y - self.target_min) / span)
        if self.kind == "binarize-label":
            if dataset.y is None:
                raise ValueError("binarize-label requires labeled data")
            return Dataset(dataset.x, np.where(dataset.y == self.target_label, 1.0, -1.0))
        raise ValueError(f"unknown transform kind {self.kind!r}")


def fit_transform(dataset: Dataset, kind: str, target_label: float | None = None):
    """Fit a transform on a dataset and apply it; returns (dataset, spec)."""
    if kind == "unit-variance":
        std = dataset.x.std(axis=0)
        warnings = tuple(
            f"feature {j + 1} has zero variance; left unscaled"
            for j in range(dataset.dim)
            if std[j] == 0.0
        )
        scale = 1.0 / np.where(std > 0.0, std, 1.0)
        spec = TransformSpec(kind, feature_scale=tuple(float(s) for s in scale),
                             warnings=warnings)
    elif kind == "targets-to-unit":
        if dataset.y is None:
            raise ValueError("targets-to-unit requires labeled data")
        lo, hi = float(dataset.y.min()), float(dataset.y.max())
        if hi == lo:
            raise DegenerateRangeError("target range is degenerate (constant outcomes)")
        spec = TransformSpec(kind, target_min=lo, target_max=hi)
    elif kind == "binarize-label":
        if dataset.y is None:
            raise ValueError("binarize-label requires labeled data")
        if target_label is None:
            raise ValueError("binarize-label requires a target label")
        spec = TransformSpec(kind, target_label=float(target_label))
    else:
        raise ValueError(f"unknown transform kind {kind!r}; expected one of {TRANSFORM_KINDS}")
    return spec.apply(dataset), spec


# ---------------------------------------------------------------------------
# Synthetic datasets


def _check_size(n: int, d: int) -> None:
    if n < 2 or d < 1:
        raise ValueError(f"need n >= 2 and d >= 1, got n={n}, d={d}")


def _check_range(name: str, value: float, high: float = math.inf) -> None:
    """Noise and spread are finite and at least 0, a probability also at
    most 1; NaN fails the comparison."""
    if not (0.0 <= value <= high and math.isfinite(value)):
        bound = f"in [0, {high:g}]" if math.isfinite(high) else "at least 0"
        raise ValueError(f"{name} must be finite and {bound}, got {value}")


def _unit_direction(stream: SplitMix64Stream, d: int) -> np.ndarray:
    v = stream.normal_array(d)
    norm = float(np.sqrt(v @ v))
    if norm == 0.0:
        v[0] = 1.0
        norm = 1.0
    return v / norm


def synth_classification(n: int, d: int, margin: float = 0.0, noise: float = 0.0,
                         seed: int = 0) -> Dataset:
    """Linear two-class data with labels in {+1, -1}.

    Points are standard normal, pushed `margin` away from a random
    separating hyperplane; each label then flips with probability
    `noise`.  noise=0 with positive margin gives a separable set.
    """
    _check_size(n, d)
    if not math.isfinite(margin):
        raise ValueError(f"margin must be finite, got {margin}")
    if margin < 0.0:
        raise ValueError(f"margin must be at least 0, got {margin}")
    _check_range("noise", noise, 1.0)
    stream = SplitMix64Stream(derive_seed(seed, TAG_SYNTH, 1))
    w = _unit_direction(stream, d)
    x = stream.normal_array(n * d).reshape(n, d)
    score = x @ w
    side = np.where(score >= 0.0, 1.0, -1.0)
    if margin > 0.0:
        x += (margin * side)[:, None] * w
    y = side.copy()
    if noise > 0.0:
        flips = stream.uniform_array(n) < noise
        y[flips] = -y[flips]
    return Dataset(x, y)


def synth_regression(n: int, d: int, noise: float = 0.0, seed: int = 0) -> Dataset:
    """Linear regression data with targets min-max scaled into [0, 1]."""
    _check_size(n, d)
    _check_range("noise", noise)
    stream = SplitMix64Stream(derive_seed(seed, TAG_SYNTH, 2))
    w = _unit_direction(stream, d)
    x = stream.normal_array(n * d).reshape(n, d)
    y = x @ w
    if noise > 0.0:
        y = y + noise * stream.normal_array(n)
    lo, hi = float(y.min()), float(y.max())
    if hi == lo:
        y = np.full(n, 0.5)
    else:
        y = (y - lo) / (hi - lo)
    return Dataset(x, y)


def synth_blobs(n: int, d: int, n_clusters: int, spread: float = 1.0, seed: int = 0) -> Dataset:
    """Unlabeled points around n_clusters random centers.

    Cluster assignment cycles deterministically through the centers, so
    every cluster is populated whenever n >= n_clusters; spread is the
    per-coordinate standard deviation around each center.
    """
    _check_size(n, d)
    if n_clusters < 1:
        raise ValueError("n_clusters must be at least 1")
    _check_range("spread", spread)
    stream = SplitMix64Stream(derive_seed(seed, TAG_SYNTH, 3))
    centers = 10.0 * stream.normal_array(n_clusters * d).reshape(n_clusters, d)
    assignment = np.arange(n) % n_clusters
    x = centers[assignment]
    if spread > 0.0:
        x = x + spread * stream.normal_array(n * d).reshape(n, d)
    return Dataset(x)


def shuffle_dataset(dataset: Dataset, seed: int = 0) -> Dataset:
    """Seeded uniform permutation of the points; pure in (dataset, seed)."""
    stream = SplitMix64Stream(derive_seed(seed, TAG_DATASET_SHUFFLE))
    return dataset.take(stream.permutation(dataset.n))
