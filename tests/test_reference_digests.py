"""Bit-identity of whole reports, pinned as digests.

Each case builds one benchmark workload shape, or a shape no workload
runs (standard CV in fixed order or on labeled data in randomized order;
tree LOOCV with k-means, whose recursion feeds it batches both above and
below its compiled update's `min_rows`), at a small size through the
public API and hashes `comparable()` of its estimate.  A change that
alters any fold score, count or label in the last bit changes the digest;
a change meant to keep reports bit-identical must leave these alone.
"""

import hashlib

import numpy as np
import pytest

from treecv import (
    QUANTIZATION,
    SQUARED,
    ZERO_ONE,
    Dataset,
    LsqSgd,
    OnlineKMeans,
    Pegasos,
    TreeCvConfig,
    fit_transform,
    parse_sparse_text,
    partition,
    serialize_sparse_text,
    standard_cv,
    synth_blobs,
    synth_classification,
    synth_regression,
    tree_cv,
)


def loocv_pegasos_randomized(seed):
    data = synth_classification(120, 20, margin=0.3, noise=0.1, seed=seed)
    config = TreeCvConfig(ordering="randomized", seed=seed)
    return tree_cv(lambda: Pegasos(20, 1e-4), data, partition(data, data.n), ZERO_ONE, config)


def kfold16_lsqsgd_fixed(seed):
    data = synth_regression(320, 20, seed=seed)
    config = TreeCvConfig(ordering="fixed", seed=seed)
    return tree_cv(lambda: LsqSgd(20, 320 ** -0.5), data, partition(data, 16), SQUARED, config)


def standard16_lsqsgd_fixed(seed):
    data = synth_regression(320, 20, seed=seed)
    return standard_cv(lambda: LsqSgd(20, 320 ** -0.5), data, partition(data, 16), SQUARED,
                       "fixed", seed)


def standard10_pegasos_randomized(seed):
    data = synth_classification(200, 20, margin=0.3, noise=0.1, seed=seed)
    return standard_cv(lambda: Pegasos(20, 1e-4), data, partition(data, 10), ZERO_ONE,
                       "randomized", seed)


def loocv_kmeans_randomized(seed):
    data = synth_blobs(120, 10, 5, seed=seed)
    config = TreeCvConfig(ordering="randomized", seed=seed)
    return tree_cv(lambda: OnlineKMeans(10, 5), data, partition(data, data.n), QUANTIZATION,
                   config)


def standard10_kmeans_parsed(seed):
    blobs = synth_blobs(200, 10, 5, seed=seed)
    text = serialize_sparse_text(Dataset(blobs.x, np.arange(200) % 5))
    scaled, _ = fit_transform(parse_sparse_text(text), "unit-variance")
    data = Dataset(scaled.x)
    return standard_cv(lambda: OnlineKMeans(10, 5), data, partition(data, 10), QUANTIZATION,
                       "randomized", seed)


DIGESTS = [
    (loocv_pegasos_randomized, 7, "7fd7fe4d504d138d"),
    (loocv_pegasos_randomized, 801, "789bfc97de51c16d"),
    (kfold16_lsqsgd_fixed, 7, "2af3ccaec16276ca"),
    (kfold16_lsqsgd_fixed, 801, "d7b0203cc3b1f48c"),
    (loocv_kmeans_randomized, 7, "0fcb2858d943696a"),
    (loocv_kmeans_randomized, 801, "485f731fd99db60b"),
    (standard10_kmeans_parsed, 7, "da97592a42754ff0"),
    (standard10_kmeans_parsed, 801, "f821e2d677eb732a"),
    (standard16_lsqsgd_fixed, 7, "245d7ad73807920f"),
    (standard16_lsqsgd_fixed, 801, "9af9f70664054199"),
    (standard10_pegasos_randomized, 7, "604424c6affaa50c"),
    (standard10_pegasos_randomized, 801, "e4cc9676c2511bdb"),
]


def digest_of(report) -> str:
    return hashlib.sha256(repr(report.comparable()).encode()).hexdigest()[:16]


@pytest.mark.parametrize("estimate, seed, digest", DIGESTS)
def test_report_digest_is_pinned(estimate, seed, digest):
    assert digest_of(estimate(seed)) == digest
