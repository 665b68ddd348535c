import itertools
import tracemalloc

import numpy as np
import pytest
from helpers import saved_form
from scipy.spatial.distance import cdist, pdist

from mdsum import kernels
from mdsum.kernels import (BANDWIDTH_FLOOR, GATHER_BYTES, FeatureMap, _sample_distinct_pairs,
                           _self_mean, build_feature_map, feature_map_from_payload,
                           feature_map_to_payload, mean_embedding, median_heuristic,
                           mmd2_exact_many, mmd2_rff, rff_matrix)
from mdsum.util import NumericalError, derive_rng


# ---------------------------------------------------------------------------
# median heuristic
# ---------------------------------------------------------------------------

def test_median_single_pair():
    assert median_heuristic(np.array([[0.0], [1.0]])) == 1.0


def test_median_three_points_brute_force():
    # distances {1, 1, 2} -> median 1
    assert median_heuristic(np.array([[0.0], [1.0], [2.0]])) == 1.0


def test_median_matches_brute_force_oracle():
    rng = derive_rng(4, "median")
    x = rng.standard_normal((40, 3))
    dists = [float(np.linalg.norm(x[i] - x[j]))
             for i, j in itertools.combinations(range(40), 2)]
    assert median_heuristic(x) == pytest.approx(np.median(dists), rel=0.0, abs=1e-15)


def test_median_scale_equivariance():
    rng = derive_rng(5, "median")
    x = rng.standard_normal((30, 2))
    base = median_heuristic(x)
    for c in (0.5, 3.0, 1e6):
        assert median_heuristic(c * x) == pytest.approx(c * base, rel=1e-12)


def test_median_floor_on_identical_points():
    x = np.zeros((5, 2))
    assert median_heuristic(x) == BANDWIDTH_FLOOR


def test_median_subsampling_is_deterministic_and_close(monkeypatch):
    rng = derive_rng(6, "median")
    x = rng.standard_normal((300, 2))
    full = median_heuristic(x)  # 44850 pairs, exact
    monkeypatch.setattr(kernels, "MAX_PAIRS", 5000)
    a = median_heuristic(x, rng=derive_rng(1, "pairs"))
    b = median_heuristic(x, rng=derive_rng(1, "pairs"))
    assert a == b
    assert a == pytest.approx(full, rel=0.05)


def test_median_sampled_gather_is_exact_and_bounded(monkeypatch):
    # the sampled path gathers pair differences in chunks of GATHER_BYTES:
    # over several chunks the value must equal a one-shot gather ...
    x = derive_rng(7, "median").standard_normal((600, 256))
    n_pairs = 5 * GATHER_BYTES // (2 * x[0].nbytes)  # two and a half chunks
    i, j = _sample_distinct_pairs(600, n_pairs, derive_rng(1, "pairs"))
    expected = float(np.median(np.sqrt(np.sum((x[i] - x[j]) ** 2, axis=1))))
    monkeypatch.setattr(kernels, "MAX_PAIRS", n_pairs)
    assert median_heuristic(x, rng=derive_rng(1, "pairs")) == expected
    # ... and the peak must stay far below the one-shot gather's size
    x = derive_rng(8, "median").standard_normal((1000, 800))
    n_pairs = 100_000
    monkeypatch.setattr(kernels, "MAX_PAIRS", n_pairs)
    tracemalloc.start()
    try:
        median_heuristic(x, rng=derive_rng(2, "pairs"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    full_gather_bytes = n_pairs * x[0].nbytes  # one of x[i], x[j], their difference
    assert peak < full_gather_bytes / 4


def _sampled_distances(x, i, j):
    """The plain fancy-indexing distances of a pair sample."""
    return np.sqrt(np.sum((x[i] - x[j]) ** 2, axis=1))


# rows below PAIRWISE_WIDTH (8) take the column path, from 8 the row gather
@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 7, 8, 25])
def test_median_sampled_default_stream_is_exact(width, monkeypatch):
    # every distance of the default stream's pairs and of a passed rng's,
    # summed column by column or gathered with take and reduced in place,
    # must equal the plain fancy-indexing formula's to the bit, and so
    # must the median
    n, k = 400, 20_000
    x = derive_rng(9, "median", width).standard_normal((n, width))
    monkeypatch.setattr(kernels, "MAX_PAIRS", k)
    seen = []
    select = kernels._median_in_place
    monkeypatch.setattr(kernels, "_median_in_place", lambda v: (seen.append(v.copy()), select(v))[1])
    for rng, twin in ((None, np.random.default_rng(0)),
                      (derive_rng(12, "pairs", width), derive_rng(12, "pairs", width))):
        expected = _sampled_distances(x, *_sample_distinct_pairs(n, k, twin))
        assert median_heuristic(x, rng=rng) == float(np.median(expected))
        assert seen.pop().tobytes() == expected.tobytes()


@pytest.mark.parametrize("width", [2, 5, 9])
def test_median_sampled_is_exact_on_tied_rows(width, monkeypatch):
    # rounded rows repeat distances, so the middle ranks fall inside ties;
    # an odd pair count puts the median on one rank, an even one on two
    x = np.round(derive_rng(13, "median", width).standard_normal((500, width)), 1)
    for k in (20_001, 20_000):
        monkeypatch.setattr(kernels, "MAX_PAIRS", k)
        i, j = _sample_distinct_pairs(500, k, np.random.default_rng(0))
        assert median_heuristic(x) == float(np.median(_sampled_distances(x, i, j)))


@pytest.mark.parametrize("n_rows", [301, 302])  # 45 150 and 45 451 pairs
def test_median_exact_path_matches_numpy_median(n_rows):
    for tied in (False, True):
        x = derive_rng(14, "median", n_rows).standard_normal((n_rows, 3))
        if tied:
            x = np.round(x, 1)
        assert median_heuristic(x) == float(np.median(pdist(x)))


@pytest.mark.parametrize("size", [1, 2, 7, 8, 1001, 1002])
def test_median_in_place_equals_numpy_median(size):
    rng = derive_rng(15, "median", size)
    for v in (rng.standard_normal(size), np.round(rng.standard_normal(size), 1),
              np.full(size, 2.5)):
        expected = float(np.median(v))
        assert kernels._median_in_place(v.copy()) == expected


def test_median_sampled_column_path_is_bounded(monkeypatch):
    # past the pairs, drawn before the trace, the column path holds the
    # distances, one transposed copy of the rows and a few PAIR_BLOCK
    # temporaries: never a full-length difference, as the row gather's
    # (n_pairs, width) would be
    x = derive_rng(16, "median").standard_normal((3000, 7))
    n_pairs = kernels.MAX_PAIRS
    pairs = _sample_distinct_pairs(3000, n_pairs, np.random.default_rng(0))
    monkeypatch.setattr(kernels, "_sample_distinct_pairs", lambda *_: pairs)
    tracemalloc.start()
    try:
        median_heuristic(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n_pairs + x.nbytes + 8 * 8 * kernels.PAIR_BLOCK


def test_median_without_rng_draws_from_a_fresh_default_stream():
    # with no rng every sampled call starts its own default_rng(0), so two
    # calls in a row agree with each other and with a passed default_rng(0)
    x = derive_rng(10, "median").standard_normal((1500, 3))  # 1 123 750 pairs
    assert x.shape[0] * (x.shape[0] - 1) // 2 > kernels.MAX_PAIRS
    expected = median_heuristic(x, rng=np.random.default_rng(0))
    assert median_heuristic(x) == expected
    assert median_heuristic(x) == expected


def test_median_passed_rng_draws_on_every_call(monkeypatch):
    # a caller's stream advances exactly as a twin passed to the sampler
    n, k = 300, 5000
    x = derive_rng(11, "median").standard_normal((n, 3))
    monkeypatch.setattr(kernels, "MAX_PAIRS", k)
    r, twin = derive_rng(3, "pairs"), derive_rng(3, "pairs")
    for _ in range(2):
        median_heuristic(x, rng=r)
        _sample_distinct_pairs(n, k, twin)
        assert r.random() == twin.random()


def test_median_rejects_degenerate_input():
    with pytest.raises(ValueError):
        median_heuristic(np.ones((1, 2)))


def test_sample_distinct_pairs_is_exact():
    # every decoded (i, j) must be a valid upper-triangle pair, all distinct
    for n in (5, 37, 1000):
        total = n * (n - 1) // 2
        k = min(total, 500)
        i, j = _sample_distinct_pairs(n, k, derive_rng(7, "pairs", n))
        assert np.all(i < j) and np.all(i >= 0) and np.all(j < n)
        ranks = i * (2 * n - i - 1) // 2 + (j - i - 1)
        assert len(set(ranks.tolist())) == k
    with pytest.raises(ValueError):
        _sample_distinct_pairs(3, 4, derive_rng(0))


def _set_sampler(n_rows, n_pairs, rng):
    # reference: rejection sampling into a Python set, which
    # _sample_distinct_pairs must match draw for draw; returns the decoded
    # codes and the number of rounds taken
    total = n_rows * (n_rows - 1) // 2
    seen, rounds = set(), 0
    while len(seen) < n_pairs:
        seen.update(rng.integers(0, total, size=n_pairs - len(seen)).tolist())
        rounds += 1
    codes = np.array(sorted(seen), dtype=np.int64)
    # row i's pairs start at code starts[i], in integers throughout
    starts = np.r_[0, np.cumsum(np.arange(n_rows - 1, 0, -1))]
    i = np.searchsorted(starts, codes, side="right") - 1
    j = codes - starts[i] + i + 1
    return i, j, rounds


@pytest.mark.parametrize("stream", [None, 0])
def test_sample_distinct_pairs_draws_as_the_set_sampler(stream):
    # two independent streams per size, so a match is not one seed's accident
    tags = ("pairs",) if stream is None else ("pairs", stream)
    for n, k in ((30, 434), (200, 15_000), (700, 200_000)):
        ref_rng, rng = derive_rng(9, *tags, n), derive_rng(9, *tags, n)
        ref_i, ref_j, rounds = _set_sampler(n, k, ref_rng)
        i, j = _sample_distinct_pairs(n, k, rng)
        assert rounds >= 3
        assert np.array_equal(i, ref_i) and np.array_equal(j, ref_j)
        # same draws, sizes and order: both streams end in the same state
        assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)


def test_sample_distinct_pairs_sparse_draws_as_the_set_sampler():
    n, k = 12_000, 1000
    ref_i, ref_j, _ = _set_sampler(n, k, derive_rng(10, "pairs"))
    i, j = _sample_distinct_pairs(n, k, derive_rng(10, "pairs"))
    assert np.array_equal(i, ref_i) and np.array_equal(j, ref_j)


@pytest.mark.parametrize("n_rows", [2000, 100_000])  # many rounds, few rounds
def test_sample_distinct_pairs_memory_is_bounded(n_rows):
    n_pairs = 1_000_000
    tracemalloc.start()
    try:
        _sample_distinct_pairs(n_rows, n_pairs, derive_rng(11, "pairs"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # six int64 arrays of n_pairs; the set-based sampler peaked at 98.6 MB
    assert peak < 6 * 8 * n_pairs


def test_median_rejects_non_finite_rows():
    x = derive_rng(12, "median").standard_normal((50, 2))  # exact path
    x[7, 1] = np.nan
    with pytest.raises(NumericalError):
        median_heuristic(x)
    x = derive_rng(13, "median").standard_normal((2000, 2))  # sampled path
    x[1234] = np.inf
    with pytest.raises(NumericalError):
        median_heuristic(x)


# ---------------------------------------------------------------------------
# feature maps
# ---------------------------------------------------------------------------

def test_build_feature_map_is_deterministic():
    a = build_feature_map(3, 16, 1.5, derive_rng(8, "fm"))
    b = build_feature_map(3, 16, 1.5, derive_rng(8, "fm"))
    assert np.array_equal(a.frequencies, b.frequencies)
    assert np.array_equal(a.phases, b.phases)


def test_build_feature_map_frequency_scale():
    # frequencies are N(0, 1/l^2): half-normal mean of |W| is sqrt(2/pi)/l
    fm = build_feature_map(1, 20000, 2.0, derive_rng(9, "fm"))
    assert np.mean(np.abs(fm.frequencies)) == pytest.approx(np.sqrt(2 / np.pi) / 2.0, rel=0.03)
    assert np.all((fm.phases >= 0) & (fm.phases < 2 * np.pi))
    big = build_feature_map(1, 20000, 1e8, derive_rng(9, "fm"))
    assert np.max(np.abs(big.frequencies)) < 1e-6


def test_build_feature_map_validates_args():
    rng = derive_rng(0)
    with pytest.raises(ValueError):
        build_feature_map(0, 4, 1.0, rng)
    with pytest.raises(ValueError):
        build_feature_map(2, 4, 0.0, rng)
    with pytest.raises(ValueError):
        build_feature_map(2, 4, np.inf, rng)


def test_rff_constant_map_and_bound():
    fm = FeatureMap(dim=2, n_features=8, bandwidth=1.0,
                    frequencies=np.zeros((8, 2)), phases=np.zeros(8))
    z = rff_matrix(fm, np.array([[3.0, -1.0]]))[0]
    assert np.allclose(z, np.sqrt(2.0 / 8))
    fm2 = build_feature_map(2, 64, 0.7, derive_rng(10, "fm"))
    for _ in range(20):
        z = rff_matrix(fm2, derive_rng(10, "x").standard_normal((1, 2)) * 100)[0]
        assert np.all(np.abs(z) <= np.sqrt(2.0 / 64) + 1e-15)


def test_rff_inner_product_approximates_kernel():
    # mean over 50 feature-map seeds of z(x).z(y) vs exact RBF, within 3 SE
    bandwidth = 1.3
    x = np.array([0.4, -0.2])
    y = np.array([-0.6, 0.9])
    exact = np.exp(-np.sum((x - y) ** 2) / (2 * bandwidth ** 2))
    vals = []
    for seed in range(50):
        fm = build_feature_map(2, 512, bandwidth, derive_rng(11, "fm", seed))
        vals.append(float(rff_matrix(fm, x[None, :])[0] @ rff_matrix(fm, y[None, :])[0]))
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - exact) <= 3 * se + 1e-12


def test_rff_self_inner_product_near_one():
    x = np.array([1.0, 2.0])
    for seed in range(5):
        fm = build_feature_map(2, 512, 1.0, derive_rng(12, "fm", seed))
        z = rff_matrix(fm, x[None, :])[0]
        assert abs(float(z @ z) - 1.0) < 0.1


def test_rff_matrix_is_exact_in_one_buffer():
    fm = build_feature_map(25, 512, 2.0, derive_rng(23, "fm"))
    x = derive_rng(23, "x").standard_normal((2000, 25)) * 3.0
    # the textbook expression, with its four full-size temporaries
    expected = np.sqrt(2.0 / fm.n_features) * np.cos(x @ fm.frequencies.T + fm.phases)
    tracemalloc.start()
    try:
        feats = rff_matrix(fm, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(feats, expected)
    assert peak < 1.5 * feats.nbytes


def test_rff_rejects_wrong_dim():
    fm = build_feature_map(3, 4, 1.0, derive_rng(0))
    with pytest.raises(ValueError):
        rff_matrix(fm, np.ones((1, 2)))
    with pytest.raises(ValueError):
        rff_matrix(fm, np.ones((5, 2)))


# ---------------------------------------------------------------------------
# mean embeddings
# ---------------------------------------------------------------------------

def test_mean_embedding_single_row_equals_rff():
    fm = build_feature_map(2, 32, 1.0, derive_rng(13, "fm"))
    x = np.array([0.3, -1.2])
    emb = mean_embedding(fm, x[None, :])
    assert np.array_equal(emb, rff_matrix(fm, x[None, :])[0])


def test_mean_embedding_duplicate_invariance():
    fm = build_feature_map(2, 32, 1.0, derive_rng(14, "fm"))
    x = derive_rng(14, "x").standard_normal((6, 2))
    a = mean_embedding(fm, x)
    b = mean_embedding(fm, np.vstack([x, x]))
    assert np.allclose(a, b, rtol=0.0, atol=1e-15)


def test_mean_embedding_matches_loop_oracle():
    fm = build_feature_map(3, 16, 0.8, derive_rng(15, "fm"))
    x = derive_rng(15, "x").standard_normal((7, 3))
    acc = np.zeros(16)
    for row in x:
        acc += np.sqrt(2.0 / 16) * np.cos(fm.frequencies @ row + fm.phases)
    assert np.allclose(mean_embedding(fm, x), acc / 7, rtol=0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# MMD estimators
# ---------------------------------------------------------------------------

def test_mmd2_exact_identical_samples_is_zero():
    x = derive_rng(16, "x").standard_normal((20, 2))
    assert abs(mmd2_exact_many(1.0, [x], x)[0]) < 1e-12


def test_mmd2_exact_two_point_closed_form():
    for c, ell in [(1.0, 1.0), (3.0, 0.5), (0.2, 2.0)]:
        got = mmd2_exact_many(ell, [np.array([[0.0]])], np.array([[c]]))[0]
        want = 2.0 - 2.0 * np.exp(-c * c / (2 * ell * ell))
        assert got == pytest.approx(want, rel=1e-12)


def test_mmd2_exact_separates_distributions():
    hits = 0
    for seed in range(100):
        rng = derive_rng(17, "mmd", seed)
        same_a = rng.standard_normal((200, 1))
        same_b = rng.standard_normal((200, 1))
        shifted = rng.standard_normal((200, 1)) + 3.0
        pool = np.vstack([same_a, shifted])
        ell = median_heuristic(pool)
        d_same = mmd2_exact_many(ell, [same_a], same_b)[0]
        d_diff = mmd2_exact_many(ell, [same_a], shifted)[0]
        assert 0.0 < d_diff <= 2.0
        hits += d_diff > d_same
    assert hits >= 95


def test_mmd2_exact_matches_three_temporary_formula():
    # one buffer per kernel mean must not change a bit of the value; each
    # self-term is the diagonal plus twice the sum over one triangle
    for seed in range(10):
        rng = derive_rng(20, "mmd", seed)
        d = int(rng.integers(1, 6))
        x = rng.standard_normal((int(rng.integers(2, 300)), d))
        y = rng.standard_normal((int(rng.integers(2, 300)), d)) + 0.5
        ell = float(rng.uniform(0.2, 3.0))
        gamma = 1.0 / (2.0 * ell * ell)
        n_x, n_y = len(x), len(y)
        kxx = (n_x + 2.0 * np.exp(-gamma * pdist(x, metric="sqeuclidean")).sum()) / (n_x * n_x)
        kyy = (n_y + 2.0 * np.exp(-gamma * pdist(y, metric="sqeuclidean")).sum()) / (n_y * n_y)
        kxy = np.exp(-gamma * cdist(x, y, metric="sqeuclidean")).mean()
        assert mmd2_exact_many(ell, [x], y)[0] == float(kxx + kyy - 2.0 * kxy)


def test_triangle_self_term_matches_the_full_matrix_mean():
    for seed in range(10):
        rng = derive_rng(21, "self", seed)
        x = rng.standard_normal((int(rng.integers(1, 400)), int(rng.integers(1, 6))))
        gamma = float(rng.uniform(0.05, 5.0))
        full = np.exp(-gamma * cdist(x, x, metric="sqeuclidean")).mean()
        assert _self_mean(gamma, x) == pytest.approx(full, rel=1e-13)
    assert _self_mean(1.0, np.zeros((1, 3))) == 1.0


def test_mmd2_exact_symmetry_and_validation():
    # swapping the samples sums the cross term in another order, so the
    # value agrees to roundoff, not bit for bit
    rng = derive_rng(18, "mmd")
    for _ in range(20):
        n_x, n_y = rng.integers(20, 401, size=2)
        x, y = rng.standard_normal((n_x, 2)), rng.standard_normal((n_y, 2)) + 0.5
        assert mmd2_exact_many(1.3, [x], y)[0] == pytest.approx(mmd2_exact_many(1.3, [y], x)[0],
                                                                rel=1e-12)
    with pytest.raises(ValueError):
        mmd2_exact_many(1.0, [x], rng.standard_normal((5, 3)))
    with pytest.raises(ValueError):
        mmd2_exact_many(-1.0, [x], y)


def test_mmd2_rff_matches_exact_within_tolerance():
    # 2-d samples of size 200; |rff - exact| <= 0.05 averaged over 20 seeds
    rng = derive_rng(19, "data")
    x = rng.standard_normal((200, 2))
    y = rng.standard_normal((200, 2)) + 0.8
    ell = median_heuristic(np.vstack([x, y]))
    exact = mmd2_exact_many(ell, [x], y)[0]
    errs = []
    for seed in range(20):
        fm = build_feature_map(2, 512, ell, derive_rng(19, "fm", seed))
        approx = mmd2_rff(fm, mean_embedding(fm, x), mean_embedding(fm, y))
        assert approx >= -1e-12
        errs.append(abs(approx - exact))
    assert np.mean(errs) <= 0.05


def test_mmd2_rff_error_decreases_with_features():
    rng = derive_rng(20, "data")
    x = rng.standard_normal((200, 2))
    y = rng.standard_normal((200, 2)) + 1.0
    ell = median_heuristic(np.vstack([x, y]))
    exact = mmd2_exact_many(ell, [x], y)[0]
    med_err = []
    for n_feat in (32, 128, 512):
        errs = []
        for seed in range(15):
            fm = build_feature_map(2, n_feat, ell, derive_rng(20, "fm", n_feat, seed))
            errs.append(abs(mmd2_rff(fm, mean_embedding(fm, x), mean_embedding(fm, y)) - exact))
        med_err.append(np.median(errs))
    assert med_err[0] > med_err[1] > med_err[2]


def test_mmd2_rff_symmetry_and_shape_check():
    fm = build_feature_map(2, 16, 1.0, derive_rng(21, "fm"))
    rng = derive_rng(21, "data")
    a = mean_embedding(fm, rng.standard_normal((5, 2)))
    b = mean_embedding(fm, rng.standard_normal((9, 2)))
    assert mmd2_rff(fm, a, b) == mmd2_rff(fm, b, a)
    assert mmd2_rff(fm, a, a) == 0.0
    bad = mean_embedding(build_feature_map(2, 8, 1.0, derive_rng(0)), rng.standard_normal((3, 2)))
    with pytest.raises(ValueError):
        mmd2_rff(fm, a, bad)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_feature_map_round_trip_exact():
    fm = build_feature_map(4, 32, 1.7, derive_rng(22, "fm"))
    clone = feature_map_from_payload(saved_form(feature_map_to_payload(fm)))
    assert clone.dim == fm.dim and clone.n_features == fm.n_features
    assert clone.bandwidth == fm.bandwidth
    assert np.array_equal(clone.frequencies, fm.frequencies)
    assert np.array_equal(clone.phases, fm.phases)
    assert not np.shares_memory(clone.frequencies, fm.frequencies)
    assert not np.shares_memory(clone.phases, fm.phases)
    x = np.array([[0.1, -0.7, 2.0, 0.0]])
    assert np.array_equal(rff_matrix(clone, x), rff_matrix(fm, x))
