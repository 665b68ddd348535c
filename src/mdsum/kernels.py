"""RBF kernel tooling: bandwidth selection, random Fourier features, MMD.

The kernel is k(x, y) = exp(-||x - y||^2 / (2 l^2)). Its random Fourier
approximation uses frequencies W with rows drawn i.i.d. from
N(0, (1/l^2) I) and phases b ~ U[0, 2 pi):

    z(x) = sqrt(2 / K) * cos(W x + b)

so that z(x) . z(y) is an unbiased estimate of k(x, y), and the squared
distance between mean embeddings estimates the biased (V-statistic) MMD^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .util import as_2d_f64, check_finite, check_shape, decode_floats, reads_payload

BANDWIDTH_FLOOR = 1e-8
# distinct pairs above which median_heuristic takes a sample of this many
MAX_PAIRS = 1_000_000
# numpy's axis-1 sum adds fewer terms than this in order, and more by
# pairwise blocks of 8; median_heuristic's sampled path takes narrower rows
# column by column, since an in-order sum over columns then gives its bits
PAIRWISE_WIDTH = 8
# pairs per block of the sampled path's column-wise sums (512 KiB a column)
PAIR_BLOCK = 1 << 16
# bytes of pair differences the sampled path gathers at a time on rows of
# PAIRWISE_WIDTH or more columns, which bounds its temporaries at any width
GATHER_BYTES = 1 << 24


@dataclass
class FeatureMap:
    dim: int
    n_features: int
    bandwidth: float
    frequencies: np.ndarray  # (K, d)
    phases: np.ndarray  # (K,)


def _sample_distinct_pairs(n_rows: int, n_pairs: int, rng: np.random.Generator):
    """n_pairs distinct (i, j) index pairs with i < j, without replacement."""
    total = n_rows * (n_rows - 1) // 2
    if n_pairs > total:
        raise ValueError(f"cannot draw {n_pairs} distinct pairs from {total}")
    # each round draws as many pair codes as are still missing and keeps the
    # new ones in codes, sorted and distinct; when n_pairs is a large share
    # of total (half of all pairs at 2000 rows and 1M pairs) this takes many
    # rounds
    codes = np.empty(0, dtype=np.int64)
    while codes.size < n_pairs:
        draw = rng.integers(0, total, size=n_pairs - codes.size)
        draw.sort()
        draw = draw[np.r_[True, draw[1:] != draw[:-1]]]
        if codes.size == 0:  # the first and largest round needs no merge
            codes = draw
            continue
        # one np.insert of the codes not yet held keeps codes sorted
        pos = np.searchsorted(codes, draw)
        fresh = codes[np.minimum(pos, codes.size - 1)] != draw
        codes = np.insert(codes, pos[fresh], draw[fresh])
    # decode pair rank to (i, j), i < j, pairs ordered (0,1),(0,2),...,(1,2),...;
    # row k's codes start at starts[k], and codes is sorted, so row k repeats
    # once per code between starts[k] and starts[k + 1]
    k = np.arange(n_rows, dtype=np.int64)
    starts = k * (2 * n_rows - k - 1) // 2
    i = np.repeat(k, np.diff(np.searchsorted(codes, starts), append=codes.size))
    j = codes - starts[i] + i + 1
    return i, j


def _median_in_place(v: np.ndarray) -> float:
    """np.median of a 1-D array, from one partition that reorders v.

    np.median partitions at both middle ranks (and the last, for NaNs); one
    partition at m = size // 2 leaves the lower middle value as the maximum
    of v[:m], and np.mean of the pair rounds as np.median does.
    """
    m = v.size // 2
    v.partition(m)
    middle = v[m:m + 1] if v.size % 2 else np.array([v[:m].max(), v[m]])
    return float(np.mean(middle))


def median_heuristic(data, rng: np.random.Generator | None = None) -> float:
    """Median pairwise Euclidean distance, floored at BANDWIDTH_FLOOR.

    When the number of distinct pairs exceeds MAX_PAIRS, a uniform
    without-replacement subsample of MAX_PAIRS pairs is used, drawn from
    rng (which then advances on every such call; with all pairs measured it
    is not drawn from). Without rng each call draws from a fresh
    np.random.default_rng(0), so the pairs depend only on the row count.

    On the sampled path every distance has the bits of
    np.sqrt(np.sum((x[i] - x[j]) ** 2, axis=1)). Rows narrower than
    PAIRWISE_WIDTH add their squared column differences one column after
    another, in blocks of PAIR_BLOCK pairs, as numpy adds so few terms;
    wider rows, where numpy's sum goes pairwise, are gathered whole, in
    GATHER_BYTES chunks, and reduced by np.sum itself.
    """
    x = as_2d_f64("data", data)
    check_finite("data", x)
    n, width = x.shape
    if n < 2:
        raise ValueError(f"median heuristic needs at least 2 rows, got {n}")
    total = n * (n - 1) // 2
    if total <= MAX_PAIRS:
        dists = pdist(x, metric="euclidean")
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        i, j = _sample_distinct_pairs(n, MAX_PAIRS, rng)
        # take gathers far faster than fancy indexing, and the in-place
        # steps keep every distance bit-identical
        dists = np.zeros(MAX_PAIRS)
        if width < PAIRWISE_WIDTH:
            cols = x.T.copy()  # each column contiguous
            for start in range(0, MAX_PAIRS, PAIR_BLOCK):
                rows = slice(start, start + PAIR_BLOCK)
                block = dists[rows]
                for col in cols:
                    diff = col.take(i[rows])
                    diff -= col.take(j[rows])
                    diff *= diff
                    block += diff  # 0.0 + a square is the square's own bits
        else:
            chunk = max(1, GATHER_BYTES // x[0].nbytes)
            for start in range(0, MAX_PAIRS, chunk):
                rows = slice(start, start + chunk)
                diff = x.take(i[rows], axis=0)
                diff -= x.take(j[rows], axis=0)
                diff *= diff
                np.sum(diff, axis=1, out=dists[rows])
        np.sqrt(dists, out=dists)
    # dists is this call's own buffer, so the median may reorder it
    return max(_median_in_place(dists), BANDWIDTH_FLOOR)


def build_feature_map(dim: int, n_features: int, bandwidth: float,
                      rng: np.random.Generator) -> FeatureMap:
    if dim < 1 or n_features < 1:
        raise ValueError(f"dim and n_features must be positive, got {dim}, {n_features}")
    if not (bandwidth > 0.0 and np.isfinite(bandwidth)):
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
    freqs = rng.standard_normal((n_features, dim)) / bandwidth
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_features)
    return FeatureMap(dim=dim, n_features=n_features, bandwidth=float(bandwidth),
                      frequencies=freqs, phases=phases)


def rff_matrix(fm: FeatureMap, data) -> np.ndarray:
    """Feature vectors for all rows of a (N, d) dataset, returned as (N, K)."""
    x = as_2d_f64("data", data)
    if x.shape[1] != fm.dim:
        raise ValueError(f"expected rows of length {fm.dim}, got {x.shape[1]}")
    # in place after the product: one (N, K) buffer instead of four, with
    # the same element-wise operations, so the values are bit-identical
    z = x @ fm.frequencies.T
    z += fm.phases
    np.cos(z, out=z)
    z *= np.sqrt(2.0 / fm.n_features)
    return z


def mean_embedding(fm: FeatureMap, data) -> np.ndarray:
    """The (K,) mean of the feature vectors of a dataset's rows."""
    return rff_matrix(fm, data).mean(axis=0)


def mmd2_rff(fm: FeatureMap, a: np.ndarray, b: np.ndarray) -> float:
    """Squared distance between mean embeddings; the RFF estimate of MMD^2."""
    if a.shape != (fm.n_features,) or b.shape != (fm.n_features,):
        raise ValueError("embedding length does not match the feature map")
    d = a - b
    return float(d @ d)


def _kernel_mean(gamma: float, a: np.ndarray, b: np.ndarray) -> float:
    """Mean of exp(-gamma ||a_i - b_j||^2) over all pairs, in one buffer."""
    k = cdist(a, b, metric="sqeuclidean")
    k *= -gamma
    np.exp(k, out=k)
    return k.mean()


def _self_mean(gamma: float, x: np.ndarray) -> float:
    """_kernel_mean(gamma, x, x) from one triangle: the n diagonal entries
    are exp(0) = 1, and each distinct pair appears twice."""
    n = x.shape[0]
    k = pdist(x, metric="sqeuclidean")
    k *= -gamma
    np.exp(k, out=k)
    return (n + 2.0 * k.sum()) / (n * n)


def mmd2_exact_many(bandwidth: float, sample_sets, reference) -> list[float]:
    """Biased (V-statistic) MMD^2 of each sample set to one reference under
    the exact RBF kernel; the reference's self-term is computed once.

    Each value is >= -1e-12 up to roundoff. A set and the reference are
    not interchangeable in the last bits: the cross term averages the
    (set, reference) kernel matrix, whose transpose sums in another order.
    """
    if not (bandwidth > 0.0 and np.isfinite(bandwidth)):
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
    y = as_2d_f64("reference", reference)
    check_finite("reference", y)
    gamma = 1.0 / (2.0 * bandwidth * bandwidth)
    kyy = _self_mean(gamma, y)
    out = []
    for xs in sample_sets:
        x = as_2d_f64("sample set", xs)
        if x.shape[1] != y.shape[1]:
            raise ValueError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
        check_finite("sample set", x)
        out.append(float(_self_mean(gamma, x) + kyy - 2.0 * _kernel_mean(gamma, x, y)))
    return out


def feature_map_to_payload(fm: FeatureMap) -> dict:
    return {
        "kind": "feature_map",
        "dim": fm.dim,
        "n_features": fm.n_features,
        "bandwidth": np.array([fm.bandwidth]),
        "frequencies": fm.frequencies,
        "phases": fm.phases,
    }


@reads_payload
def feature_map_from_payload(payload: dict) -> FeatureMap:
    if payload.get("kind") != "feature_map":
        raise ValueError(f"not a feature map payload: kind={payload.get('kind')!r}")
    dim, n_features = int(payload["dim"]), int(payload["n_features"])
    return FeatureMap(
        dim=dim,
        n_features=n_features,
        bandwidth=float(decode_floats(payload["bandwidth"])[0]),
        frequencies=check_shape("frequencies", decode_floats(payload["frequencies"]),
                                (n_features, dim)),
        phases=check_shape("phases", decode_floats(payload["phases"]), (n_features,)),
    )
