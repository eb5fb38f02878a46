import re

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from smiclust.data import ConstraintSet, empty_constraints, make_blobs, sample_constraints
from smiclust.kernel import (
    FeatureScaleError,
    _tree_nearest,
    apply_constraints,
    finite_number,
    local_scaling_kernel,
    nearest_neighbors,
    query_kernel,
)


@pytest.mark.parametrize(
    "value, positive",
    [("5", False), (True, False), (None, False), ([1], False), (10**400, False),
     (-1, False), (np.nan, False), (-np.inf, False), (0, True), (-0.0, True)],
    ids=["string", "bool", "none", "list", "int-beyond-float64", "negative", "nan", "-inf",
         "zero-positive", "minus-zero-positive"],
)
def test_finite_number_refuses_by_name(value, positive):
    sign = "positive" if positive else "non-negative"
    message = f"x must be finite and {sign}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        finite_number("x", value, positive)


def test_finite_number_returns_a_float():
    for value, positive in [(3, True), (0, False), (-0.0, False), (np.float64(2.5), True),
                            (np.int64(7), False), (1e308, True)]:
        number = finite_number("x", value, positive)
        assert type(number) is float and number == value

def dense_kernel_oracle(points, t):
    """Loop transcription of the sparse local-scaling kernel definition."""
    n = len(points)
    dist = np.array([[np.linalg.norm(points[i] - points[j]) for j in range(n)] for i in range(n)])
    neigh = []
    for i in range(n):
        order = sorted((dist[i, j], j) for j in range(n) if j != i)
        neigh.append([j for _, j in order[:t]])
    sigma = np.array([dist[i, neigh[i][t - 1]] for i in range(n)])
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                out[i, j] = 1.0
            elif i in neigh[j] or j in neigh[i]:
                if dist[i, j] == 0:
                    out[i, j] = 1.0
                elif sigma[i] * sigma[j] == 0:
                    out[i, j] = 0.0
                else:
                    out[i, j] = np.exp(-dist[i, j] ** 2 / (2 * sigma[i] * sigma[j]))
    return out


class TestNearestNeighbors:
    def test_points_on_a_line(self):
        x = np.array([[0.0], [1.0], [3.0]])
        neigh, sigma = nearest_neighbors(x, 1)
        assert np.array_equal(neigh.ravel(), [1, 0, 1])
        assert np.allclose(sigma, [1.0, 1.0, 2.0])

    def test_full_neighborhood(self):
        x = np.random.default_rng(0).standard_normal((6, 2))
        neigh, _ = nearest_neighbors(x, 5)
        for i in range(6):
            assert set(neigh[i]) == set(range(6)) - {i}

    def test_duplicates_give_zero_sigma(self):
        x = np.array([[1.0], [1.0], [5.0]])
        _, sigma = nearest_neighbors(x, 1)
        assert sigma[0] == 0.0 and sigma[1] == 0.0

    def test_ties_broken_by_lower_index(self):
        # points 1 and 2 are equidistant from point 0
        x = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [5.0, 5.0]])
        neigh, _ = nearest_neighbors(x, 2)
        assert neigh[0].tolist() == [1, 2]

    @pytest.mark.parametrize("t", [0, 5, -1])
    def test_t_out_of_range(self, t):
        with pytest.raises(ValueError):
            nearest_neighbors(np.zeros((5, 1)), t)



class TestNearestPartialSort:
    """The kNN against a stable full sort, byte for byte, on tie-heavy distances.

    The self case runs ``nearest_neighbors``, the query case ``_tree_nearest``.
    """

    @pytest.mark.parametrize("decimals", [0, 1, 2])
    @pytest.mark.parametrize("shape", ["self", "query"])
    def test_matches_stable_argsort(self, decimals, shape):
        rng = np.random.default_rng(decimals)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            x = np.round(rng.uniform(0, 3, (n, 2)), decimals)
            if shape == "self":
                queries = None
                dist = cdist(x, x)
                np.fill_diagonal(dist, np.inf)
            else:
                m = int(rng.integers(1, 60))
                m += m == n
                queries = np.round(rng.uniform(0, 3, (m, 2)), decimals)
                dist = cdist(queries, x)
            for t in sorted({1, int(rng.integers(1, n)), n - 1}):
                if queries is None:
                    neighbors, kth = nearest_neighbors(x, t)
                else:
                    neighbors, kth = _tree_nearest(x, queries, t)
                want = np.argsort(dist, axis=1, kind="stable")[:, :t]
                assert neighbors.dtype == want.dtype
                assert neighbors.tobytes() == want.tobytes()
                assert kth.tobytes() == dist[np.arange(dist.shape[0]), want[:, -1]].tobytes()

class TestLocalScalingKernel:
    def test_points_on_a_line(self):
        x = np.array([[0.0], [1.0], [3.0]])
        k = local_scaling_kernel(x, 1)
        assert np.isclose(k.entries[0, 1], np.exp(-0.5))
        assert k.entries[0, 2] == 0.0  # neighborhood condition fails
        assert np.isclose(k.entries[1, 2], np.exp(-1.0))

    def test_diagonal_is_one(self):
        x = np.random.default_rng(1).standard_normal((20, 3))
        k = local_scaling_kernel(x, 4)
        assert np.array_equal(np.diag(k.entries), np.ones(20))

    def test_duplicate_points_entry_one(self):
        x = np.array([[2.0, 2.0], [2.0, 2.0], [0.0, 0.0], [5.0, 1.0]])
        k = local_scaling_kernel(x, 1)
        assert k.entries[0, 1] == 1.0 and k.entries[1, 0] == 1.0

    @pytest.mark.parametrize("t", [1, 3, 7])
    def test_matches_dense_oracle(self, t):
        x = np.random.default_rng(t).standard_normal((12, 2))
        k = local_scaling_kernel(x, t)
        assert np.allclose(k.entries, dense_kernel_oracle(x, t), atol=1e-12)

    def test_symmetric_with_bounded_entries(self):
        x = np.random.default_rng(2).standard_normal((30, 4))
        k = local_scaling_kernel(x, 5).entries
        assert np.array_equal(k, k.T)
        assert k.min() >= 0.0 and k.max() <= 1.0

    def test_pattern_grows_with_t(self):
        x = np.random.default_rng(3).standard_normal((25, 2))
        previous = local_scaling_kernel(x, 1).entries != 0
        for t in range(2, 10):
            current = local_scaling_kernel(x, t).entries != 0
            assert np.all(current[previous])
            previous = current

    def test_permutation_commutes(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((15, 3))
        perm = rng.permutation(15)
        direct = local_scaling_kernel(x[perm], 3).entries
        permuted = local_scaling_kernel(x, 3).entries[np.ix_(perm, perm)]
        assert np.allclose(direct, permuted, atol=1e-12)


class TestApplyConstraints:
    def test_empty_constraints_bitwise_equal(self):
        x = np.random.default_rng(5).standard_normal((10, 2))
        k = local_scaling_kernel(x, 2)
        edited = apply_constraints(k, empty_constraints(10))
        assert np.array_equal(edited.entries, k.entries)

    def test_must_link_densifies_zero_entry(self):
        x = np.array([[0.0], [1.0], [50.0], [51.0]])
        k = local_scaling_kernel(x, 1)
        assert k.entries[0, 2] == 0.0
        edited = apply_constraints(k, ConstraintSet(((0, 2),), (), 4))
        assert edited.entries[0, 2] == 1.0 and edited.entries[2, 0] == 1.0

    def test_cannot_link_overrides(self):
        x = np.array([[0.0], [1.0], [3.0]])
        k = local_scaling_kernel(x, 1)
        assert k.entries[0, 1] > 0.5
        edited = apply_constraints(k, ConstraintSet((), ((0, 1),), 3))
        assert edited.entries[0, 1] == 0.0 and edited.entries[1, 0] == 0.0

    def test_dimension_mismatch(self):
        x = np.zeros((4, 1))
        k = local_scaling_kernel(np.random.default_rng(0).standard_normal((4, 1)), 1)
        message = "^constraint set is over n=5 samples, kernel over n=4$"
        with pytest.raises(ValueError, match=message):
            apply_constraints(k, empty_constraints(5))

    def test_result_invariants_hold(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((20, 2))
        labels = rng.integers(1, 3, size=20)
        cs = sample_constraints(labels, 30, seed=1)
        edited = apply_constraints(local_scaling_kernel(x, 3), cs).entries
        assert np.array_equal(edited, edited.T)
        assert edited.min() >= 0.0 and edited.max() <= 1.0
        assert np.array_equal(np.diag(edited), np.ones(20))


def test_ball_query_overflow_is_a_feature_scale_error():
    """Groups at +-1e154 have finite kNN distances, but the k-d tree's ball queries overflow
    on the far pairs: both kernels refuse with the rescale hint, not scipy's message."""
    ds = make_blobs(10, 2, 2, 3.0, seed=0)
    hint = "^squared distances between points overflow float64; rescale the features"
    far = ds.features + np.where(ds.labels == 1, 1e154, -1e154)[:, None]
    with pytest.raises(FeatureScaleError, match=hint):
        local_scaling_kernel(far, 3)
    _, sigma = nearest_neighbors(ds.features, 3)
    queries = np.array([[1.2e154, 0.0], [-1.2e154, 0.0], [0.0, 1.2e154]])
    with pytest.raises(FeatureScaleError, match=hint):
        query_kernel(ds.features, sigma, 3, queries)
