import json
import re
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from oracles import (
    Dense,
    cannot_link_matrix,
    dense_constraints,
    eigh_top_eigenpairs,
    must_link_matrix,
    objective_entries,
    smi_score,
    unsupervised_labels,
)
from smiclust import solver
from smiclust.data import ConstraintSet, Dataset, empty_constraints, make_blobs, sample_constraints
from smiclust.evaluation import BenchmarkConfig, adjusted_rand_index
from smiclust.kernel import (
    FeatureScaleError,
    KernelMatrix,
    apply_constraints,
    local_scaling_kernel,
    nearest_neighbors,
)
from smiclust.lsmi import fit_ratio_model
from smiclust.model_select import grid_search
from smiclust.solver import (
    ClusterModel,
    PredictionError,
    _query_kernel,
    assign_clusters,
    cluster,
    fix_signs,
    load_model,
    objective_matrix,
    predict,
    save_model,
    top_eigenpairs,
)


def u_oracle(k, m, c_mat, gamma, eta):
    """Dense-product transcription of the objective matrix definition."""
    eye = np.eye(k.shape[0])
    inner = 2 * eye + 2 * gamma * m + gamma**2 * (m @ m) - 2 * eta * c_mat + eta**2 * (c_mat @ c_mat)
    return k @ inner @ k


def assign_oracle(phi):
    """Loop transcription of the assignment rule."""
    n, c = phi.shape
    scores = np.zeros((n, c))
    for y in range(c):
        clipped = np.maximum(phi[:, y], 0.0)
        if not np.any(clipped > 0):
            clipped = np.abs(phi[:, y])
        total = clipped.sum()
        scores[:, y] = clipped / total if total > 0 else 0.0
    labels = np.empty(n, dtype=int)
    for i in range(n):
        best_y, best_v = 0, -np.inf
        for y in range(c):
            if scores[i, y] > best_v:
                best_v, best_y = scores[i, y], y
        labels[i] = best_y + 1
    return labels


def query_kernel_oracle(train, train_sigma, t, queries):
    """Loop transcription of the query-kernel rule in ``_query_kernel``'s docstring."""
    out = np.zeros((queries.shape[0], train.shape[0]))
    for q, x in enumerate(queries):
        dist = [float(np.sqrt(np.sum((x - z) ** 2))) for z in train]
        nearest = sorted(range(len(dist)), key=lambda j: (dist[j], j))[:t]
        sigma_q = dist[nearest[-1]]
        for j, d in enumerate(dist):
            if j not in nearest and d > train_sigma[j]:
                continue
            if d == 0:
                out[q, j] = 1.0
            elif sigma_q * train_sigma[j] > 0:
                out[q, j] = np.exp(-(d**2) / (2.0 * sigma_q * train_sigma[j]))
    return out


def random_kernel_like(rng, n):
    """Random symmetric matrix with entries in [0, 1] and unit diagonal."""
    a = rng.uniform(0, 1, size=(n, n))
    k = (a + a.T) / 2
    np.fill_diagonal(k, 1.0)
    return k


class TestObjectiveMatrix:
    def test_reduces_to_twice_squared_kernel(self):
        x = np.random.default_rng(0).standard_normal((8, 2))
        k = local_scaling_kernel(x, 3)
        u = objective_matrix(k, 0.0, 0.0, 2)
        assert np.allclose(objective_entries(u), 2 * k.entries @ k.entries, atol=1e-12)

    def test_gamma_without_links_scales(self):
        x = np.random.default_rng(1).standard_normal((6, 2))
        k = local_scaling_kernel(x, 2)
        u = objective_matrix(k, 1.0, 0.0, 2)
        assert np.allclose(objective_entries(u), 5 * k.entries @ k.entries, atol=1e-12)

    def test_single_must_link_against_oracle(self):
        x = np.random.default_rng(2).standard_normal((7, 2))
        k = local_scaling_kernel(x, 2)
        cs = ConstraintSet(((1, 4),), (), 7)
        u = objective_matrix(apply_constraints(k, cs), 1.0, 0.0, 2)
        edited = dense_constraints(k.entries, cs)
        expected = u_oracle(edited, must_link_matrix(cs), cannot_link_matrix(cs), 1.0, 0.0)
        assert np.allclose(objective_entries(u), expected, atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_instances_against_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 21))
        k = random_kernel_like(rng, n)
        labels = rng.integers(1, 3, size=n)
        cs = sample_constraints(labels, int(rng.integers(0, n)), seed=seed)
        gamma = float(rng.uniform(0, 3))
        eta = float(rng.uniform(0, 3))
        u = objective_matrix(apply_constraints(KernelMatrix(k, t=1), cs), gamma, eta, 2)
        edited = dense_constraints(k, cs)
        expected = u_oracle(edited, must_link_matrix(cs), cannot_link_matrix(cs), gamma, eta)
        dense = objective_entries(u)
        assert np.allclose(dense, expected, atol=1e-10)
        assert np.allclose(dense, dense.T, atol=1e-10)

    def test_eta_rejected_for_many_clusters(self):
        k = local_scaling_kernel(np.random.default_rng(3).standard_normal((6, 2)), 2)
        with pytest.raises(ValueError, match="eta"):
            objective_matrix(k, 0.0, 0.5, 3)

    def test_negative_strengths_rejected(self):
        k = local_scaling_kernel(np.random.default_rng(3).standard_normal((6, 2)), 2)
        with pytest.raises(ValueError):
            objective_matrix(k, -1.0, 0.0, 2)


class TestFusedInnerMatrix:
    """``objective_matrix`` builds ``B = 2I + 2g M + g^2 M^2 - 2e C + e^2 C^2`` once, as CSR."""

    @settings(deadline=None, max_examples=100)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 25),
        links=st.integers(0, 40),
        gamma=st.floats(0.0, 10.0),
        eta=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    )
    def test_equals_dense_definition(self, seed, n, links, gamma, eta):
        cs = random_links(np.random.default_rng(seed), n, links)
        edited = apply_constraints(KernelMatrix(np.eye(n), t=1), cs)
        inner = objective_matrix(edited, gamma, eta, 2).inner
        m, c_mat = must_link_matrix(cs), cannot_link_matrix(cs)
        eye = np.eye(n)
        want = 2 * eye + 2 * gamma * m + gamma**2 * (m @ m)
        want = want - 2 * eta * c_mat + eta**2 * (c_mat @ c_mat)
        assert inner.format == "csr" and inner.has_canonical_format
        assert np.all(inner.data != 0)
        assert np.array_equal(inner.toarray(), want)


class TestArpackCalls:
    """One ``eigsh`` call serves a connected problem without ties; a tie costs deflated calls."""

    def _calls(self, monkeypatch, matrix, c):
        from scipy.sparse import linalg

        calls, real = [], linalg.eigsh

        def counted(*args, **kwargs):
            calls.append(kwargs["k"])
            return real(*args, **kwargs)

        monkeypatch.setattr(linalg, "eigsh", counted)
        return calls, top_eigenpairs(matrix, c)

    def test_untied_problem_takes_one_call(self, monkeypatch):
        ds = make_blobs(200, 2, 2, 3.0, seed=1)
        cs = sample_constraints(ds.labels, 200, seed=2)
        edited = apply_constraints(local_scaling_kernel(ds.features, 5), cs)
        matrix = objective_matrix(edited, 1.0, 1.0, 2)
        calls, (lam, _) = self._calls(monkeypatch, matrix, 2)
        assert calls == [3]
        lam_ref, _ = eigh_top_eigenpairs(objective_entries(matrix), 2)
        assert np.allclose(lam, lam_ref, rtol=1e-10, atol=0)

    def test_tie_at_c_deflates(self, monkeypatch):
        # Three exact copies of one group, far apart: the top eigenvalue is threefold.
        base = np.random.default_rng(0).integers(0, 6, size=(10, 2)).astype(float)
        kernel = local_scaling_kernel(np.vstack([base + 1000.0 * k for k in range(3)]), 3)
        calls, (lam, phi) = self._calls(monkeypatch, Dense(kernel.entries), 2)
        lam_ref, phi_ref = eigh_top_eigenpairs(kernel.entries, 2)
        assert calls[0] == 3 and len(calls) > 1 and calls[1:] == [1] * (len(calls) - 1)
        assert lam[0] - lam[1] <= 1e-9 * lam[0]
        assert np.allclose(lam, lam_ref, rtol=1e-10, atol=0)
        assert np.allclose(phi, phi_ref, atol=1e-8)


class TestTopEigenpairs:
    def test_scaled_identity(self):
        lam, phi = top_eigenpairs(Dense(2 * np.eye(3)), 2)
        assert np.allclose(lam, [2.0, 2.0])
        assert np.allclose(phi.T @ phi, np.eye(2), atol=1e-12)

    def test_one_by_one(self):
        lam, phi = top_eigenpairs(Dense([[2.0]]), 1)
        assert lam.tolist() == [2.0] and phi.tolist() == [[1.0]]

    def test_diagonal_matrix(self):
        lam, phi = top_eigenpairs(Dense(np.diag([3.0, 2.0, 1.0])), 2)
        assert np.allclose(lam, [3.0, 2.0])
        assert np.allclose(np.abs(phi), np.eye(3)[:, :2], atol=1e-12)

    def test_matches_full_decomposition_oracle(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((20, 20))
        u = (a + a.T) / 2
        lam, phi = top_eigenpairs(Dense(u), 5)
        full = np.sort(np.linalg.eigvalsh(u))[::-1]
        assert np.allclose(lam, full[:5], atol=1e-8)
        norm = np.abs(np.linalg.eigvalsh(u)).max()
        residual = np.linalg.norm(u @ phi - phi * lam, axis=0)
        assert np.all(residual <= 1e-8 * norm)
        assert np.allclose(phi.T @ phi, np.eye(5), atol=1e-10)

    def test_descending_order(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((12, 12))
        lam, _ = top_eigenpairs(Dense((a + a.T) / 2), 6)
        assert np.all(np.diff(lam) <= 1e-12)

    def test_degenerate_spectrum_is_deterministic(self):
        u = np.diag([2.0, 2.0, 2.0, 0.5])
        lam1, phi1 = top_eigenpairs(Dense(u), 2)
        lam2, phi2 = top_eigenpairs(Dense(u), 2)
        assert np.array_equal(phi1, phi2)
        residual = np.linalg.norm(u @ phi1 - phi1 * lam1, axis=0)
        assert np.all(residual <= 1e-8 * 2.0)

    def test_c_out_of_range(self):
        with pytest.raises(ValueError):
            top_eigenpairs(Dense(np.eye(3)), 4)


class TestFixSigns:
    def test_negative_sum_negated(self):
        phi = np.array([[-1.0], [-2.0]])
        assert np.array_equal(fix_signs(phi), np.array([[1.0], [2.0]]))

    def test_positive_sum_unchanged(self):
        phi = np.array([[1.0], [2.0]])
        assert np.array_equal(fix_signs(phi), phi)

    def test_zero_sum_uses_first_nonzero(self):
        phi = np.array([[0.0], [-1.0], [1.0]])
        assert np.array_equal(fix_signs(phi).ravel(), [0.0, 1.0, -1.0])

    def test_all_zero_column_left_as_is(self):
        phi = np.array([[0.0, -1.0], [0.0, -2.0]])
        assert np.array_equal(fix_signs(phi), np.array([[0.0, 1.0], [0.0, 2.0]]))

    def test_column_sums_non_negative(self):
        rng = np.random.default_rng(6)
        phi = fix_signs(rng.standard_normal((30, 4)))
        assert np.all(phi.sum(axis=0) >= 0)

    def test_rounding_level_sum_uses_first_clear_entry(self):
        # the sum 1e-12 is below 1e-8 * ||phi||_1, and so is the first entry
        phi = np.array([[1e-12], [-1.0], [1.0]])
        assert np.array_equal(fix_signs(phi).ravel(), [-1e-12, 1.0, -1.0])

    def test_mirrored_groups_keep_labels_under_last_bit_changes(self):
        rng = np.random.default_rng(0)
        half = rng.standard_normal((6, 2)) + [1.5, 0.0]
        x = np.vstack([half, -half])  # x -> -x swaps the two groups
        k = np.exp(-np.sum((x[:, None] - x[None]) ** 2, axis=2) / 2.0)
        _, phi = top_eigenpairs(Dense(k), 2)
        # the second eigenvector is antisymmetric across the mirror
        assert abs(phi[:, 1].sum()) <= 1e-8 * np.abs(phi[:, 1]).sum()
        labels = assign_clusters(fix_signs(phi))
        assert sorted(np.bincount(labels)[1:]) == [6, 6]
        for _ in range(100):
            nudged = phi * (1.0 + 1e-14 * rng.standard_normal(phi.shape))
            assert np.array_equal(assign_clusters(fix_signs(nudged)), labels)


class TestAssignClusters:
    def test_indicator_columns(self):
        phi = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(assign_clusters(phi), [1, 2, 1])

    def test_tie_goes_to_first_cluster(self):
        phi = np.ones((4, 3))
        assert np.array_equal(assign_clusters(phi), np.ones(4, dtype=int))

    def test_all_negative_column_falls_back_to_magnitudes(self):
        phi = np.array([[-3.0, 0.1], [-0.1, 3.0]])
        assert np.array_equal(assign_clusters(phi), [1, 2])

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_transcription_oracle(self, seed):
        phi = np.random.default_rng(seed).standard_normal((10, 2))
        assert np.array_equal(assign_clusters(phi), assign_oracle(phi))


class TestSmiScore:
    def test_identity_kernel_orthonormal(self):
        n, c = 8, 3
        q = np.linalg.qr(np.random.default_rng(7).standard_normal((n, c)))[0]
        assert np.isclose(smi_score(np.eye(n), q, c), c**2 / (2 * n) - 0.5)

    def test_zero_coefficients(self):
        assert smi_score(np.eye(5), np.zeros((5, 2)), 2) == -0.5

    def test_top_eigenvectors_give_eigenvalue_identity(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((10, 10))
        k = a @ a.T / 10
        lam, phi = top_eigenpairs(Dense(k), 3)
        expected = 3 / (2 * 10) * np.sum(lam**2) - 0.5
        assert np.isclose(smi_score(k, phi, 3), expected, atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_eigenvectors_maximize_over_random_orthonormal(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 16))
        c = int(rng.integers(2, 4))
        a = rng.standard_normal((n, n))
        k = a @ a.T / n  # positive semi-definite
        _, phi = top_eigenpairs(Dense(k), c)
        best = smi_score(k, phi, c)
        for _ in range(100):
            q = np.linalg.qr(rng.standard_normal((n, c)))[0]
            assert best + 1e-10 >= smi_score(k, q, c)


class TestClusterPipeline:
    def test_separated_blobs_recovered(self):
        ds = make_blobs(50, 2, 2, 10.0, seed=1)
        labels, model = cluster(ds, None, 5, 0.0, 0.0, 2)
        assert adjusted_rand_index(labels, ds.labels) == 1.0
        assert np.allclose(model.phi.T @ model.phi, np.eye(2), atol=1e-8)

    def test_reduction_to_unsupervised(self):
        for seed in range(5):
            ds = make_blobs(40, 2, 2, 8.0, seed=seed)
            supervised, _ = cluster(ds, empty_constraints(ds.n), 5, 0.0, 0.0, 2)
            unsupervised = unsupervised_labels(ds, 5, 2)
            assert adjusted_rand_index(supervised, unsupervised) == 1.0

    def test_gamma_does_not_change_labels_without_links(self):
        ds = make_blobs(30, 2, 2, 4.0, seed=3)
        base, _ = cluster(ds, None, 4, 0.0, 0.0, 2)
        scaled, _ = cluster(ds, None, 4, 2.0, 0.0, 2)
        assert np.array_equal(base, scaled)

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(9)
        ds = make_blobs(30, 2, 2, 6.0, seed=2)
        perm = rng.permutation(ds.n)
        from smiclust.data import Dataset

        permuted = Dataset(features=ds.features[perm], labels=ds.labels[perm], c=2)
        labels, _ = cluster(ds, None, 5, 0.0, 0.0, 2)
        labels_perm, _ = cluster(permuted, None, 5, 0.0, 0.0, 2)
        assert adjusted_rand_index(labels_perm, labels[perm]) == 1.0

    def test_constraints_enter_the_solution(self):
        ds = make_blobs(40, 2, 2, 1.0, seed=4)  # heavy overlap
        cs = sample_constraints(ds.labels, 200, seed=0)
        plain, _ = cluster(ds, None, 5, 0.0, 0.0, 2)
        linked, _ = cluster(ds, cs, 5, 2.0, 2.0, 2)
        truth = ds.labels
        assert adjusted_rand_index(linked, truth) > adjusted_rand_index(plain, truth)


def random_links(rng, n, count):
    """``count`` distinct random pairs over n samples, split into must- and cannot-links."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = rng.permutation(len(pairs))[: min(count, len(pairs))]
    split = int(rng.integers(0, chosen.size + 1))
    return ConstraintSet(
        tuple(pairs[p] for p in chosen[:split]), tuple(pairs[p] for p in chosen[split:]), n
    )


def oracle_problem(kind, seed, n, c, t):
    """Features for one oracle case; ``t`` is clipped to 1..n-1."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        x = rng.standard_normal((n, 2))
    elif kind == "duplicates":
        distinct = max(2, n // 3)
        x = np.round(rng.standard_normal((distinct, 2)), 1)[rng.integers(0, distinct, n)]
    elif kind == "components":
        # c + 1 or more far-apart groups joined by 1-NN edges only: more components than c.
        groups = int(rng.integers(c + 1, c + 4))
        x = rng.standard_normal((n, 2)) + 1000.0 * (np.arange(n) % groups)[:, None]
        t = 1
    else:  # "degenerate": exact integer copies of one group, so tied eigenvalues are exact
        copies = int(rng.integers(2, 5))
        base = rng.integers(0, 6, size=(max(2, n // copies), 2)).astype(float)
        x = np.vstack([base + 1000.0 * k for k in range(copies)])
    return x, min(t, len(x) - 1)


def decided_rows(phi_tilde, margin=1e-8):
    """Rows whose assignment beats the runner-up score by more than rounding."""
    clipped = np.maximum(phi_tilde, 0.0)
    dead = ~clipped.any(axis=0)
    clipped[:, dead] = np.abs(phi_tilde[:, dead])
    sums = clipped.sum(axis=0)
    scores = clipped / np.where(sums == 0, 1.0, sums)
    top2 = np.sort(scores, axis=1)[:, -2:]
    return top2[:, 1] - top2[:, 0] > margin * max(1.0, float(scores.max()))


class TestLanczosAgainstDenseOracle:
    """``top_eigenpairs`` against dense ``eigh`` on the densified matrix.

    ``c`` is 2 or 3, or (drawn as 0, -1, -2) n, n - 1 or n - 2, at least 2:
    the counts that deflate to all n pairs, where a dense solver once took over.
    100 examples keep about 40 at c = 2 or 3.
    """

    @settings(deadline=None, max_examples=100)
    @given(
        kind=st.sampled_from(["random", "duplicates", "components", "degenerate"]),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 60),
        c=st.sampled_from([2, 3, 0, -1, -2]),
        t=st.integers(1, 6),
        links=st.integers(0, 30),
        gamma=st.sampled_from([0.0, 0.5, 2.0]),
        eta=st.sampled_from([0.0, 1.0]),
        kernel_only=st.booleans(),
    )
    def test_matches_dense_eigh(self, kind, seed, n, c, t, links, gamma, eta, kernel_only):
        x, t = oracle_problem(kind, seed, n, c if c > 0 else max(2, n + c), t)
        n = len(x)
        c = min(c, n) if c > 0 else max(2, n + c)
        cs = random_links(np.random.default_rng(seed + 1), n, links)
        edited = apply_constraints(local_scaling_kernel(x, t), cs)
        if kernel_only:
            dense = edited.entries
            matrix = Dense(dense)
        else:
            matrix = objective_matrix(edited, gamma, eta if c == 2 else 0.0, c)
            dense = objective_entries(matrix)
        lam_ref, phi_ref = eigh_top_eigenpairs(dense, c)
        norm = max(1.0, float(np.abs(np.linalg.eigvalsh(dense)).max()))
        if lam_ref[-1] <= 1e-9 * norm:  # the tie tolerance: rank below c
            with pytest.raises(RuntimeError, match=f"^U has rank below c={c}: "):
                top_eigenpairs(matrix, c)
            return
        lam, phi = top_eigenpairs(matrix, c)
        assert np.all(np.abs(lam - lam_ref) <= 1e-8 * norm)
        assert np.all(np.linalg.norm(dense @ phi - phi * lam, axis=0) <= 1e-8 * norm)
        assert np.allclose(phi.T @ phi, np.eye(c), atol=1e-10)
        # A column summing to about 0 gets its sign from rounding in either
        # solver, so the fast columns take the signs of the oracle's.
        ref = fix_signs(phi_ref)
        aligned = phi * np.where(np.sum(phi * ref, axis=0) < 0, -1.0, 1.0)
        decided = decided_rows(ref) & decided_rows(aligned)
        labels = assign_clusters(aligned)[decided]
        labels_ref = assign_clusters(ref)[decided]
        pairs = set(zip(labels_ref.tolist(), labels.tolist()))
        assert len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs})


def tol0_labels(ds, cs, t, gamma, eta, c):
    """Labels from the machine-precision eigensolve, as ``cluster`` once took them."""
    edited = apply_constraints(local_scaling_kernel(ds.features, t), cs)
    _, phi = top_eigenpairs(objective_matrix(edited, gamma, eta, c), c)
    return assign_clusters(fix_signs(phi))


def midway_point_problem():
    """Two unequal groups and a point on the segment between their means where its scores tie.

    Bisection on the point's position finds where its label flips.  The scores
    move continuously there, so the two are equal to within rounding.
    """
    rng = np.random.default_rng(2)
    base = np.vstack([rng.standard_normal((20, 2)), 1.3 * rng.standard_normal((25, 2)) + [4, 0.5]])
    ends = base[:20].mean(axis=0), base[20:].mean(axis=0)

    def point_margin(s):
        ds = Dataset(features=np.vstack([base, (1 - s) * ends[0] + s * ends[1]]))
        edited = local_scaling_kernel(ds.features, 5)
        _, phi = top_eigenpairs(objective_matrix(edited, 0.0, 0.0, 2), 2)
        clipped = np.maximum(fix_signs(phi), 0.0)
        scores = clipped[-1] / clipped.sum(axis=0)
        return ds, scores[0] - scores[1]

    low, high = 0.0, 1.0
    first = np.sign(point_margin(low)[1])
    for _ in range(50):
        mid = (low + high) / 2
        low, high = (mid, high) if np.sign(point_margin(mid)[1]) == first else (low, mid)
    ds, margin = point_margin(low)
    assert abs(margin) <= 1e-12
    return ds


def mirrored_groups():
    half = np.random.default_rng(0).standard_normal((20, 2)) + [3.0, 0.0]
    return Dataset(features=np.vstack([half, half * [-1.0, 1.0]])), 5


def rotated_groups():
    # Four copies of one group under exact quarter turns: eigenvalues 2 and 3 are equal.
    group = np.random.default_rng(1).standard_normal((15, 2)) + [4.0, 0.0]
    turns = [group]
    for _ in range(3):
        turns.append(np.column_stack([-turns[-1][:, 1], turns[-1][:, 0]]))
    return Dataset(features=np.vstack(turns)), 8


# Eigenvalues of exact_operator: 3, 2 and 1 above a tail from -2 to -3.
EXACT = np.r_[3.0, 2.0, 1.0, np.linspace(-2.0, -3.0, 17)]


def exact_operator(top):
    """(Q, Dense U = Q diag(EXACT) Q'), where Q's first columns are the orthonormal ``top``.

    At n = 20, ARPACK's Krylov space is the whole space, so its pairs of U are exact.
    """
    rest = np.random.default_rng(0).standard_normal((20, 20 - top.shape[1]))
    q, _ = np.linalg.qr(np.hstack([top, rest]))
    q[:, : top.shape[1]] = top
    return q, Dense((q * EXACT) @ q.T)


class TestCertifiedEigensolve:
    """``cluster`` takes its labels from a loose solve only when they equal the tol-0 solve's."""

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_per_class=st.integers(5, 60),
        c=st.sampled_from([2, 3]),
        separation=st.sampled_from([1.0, 3.0, 8.0]),
        links=st.integers(0, 120),
        t=st.integers(1, 12),
        gamma=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        eta=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    )
    def test_labels_equal_the_tol0_solve(self, seed, n_per_class, c, separation, links, t, gamma,
                                        eta):
        ds = make_blobs(n_per_class, c, 2, separation, seed=seed)
        cs = random_links(np.random.default_rng(seed + 1), ds.n, links)
        t, eta = min(t, ds.n - 1), eta if c == 2 else 0.0
        try:
            expected = tol0_labels(ds, cs, t, gamma, eta, c)
        except RuntimeError as refusal:
            with pytest.raises(RuntimeError, match=f"^{re.escape(str(refusal))}$"):
                cluster(ds, cs, t, gamma, eta, c)
            return
        labels, model = cluster(ds, cs, t, gamma, eta, c)
        assert labels.tobytes() == expected.tobytes()
        assert np.allclose(model.phi.T @ model.phi, np.eye(c), atol=1e-10)

    def _spy(self, monkeypatch):
        """The tol of each ARPACK call from here on, and each tol-0 fallback ``cluster`` runs."""
        from scipy.sparse import linalg

        tols, fallbacks, eigsh = [], [], linalg.eigsh

        def counted_eigsh(*args, **kwargs):
            tols.append(kwargs["tol"])
            return eigsh(*args, **kwargs)

        def counted_top(matrix, c):
            fallbacks.append(c)
            return top_eigenpairs(matrix, c)

        monkeypatch.setattr(linalg, "eigsh", counted_eigsh)
        monkeypatch.setattr(solver, "top_eigenpairs", counted_top)
        return tols, fallbacks

    def test_linked_blobs_take_the_loose_solve(self, monkeypatch):
        ds = make_blobs(200, 2, 2, 3.0, seed=1)
        cs = sample_constraints(ds.labels, 400, seed=2)
        edited = apply_constraints(local_scaling_kernel(ds.features, 5), cs)
        lam, phi = top_eigenpairs(objective_matrix(edited, 1.0, 1.0, 2), 2)
        tols, fallbacks = self._spy(monkeypatch)
        labels, model = cluster(ds, cs, 5, 1.0, 1.0, 2)
        assert tols == [solver._LOOSE_TOL] and fallbacks == []
        assert labels.tobytes() == assign_clusters(fix_signs(phi)).tobytes()
        assert np.allclose(model.lam, lam, rtol=1e-10, atol=0)
        assert np.allclose(model.phi, fix_signs(phi), atol=1e-8)

    @pytest.mark.parametrize(
        "problem, loose_solves",
        [
            (mirrored_groups, 1),  # the second eigenvector sums to 0: fix_signs' rounding rule
            (rotated_groups, 1),  # equal eigenvalues at c = 2
            (lambda: (midway_point_problem(), 5), 1),  # one point's two scores tie
            (lambda: (make_blobs(40, 2, 2, 8.0, seed=45), 5), 0),  # a kNN graph in two parts
        ],
        ids=["mirrored", "equal-eigenvalues", "midway-point", "seed-45-components"],
    )
    def test_near_ties_fall_back_to_the_tol0_solve(self, monkeypatch, problem, loose_solves):
        ds, t = problem()
        expected = tol0_labels(ds, empty_constraints(ds.n), t, 0.0, 0.0, 2)
        tols, fallbacks = self._spy(monkeypatch)
        labels, _ = cluster(ds, None, t, 0.0, 0.0, 2)
        assert fallbacks == [2]
        assert tols.count(solver._LOOSE_TOL) == loose_solves and tols[-1] == 0.0
        assert labels.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "spectrum",
        [
            [3.0, 2.0, 2.0 - 1e-9, 1.0],  # eigenvalues 2 and 3 tie at the tie tolerance 3e-9
            [3.0, 2e-9, -1.0, -1.5],  # eigenvalue 2 is not above that noise floor
        ],
        ids=["tie-inside-tolerance", "rank-below-c"],
    )
    def test_decisions_inside_the_rounding_tolerances_are_not_certified(self, spectrum):
        # The top two eigenvectors are the indicators of two halves, so every
        # sign and argmax is far from a tie and only the eigenvalues decide.
        # n = 20 is ARPACK's whole Krylov space: the pairs come out exact.
        indicators = np.zeros((20, 3))
        indicators[:10, 0] = indicators[10:, 1] = 1.0 / np.sqrt(10.0)
        indicators[10:12, 2] = [1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)]
        rest = np.random.default_rng(0).standard_normal((20, 17))
        q, _ = np.linalg.qr(np.hstack([indicators, rest]))
        tail = np.linspace(-2.0, -3.0, 16)
        assert solver._certified_labels(Dense((q * np.r_[spectrum, tail]) @ q.T), 2) is None
        clear = np.r_[3.0, 2.0, 2.0 - 1e-3, 1.0, tail]  # beyond both tolerances: certified
        assert solver._certified_labels(Dense((q * clear) @ q.T), 2) is not None

    @pytest.mark.parametrize("tilt, certified", [(0.125, False), (0.01, True)])
    def test_a_gap_inside_three_residuals_is_not_certified(self, monkeypatch, tilt, certified):
        # The exact pairs of U, but the third vector tilted toward the eigenvalue
        # -3: its residual is 4 * tilt.  At 0.5 the drops of 1 clear every tie
        # test, yet the gaps of 1 are inside 3 max r, so the Davis-Kahan bound
        # does not hold; at 0.04 the loose pairs are certified.
        indicators = np.zeros((20, 2))
        indicators[:10, 0] = indicators[10:, 1] = 1.0 / np.sqrt(10.0)
        q, matrix = exact_operator(indicators)
        v = q[:, :3].copy()
        v[:, 2] = np.sqrt(1.0 - tilt**2) * q[:, 2] + tilt * q[:, -1]
        monkeypatch.setattr(solver, "_ritz_pairs", lambda apply, n, k, tol: (EXACT[:k], v))
        assert (solver._certified_labels(matrix, 2) is not None) == certified

    @pytest.mark.parametrize("shortfall, certified", [(1e-12, False), (1e-3, True)])
    def test_an_argmax_inside_the_rounding_allowance_is_not_certified(self, shortfall, certified):
        # Point 0 scores 0.1 in column 1 and 0.1 * (1 - shortfall) in column 2.
        # At 1e-12 the margin, 9e-14, is above the exact pairs' residuals
        # (about 1e-15) but below the 1e-12 of the largest eigenvalue allowed
        # for rounding, so the argmax is not certain.
        phi = np.zeros((20, 2))
        phi[:10, 0] = 1.0 / np.sqrt(10.0)
        phi[10:, 1] = 1.0
        phi[[0, 1], 1] = [10.0 / 9.0 * (1.0 - shortfall), -10.0 / 9.0 * (1.0 - shortfall)]
        phi[:, 1] /= np.linalg.norm(phi[:, 1])
        _, matrix = exact_operator(phi)
        assert (solver._certified_labels(matrix, 2) is not None) == certified

    def test_rank_refusal_comes_from_the_tol0_solve(self, monkeypatch):
        # 30 equal points and t = 29: U has rank 1.  The refusal prints the
        # noise floor, the same on every run, not the noise-level eigenvalue.
        ds = Dataset(features=np.ones((30, 2)))
        _, fallbacks = self._spy(monkeypatch)
        messages = []
        for _ in range(2):
            with pytest.raises(RuntimeError) as refusal:
                cluster(ds, None, 29, 0.0, 0.0, 2)
            messages.append(str(refusal.value))
        assert fallbacks == [2, 2]
        assert messages[0] == messages[1]
        assert re.fullmatch(
            r"U has rank below c=2: eigenvalue 2 is not above the rounding-noise floor \S+, "
            r"so there are not c clusters to find",
            messages[0],
        )


@pytest.mark.parametrize("seed", range(3))
def test_predict_agrees_with_cluster_on_linked_overlapping_blobs(seed):
    """Training points keep their ``cluster`` label under ``predict`` at a stated rate.

    Overlapping blobs, n = 2000, t = 5, 2000 links, gamma = eta = 1: the
    agreement measured 0.982, 0.983 and 0.985 on seeds 0-2; the bound is 0.98.
    No prediction here hangs on rounding, so ``phi`` changed in its last bits
    predicts the same labels.
    """
    ds = make_blobs(1000, 2, 2, 3.0, seed=seed)
    cs = sample_constraints(ds.labels, 2000, seed=seed + 100)
    labels, model = cluster(ds, cs, 5, 1.0, 1.0, 2)
    predicted = predict(model, ds.features)
    assert np.mean(predicted == labels) >= 0.98
    rng = np.random.default_rng(seed)
    nudged = replace(model, phi=model.phi * (1.0 + 1e-14 * rng.standard_normal(model.phi.shape)))
    assert np.array_equal(predict(nudged, ds.features), predicted)


class TestMetamorphic:
    """Invariances of the method, checked through ``cluster``."""

    def _problem(self, seed):
        ds = make_blobs(60, 2, 2, 3.0, seed=seed)
        return ds, sample_constraints(ds.labels, 40, seed=seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_permuting_samples_and_links(self, seed):
        ds, cs = self._problem(seed)
        perm = np.random.default_rng(seed).permutation(ds.n)
        new_index = np.argsort(perm)
        relinked = ConstraintSet(
            tuple((new_index[i], new_index[j]) for i, j in cs.must_links),
            tuple((new_index[i], new_index[j]) for i, j in cs.cannot_links),
            ds.n,
        )
        labels, _ = cluster(ds, cs, 5, 1.0, 1.0, 2)
        permuted, _ = cluster(Dataset(features=ds.features[perm]), relinked, 5, 1.0, 1.0, 2)
        assert adjusted_rand_index(permuted, labels[perm]) == 1.0

    @pytest.mark.parametrize("scale, shift", [(1e-3, 0.0), (7.5, -3.0), (1.0, 250.0), (1e3, 1e3)])
    def test_scaling_and_translation(self, scale, shift):
        ds, cs = self._problem(3)
        labels, _ = cluster(ds, cs, 5, 1.0, 1.0, 2)
        moved, _ = cluster(Dataset(features=ds.features * scale + shift), cs, 5, 1.0, 1.0, 2)
        assert np.array_equal(moved, labels)

    @pytest.mark.parametrize("seed", range(3))
    def test_link_order_is_irrelevant(self, seed):
        ds, cs = self._problem(seed)
        reversed_cs = ConstraintSet(cs.must_links[::-1], cs.cannot_links[::-1], cs.n)
        labels, model = cluster(ds, cs, 5, 1.0, 1.0, 2)
        again, model_again = cluster(ds, reversed_cs, 5, 1.0, 1.0, 2)
        assert labels.tobytes() == again.tobytes()
        assert model.phi.tobytes() == model_again.phi.tobytes()
        assert model.lam.tobytes() == model_again.lam.tobytes()


def test_array_dataclasses_compare_by_identity():
    ds = make_blobs(10, 2, 2, 5.0, seed=0)
    kernel = local_scaling_kernel(ds.features, 3)
    _, model = cluster(ds, None, 3, 0.0, 0.0, 2)
    for make in (
        lambda: KernelMatrix(np.eye(3), 1),
        lambda: ConstraintSet(((0, 1),), (), 3),
        lambda: objective_matrix(kernel, 1.0, 0.0, 2),
        lambda: replace(model),
        lambda: fit_ratio_model(ds.features, ds.labels, 1.0, 0.1, seed=0),
    ):
        first, second = make(), make()
        assert (first == second) is False
        assert (first == first) is True


class TestModelScales:
    """The saved scales are exactly the training kernel's t-NN distances."""

    def test_cluster_and_unsupervised_keep_the_kernel_scales(self):
        ds = make_blobs(30, 2, 2, 3.0, seed=6)
        sigma = nearest_neighbors(ds.features, 4)[1]
        cs = sample_constraints(ds.labels, 40, seed=2)
        assert len(cs.must_links) > 0
        for _, model in (
            cluster(ds, None, 4, 0.0, 0.0, 2),
            cluster(ds, cs, 4, 1.0, 0.5, 2),
        ):
            assert model.train_sigma.dtype == sigma.dtype
            assert model.train_sigma.tobytes() == sigma.tobytes()


class TestQueryKernel:
    def _model(self, train, t, seed=0):
        rng = np.random.default_rng(seed)
        return ClusterModel(
            phi=np.linalg.qr(rng.standard_normal((train.shape[0], 2)))[0],
            lam=np.array([2.0, 1.0]),
            c=2,
            t=t,
            gamma=0.0,
            eta=0.0,
            train_features=train,
            train_sigma=nearest_neighbors(train, t)[1],
        )

    def test_matches_oracle_on_edge_cases(self):
        # Three coincident points (zero scales), a unit square, and an outlier
        # whose radius sqrt(82) reaches queries that are far from their own t-NN.
        train = np.array(
            [[0, 0], [0, 0], [0, 0], [1, 0], [0, 1], [1, 1], [10, 0]], dtype=float
        )
        model = self._model(train, 2)
        assert np.array_equal(model.train_sigma[:3], np.zeros(3))
        queries = np.array([[0, 0], [0.5, 0], [1, 0], [2, 0], [10, 0], [3, 3]], dtype=float)
        got = _query_kernel(model, queries).toarray()
        want = query_kernel_oracle(train, model.train_sigma, 2, queries)
        assert np.array_equal(got != 0, want != 0)
        assert np.allclose(got, want, rtol=1e-13, atol=0)
        assert np.array_equal(got[0, :3], np.ones(3))  # query on the duplicates
        assert got[1, 0] == 0.0  # zero scale, positive distance
        assert got[2, 3] == 1.0  # query equal to a training point
        # (2, 0): its two nearest are (1, 0) and (1, 1); (10, 0) enters by its own radius.
        assert got[3, 6] > 0.0

    def test_matches_oracle_on_random_points(self):
        rng = np.random.default_rng(3)
        train = rng.standard_normal((30, 2))
        train[7] = train[3]  # one duplicate pair
        model = self._model(train, 3, seed=1)
        queries = np.vstack([train[:6], rng.standard_normal((15, 2)) * 1.5])
        got = _query_kernel(model, queries).toarray()
        want = query_kernel_oracle(train, model.train_sigma, 3, queries)
        assert np.array_equal(got != 0, want != 0)
        assert np.allclose(got, want, rtol=1e-13, atol=0)

    @settings(deadline=None, max_examples=100)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 16),
        d=st.sampled_from([1, 2, 3]),
        t_frac=st.floats(0, 1),
        offset=st.sampled_from([1e6, 1e12]),
        scale=st.sampled_from([1e-3, 1e-2, 1.0]),
        copies=st.integers(0, 8),
        fresh=st.integers(0, 8),
    )
    def test_matches_oracle_far_from_the_origin(self, seed, n, d, t_frac, offset, scale, copies,
                                                fresh):
        """Points within ``scale`` of a large offset: coordinates sit on the offset's coarse
        float grid, so distances tie and radii end exactly on queries at the edge of a
        block's bounding box.  Scored in blocks of 1, 2, 3 or all queries, the box test
        that picks the training points to ball-query must keep every pair the oracle keeps."""
        rng = np.random.default_rng(seed)
        train = offset + scale * rng.standard_normal((n, d))
        queries = np.vstack([train[rng.integers(0, n, copies)],
                             offset + scale * rng.standard_normal((fresh, d))])
        t = 1 + int(t_frac * (n - 2))
        model = self._model(train, t, seed=seed)
        want = query_kernel_oracle(train, model.train_sigma, t, queries)
        for block in (1, 2, 3, max(len(queries), 1)):
            got = np.vstack([np.zeros((0, n)), *(
                _query_kernel(model, queries[i:i + block]).toarray()
                for i in range(0, len(queries), block))])
            assert np.array_equal(got != 0, want != 0)
            assert np.allclose(got, want, rtol=1e-13, atol=0)


class TestPredict:
    def _model(self, seed=1):
        ds = make_blobs(40, 2, 2, 10.0, seed=seed)
        labels, model = cluster(ds, None, 5, 0.0, 0.0, 2)
        return ds, labels, model

    def test_training_point_keeps_its_label(self):
        ds, labels, model = self._model()
        for i in (0, 20, 50, 79):
            assert predict(model, ds.features[i]) == labels[i]

    def test_batch_predict_matches_training_assignment(self):
        ds, labels, model = self._model(seed=2)
        assert np.array_equal(predict(model, ds.features), labels)

    def test_far_away_point_defaults_to_first_cluster(self):
        _, _, model = self._model(seed=3)
        assert predict(model, np.array([1e8, 1e8])) == 1

    def test_dimension_mismatch(self):
        _, _, model = self._model()
        with pytest.raises(ValueError, match="dimension"):
            predict(model, np.zeros(5))

    @pytest.mark.parametrize("shape", [(), (2, 2, 2)])
    def test_queries_neither_one_nor_two_dimensional_refused(self, monkeypatch, shape):
        _, _, model = self._model()
        monkeypatch.setattr(solver, "_query_kernel", None)  # refused before any kernel work
        with pytest.raises(ValueError, match=rf"^queries must be .*{re.escape(str(shape))}$"):
            predict(model, np.zeros(shape))

    @pytest.mark.parametrize("bad, message", [
        ([[np.nan, 0.0]], "got nan at index (0, 0)"),
        ([[0.0, 1.0], [2.0, -np.inf]], "got -inf at index (1, 1)"),
        ([1.0, np.inf], "got inf at index 1"),
    ])
    def test_non_finite_query_refused(self, monkeypatch, bad, message):
        _, _, model = self._model()
        monkeypatch.setattr(solver, "_query_kernel", None)  # refused before any kernel work
        with pytest.raises(ValueError, match=rf"^queries must be finite, {re.escape(message)}$"):
            predict(model, bad)

    def test_non_positive_eigenvalue_refused(self):
        rng = np.random.default_rng(10)
        feats = rng.standard_normal((12, 2))
        _, sigma = nearest_neighbors(feats, 2)
        phi = np.linalg.qr(rng.standard_normal((12, 2)))[0]
        model = ClusterModel(
            phi=phi,
            lam=np.array([1.0, -0.2]),
            c=2,
            t=2,
            gamma=0.0,
            eta=1.0,
            train_features=feats,
            train_sigma=sigma,
        )
        with pytest.raises(PredictionError, match="non-positive"):
            predict(model, feats[0])
        # Rounding noise, as in a model an older version fitted to a U of rank 1.
        with pytest.raises(PredictionError, match="non-positive"):
            predict(replace(model, lam=np.array([1800.0, 3e-13])), feats[0])


class TestPredictBlocks:
    """``predict`` scores its queries in blocks of ``max(solver._QUERY_BLOCK, n)`` rows."""

    @staticmethod
    def _model(train, t, seed=0):
        rng = np.random.default_rng(seed)
        return ClusterModel(
            phi=fix_signs(np.linalg.qr(rng.standard_normal((train.shape[0], 2)))[0]),
            lam=np.array([2.0, 1.0]),
            c=2,
            t=t,
            gamma=0.0,
            eta=0.0,
            train_features=train,
            train_sigma=nearest_neighbors(train, t)[1],
        )

    @staticmethod
    def _predict(model, x, block):
        with mock.patch.object(solver, "_QUERY_BLOCK", block):
            return predict(model, x)

    @settings(deadline=None, max_examples=150)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_per_class=st.integers(1, 8),
        d=st.sampled_from([1, 2, 3]),
        t_frac=st.floats(0, 1),
        rounded=st.booleans(),
        copies=st.integers(0, 30),
        fresh=st.integers(0, 30),
        block=st.sampled_from([1, 2, 7]),
    )
    def test_labels_equal_one_block(self, seed, n_per_class, d, t_frac, rounded, copies, fresh,
                                    block):
        """Blobs, optionally rounded to 0.1 so distances tie, and queries that copy training
        points: the labels of small blocks equal those of one block, bytes and dtype."""
        rng = np.random.default_rng(seed)
        train = make_blobs(n_per_class, 2, d, 3.0, seed=seed % 2**31).features
        queries = np.vstack([train[rng.integers(0, len(train), copies)],
                             rng.normal(0.0, 2.0, (fresh, d))])[rng.permutation(copies + fresh)]
        if rounded:
            train, queries = np.round(train, 1), np.round(queries, 1)
        t = 1 + int(t_frac * (len(train) - 2))
        model = self._model(train, t, seed=seed)
        whole = self._predict(model, queries, len(queries) + 1)
        got = self._predict(model, queries, block)
        assert got.dtype == whole.dtype == np.intp
        assert got.tobytes() == whole.tobytes()

    @settings(deadline=None, max_examples=100)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_per_class=st.integers(1, 8),
        d=st.sampled_from([1, 2, 3]),
        t_frac=st.floats(0, 1),
        copies=st.integers(0, 30),
        fresh=st.integers(0, 30),
        block=st.sampled_from([1, 2, 7, None]),
    )
    def test_labels_follow_a_permutation_of_the_batch(self, seed, n_per_class, d, t_frac, copies,
                                                      fresh, block):
        """Queries rounded to 0.1, so coordinates and distances tie, many of them copies of
        training points: permuting the batch permutes the labels, bytes and dtype, whatever
        the sorted order puts in each block."""
        rng = np.random.default_rng(seed)
        train = np.round(make_blobs(n_per_class, 2, d, 3.0, seed=seed % 2**31).features, 1)
        queries = np.round(np.vstack([train[rng.integers(0, len(train), copies)],
                                      rng.normal(0.0, 2.0, (fresh, d))]), 1)
        model = self._model(train, 1 + int(t_frac * (len(train) - 2)), seed=seed)
        block = len(queries) + 1 if block is None else block
        perm = rng.permutation(len(queries))
        want = self._predict(model, queries, block)[perm]
        got = self._predict(model, queries[perm], block)
        assert got.dtype == want.dtype == np.intp
        assert got.tobytes() == want.tobytes()

    def test_single_query_is_an_int(self):
        ds = make_blobs(20, 2, 2, 8.0, seed=1)
        labels, model = cluster(ds, None, 4, 0.0, 0.0, 2)
        got = self._predict(model, ds.features[3], 1)
        assert type(got) is int and got == labels[3]

    def test_empty_batch_is_an_empty_int64_array(self):
        ds = make_blobs(20, 2, 2, 8.0, seed=1)
        _, model = cluster(ds, None, 4, 0.0, 0.0, 2)
        got = predict(model, np.zeros((0, 2)))
        assert got.shape == (0,) and got.dtype == np.int64

    @pytest.mark.parametrize(
        "block, n_per_class, m, calls",
        [(None, 10, 0, 0), (None, 10, 4096, 1), (None, 10, 4097, 2), (None, 10, 9000, 3),
         (7, 10, 45, 3), (7, 10, 20, 1), (2, 2, 9, 3), (1, 1, 5, 3)],
    )
    def test_query_kernel_runs_once_per_block(self, block, n_per_class, m, calls):
        """ceil(m / max(floor, n)) blocks: the floor n keeps a batch up to n in one block.
        Every block reuses the one training tree that ``predict`` builds per call."""
        ds = make_blobs(n_per_class, 2, 2, 8.0, seed=1)
        model = self._model(ds.features, 1)
        queries = np.random.default_rng(2).normal(0.0, 4.0, (m, 2))
        block = solver._QUERY_BLOCK if block is None else block
        assert calls == -(-m // max(block, 2 * n_per_class))
        sizes, passed, built = [], [], []

        def counted(model, x, tree):
            sizes.append(len(x))
            passed.append(tree)
            return _query_kernel(model, x, tree)

        def training_tree(points):
            built.append((points, cKDTree(points)))
            return built[-1][1]

        with mock.patch.object(solver, "_query_kernel", counted), \
                mock.patch.object(solver, "cKDTree", training_tree):
            got = self._predict(model, queries, block)
        assert len(sizes) == calls and sum(sizes) == m
        assert len(built) == 1 and built[0][0] is model.train_features
        assert all(tree is built[0][1] for tree in passed)
        assert got.tobytes() == self._predict(model, queries, m + 1).tobytes()

    def test_ball_query_overflow_still_refuses(self):
        """The far queries of ``test_ball_query_overflow_is_a_feature_scale_error`` fit in one
        block and are refused; spread over three blocks, no block's box overflows."""
        ds = make_blobs(10, 2, 2, 3.0, seed=0)
        _, model = cluster(ds, None, 3, 0.0, 0.0, 2)
        far = np.array([[1.2e154, 0.0], [-1.2e154, 0.0], [0.0, 1.2e154]])
        for block in (1, solver._QUERY_BLOCK):
            with pytest.raises(FeatureScaleError, match="^squared distances between points"):
                self._predict(model, far, block)
        spread = np.vstack([np.vstack([row, ds.features[:19]]) for row in far])
        assert self._predict(model, spread, 1)[1:20].tolist() == predict(
            model, ds.features[:19]
        ).tolist()


class TestModelValidation:
    def _fields(self, n=10, t=3):
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((n, 2))
        return dict(
            phi=np.linalg.qr(rng.standard_normal((n, 2)))[0],
            lam=np.array([2.0, 1.0]),
            c=2,
            t=t,
            gamma=0.0,
            eta=0.0,
            train_features=feats,
            train_sigma=nearest_neighbors(feats, t)[1],
        )

    def test_valid_fields_accepted(self):
        ClusterModel(**self._fields())

    @pytest.mark.parametrize(
        "field, value",
        [
            ("train_features", lambda f: f[:-1]),
            ("train_features", lambda f: f[:, 0]),
            ("train_features", lambda f: np.where(np.arange(10)[:, None] == 2, np.nan, f)),
            ("train_features", lambda f: f[:, :0]),
            ("train_sigma", lambda s: s[:-1]),
            ("train_sigma", lambda s: s[:, None]),
            ("train_sigma", lambda s: np.where(np.arange(10) == 5, np.inf, s)),
            ("train_sigma", lambda s: np.where(np.arange(10) == 5, -1.0, s)),
        ],
        ids=["features-short", "features-1d", "features-nan", "features-no-columns",
             "sigma-short", "sigma-2d", "sigma-inf", "sigma-negative"],
    )
    def test_bad_training_arrays_rejected(self, field, value):
        fields = self._fields()
        fields[field] = value(fields[field])
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ClusterModel(**fields)

    @pytest.mark.parametrize("t", [0, 10])
    def test_t_out_of_range_rejected(self, t):
        fields = self._fields()
        fields["t"] = t
        with pytest.raises(ValueError, match="t must be in 1..9"):
            ClusterModel(**fields)


class TestModelPersistence:
    def test_roundtrip_is_exact(self, tmp_path):
        ds = make_blobs(20, 2, 2, 8.0, seed=5)
        _, model = cluster(ds, None, 3, 0.5, 0.25, 2)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.phi, model.phi)
        assert np.array_equal(loaded.lam, model.lam)
        assert np.array_equal(loaded.train_features, model.train_features)
        assert np.array_equal(loaded.train_sigma, model.train_sigma)
        assert (loaded.c, loaded.t, loaded.gamma, loaded.eta) == (2, 3, 0.5, 0.25)

    def test_whole_float_counts_read_as_int(self, tmp_path):
        ds = make_blobs(20, 2, 2, 8.0, seed=5)
        _, model = cluster(ds, None, 3, 0.0, 0.0, 2)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "c": 2.0, "t": 3.0}))
        loaded = load_model(path)
        assert (loaded.c, loaded.t) == (2, 3)
        assert type(loaded.c) is int and type(loaded.t) is int

    def test_schema_tag_checked(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"schema": "other-v9"}')
        with pytest.raises(ValueError, match="schema"):
            load_model(path)


N_RULE = 30  # 2 x 15 blobs; the bench config with c = 3 makes them 3 x 10
RULE_CASES = [
    ("t", 0, "t must be in 1..29, got 0"),
    ("t", 2.7, "t must be a whole number, got 2.7"),
    ("t", N_RULE, "t must be in 1..29, got 30"),
    ("t", True, "t must be a whole number, got True"),
    *[(name, value, f"{name} must be finite and non-negative, got {value!r}")
      for name in ("gamma", "eta") for value in (-1.0, np.nan, np.inf, True)],
    ("c", 0, "c must be in 1..30, got 0"),
    ("c", N_RULE + 1, "c must be in 1..30, got 31"),
    ("c", 2.5, "c must be a whole number, got 2.5"),
    ("eta-with-c", 3, "eta must be 0 when c > 2 (got eta=1.0, c=3)"),
]
# objective_matrix takes no t, nearest_neighbors only t, and grid_search forces its
# eta grid to {0} for c > 2 with a warning (tests/test_model_select.py) rather than
# refusing it.
RULE_CALLS = [
    (caller, *case)
    for caller in ("cluster", "objective_matrix", "ClusterModel", "grid_search", "from_dict",
                   "nearest_neighbors")
    for case in RULE_CASES
    if (caller, case[0]) not in {("objective_matrix", "t"), ("grid_search", "eta-with-c")}
    and (caller != "nearest_neighbors" or case[0] == "t")
]


@pytest.mark.parametrize(
    "caller, name, value, message", RULE_CALLS,
    ids=[f"{caller}-{name}={value}" for caller, name, value, _ in RULE_CALLS],
)
def test_every_entry_refuses_a_bad_hyperparameter(monkeypatch, caller, name, value, message):
    """Each entry refuses a bad t, gamma, eta or c with the rule's message, before any kernel."""
    theta = {"t": 3, "gamma": 0.5, "eta": 0.0, "c": 2}
    theta.update({"eta": 1.0, "c": value} if name == "eta-with-c" else {name: value})
    t, gamma, eta, c = theta["t"], theta["gamma"], theta["eta"], theta["c"]
    ds = make_blobs(15, 2, 2, 4.0, seed=0)
    kernel = local_scaling_kernel(ds.features, 3)
    links = empty_constraints(N_RULE)
    basis = np.linalg.qr(np.random.default_rng(0).standard_normal((N_RULE, 2)))[0]
    blobs = {"generator": "blobs", "n_per_class": 15, "classes": 2}
    if c == 3:
        blobs = {**blobs, "n_per_class": 10, "classes": 3}
    calls = {
        "cluster": lambda: cluster(ds, links, t, gamma, eta, c),
        "objective_matrix": lambda: objective_matrix(kernel, gamma, eta, c),
        "ClusterModel": lambda: ClusterModel(
            phi=basis, lam=np.array([2.0, 1.0]), c=c, t=t, gamma=gamma, eta=eta,
            train_features=ds.features, train_sigma=kernel.sigma,
        ),
        "grid_search": lambda: grid_search(
            ds, links, c, t_grid=[t], gamma_grid=[gamma], eta_grid=[eta]
        ),
        "from_dict": lambda: BenchmarkConfig.from_dict({
            "dataset": blobs, "classes": c, "theta": {"t": t, "gamma": gamma, "eta": eta},
            "link_counts": [0], "runs": 1,
        }),
        "nearest_neighbors": lambda: nearest_neighbors(ds.features, t),
    }
    monkeypatch.setattr(solver, "local_scaling_kernel", lambda *a: pytest.fail("kernel built"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any numeric work
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            calls[caller]()
