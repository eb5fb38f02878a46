"""The sparse kernels against the dense builder they replaced, byte for byte.

The dense builder (full ``cdist``, a boolean neighbourhood mask and dense
entries) lives on here only as the oracle.  ``sparse.csr_matrix`` of its
output is the canonical CSR the sparse route must reproduce exactly.
"""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.spatial.distance import cdist

import oracles
import smiclust
from smiclust import kernel, solver
from smiclust.data import ConstraintSet, make_blobs
from smiclust.kernel import apply_constraints, local_scaling_kernel, nearest_neighbors
from smiclust.solver import ClusterModel, _query_kernel


def dense_nearest(dist, t):
    """The t nearest columns of every row by (distance, index) and the t-th distance."""
    neighbors = np.argsort(dist, axis=1, kind="stable")[:, :t]
    return neighbors, dist[np.arange(dist.shape[0]), neighbors[:, -1]]


def dense_entries(dist, mask, row_sigma, col_sigma):
    rows, cols = np.nonzero(mask)
    d = dist[rows, cols]
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.exp(-(d**2) / (2.0 * (row_sigma[rows] * col_sigma[cols])))
    entries = np.zeros_like(dist)
    entries[rows, cols] = np.where(d == 0, 1.0, values)
    return entries


def dense_kernel(x, t):
    """(entries, sigma) of the local-scaling kernel, built densely."""
    dist = cdist(x, x)
    np.fill_diagonal(dist, np.inf)
    neighbors, sigma = dense_nearest(dist, t)
    np.fill_diagonal(dist, 0.0)
    n = x.shape[0]
    mask = np.zeros((n, n), dtype=bool)
    mask[np.repeat(np.arange(n), t), neighbors.ravel()] = True
    mask |= mask.T
    entries = dense_entries(dist, mask, sigma, sigma)
    np.fill_diagonal(entries, 1.0)
    return entries, sigma


def dense_constraints(entries, cs):
    entries = entries.copy()
    for i, j in cs.must_links:
        entries[i, j] = entries[j, i] = 1.0
    for i, j in cs.cannot_links:
        entries[i, j] = entries[j, i] = 0.0
    return entries


def dense_query_kernel(train, train_sigma, t, x):
    dist = cdist(x, train)
    nearest, sigma = dense_nearest(dist, t)
    mask = dist <= train_sigma[None, :]
    mask[np.repeat(np.arange(x.shape[0]), t), nearest.ravel()] = True
    return dense_entries(dist, mask, sigma, train_sigma)


def assert_same_csr(got, dense):
    want = sparse.csr_matrix(dense)
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def tie_heavy(rng, n, d, decimals):
    """Rounded features with some rows repeated, so distances tie and scales hit 0."""
    x = np.round(rng.uniform(0, 3, (n, d)), decimals)
    repeats = rng.integers(0, n, int(rng.integers(0, n // 2 + 1)))
    x[rng.integers(0, n, repeats.size)] = x[repeats]
    return x


def random_links(rng, n):
    pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)])
    chosen = pairs[rng.permutation(len(pairs))[: int(rng.integers(0, 2 * n))]]
    split = int(rng.integers(0, len(chosen) + 1))
    return ConstraintSet(tuple(map(tuple, chosen[:split])), tuple(map(tuple, chosen[split:])), n)


class TestAgainstDenseOracle:
    @settings(deadline=None, max_examples=150)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 40),
        d=st.sampled_from([1, 2, 5, 20]),
        decimals=st.sampled_from([0, 1, 2, 15]),
        t_frac=st.floats(0, 1),
        small_blocks=st.booleans(),
    )
    def test_kernel_links_and_queries_byte_equal(self, seed, n, d, decimals, t_frac, small_blocks):
        rng = np.random.default_rng(seed)
        x = tie_heavy(rng, n, d, decimals)
        t = 1 + int(t_frac * (n - 2))
        # A block of one pair gives each tied row a ball query of its own.
        with mock.patch.object(kernel, "_TIE_BLOCK", 1 if small_blocks else kernel._TIE_BLOCK):
            k = local_scaling_kernel(x, t)
            entries, sigma = dense_kernel(x, t)
            assert_same_csr(k.csr, entries)
            assert k.sigma.tobytes() == sigma.tobytes()
            neighbors, scales = nearest_neighbors(x, t)
            want_neighbors, _ = dense_nearest(cdist(x, x) + np.diag(np.full(n, np.inf)), t)
            assert neighbors.tobytes() == want_neighbors.astype(neighbors.dtype).tobytes()
            assert scales.tobytes() == sigma.tobytes()

            cs = random_links(rng, n)
            assert_same_csr(apply_constraints(k, cs).csr, dense_constraints(entries, cs))

            queries = np.vstack([x[rng.integers(0, n, int(rng.integers(0, 5)))],
                                 tie_heavy(rng, int(rng.integers(1, 20)), d, decimals)])
            model = ClusterModel(
                phi=np.full((n, 1), n**-0.5), lam=np.ones(1), c=1, t=t, gamma=0.0, eta=0.0,
                train_features=x, train_sigma=sigma,
            )
            assert_same_csr(_query_kernel(model, queries), dense_query_kernel(x, sigma, t, queries))

    @pytest.mark.parametrize("t", [1, 2, 5, 9])
    @pytest.mark.parametrize("decimals", [None, 1])
    def test_benchmark_blobs(self, t, decimals):
        x = make_blobs(300, 2, 2, 3.0, seed=t).features
        x = x if decimals is None else np.round(x, decimals)
        k = local_scaling_kernel(x, t)
        entries, sigma = dense_kernel(x, t)
        assert_same_csr(k.csr, entries)
        assert k.sigma.tobytes() == sigma.tobytes()

    def test_more_duplicates_than_candidates(self):
        # Ten copies of one point: the tree cannot even return each copy itself.
        x = np.vstack([np.zeros((10, 2)), np.arange(10.0)[:, None] * [1.0, 0.5] + 3.0])
        for t in (1, 3, 12):
            k = local_scaling_kernel(x, t)
            entries, sigma = dense_kernel(x, t)
            assert_same_csr(k.csr, entries)
            assert k.sigma.tobytes() == sigma.tobytes()


def distances_computed(monkeypatch, x, t):
    """How many pair distances ``nearest_neighbors(x, t)`` computes."""
    computed = []
    pair_distances = kernel._pair_distances

    def counting(*args):
        out = pair_distances(*args)
        computed.append(out.size)
        return out

    monkeypatch.setattr(kernel, "_pair_distances", counting)
    nearest_neighbors(x, t)
    return sum(computed)


def test_tied_rows_compute_few_distances(monkeypatch):
    """Rounded blobs tie most rows at the cut; settling them must not cost a distance row each."""
    x = np.round(make_blobs(10000, 2, 2, 3.0, seed=1).features, 1)
    assert distances_computed(monkeypatch, x, 5) < 50 * x.shape[0]


def test_identical_rows_share_one_ball(monkeypatch):
    """Half the rows are one point; their shared ball must not be listed once per copy."""
    x = make_blobs(10000, 2, 2, 3.0, seed=1).features
    x[: x.shape[0] // 2] = x[0]
    assert distances_computed(monkeypatch, x, 5) <= 50 * x.shape[0]


class TestSortedKeys:
    """The sort-and-search key path against the hash-based set calls it replaced."""

    @settings(deadline=None, max_examples=200)
    @given(
        parts=st.lists(
            st.lists(st.integers(0, 60), max_size=30).map(lambda v: np.array(v, dtype=np.int64)),
            min_size=1, max_size=4,
        )
    )
    def test_union_and_membership_equal_union1d_and_isin(self, parts):
        keys = kernel._union_keys(*parts)
        want = np.array([], dtype=np.int64)
        for part in parts:
            want = np.union1d(want, part)
        assert keys.dtype == want.dtype and keys.tobytes() == want.tobytes()
        for part in parts:
            at = np.searchsorted(keys, part)
            member = np.zeros(keys.size, dtype=bool)
            member[at] = True
            assert np.array_equal(keys[at], part)
            assert np.array_equal(member, np.isin(keys, part))

    @settings(deadline=None, max_examples=200)
    @given(
        n=st.integers(2, 12),
        raw=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=20),
        diagonal=st.sampled_from([0.0, 1.0]),
    )
    @example(n=2, raw=[], diagonal=0.0)
    @example(n=2, raw=[(0, 1), (1, 0), (0, 1)], diagonal=1.0)
    def test_link_matrix_equals_coo_build(self, n, raw, diagonal):
        # Pairs as a ConstraintSet holds them: i < j, repeats kept.
        pairs = tuple((i % n, j % n) for i, j in raw if i % n != j % n)
        pairs = ConstraintSet(pairs, (), n).must_links
        want = oracles.link_matrix(pairs, n, diagonal)
        assert_same_csr(kernel._link_matrix(pairs, n, diagonal), want)


def test_kernel_matrix_keeps_canonical_csr():
    dense = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 1.0]])
    # Unsorted, with duplicates to sum and an explicit zero.
    rows, cols = [2, 0, 1, 0, 1, 2, 2, 0], [0, 2, 0, 0, 1, 2, 0, 2]
    messy = sparse.coo_matrix(([0.25, 0.25, 0.0, 1.0, 1.0, 1.0, 0.25, 0.25], (rows, cols)))
    for given_matrix in (dense, sparse.csr_matrix(dense), messy):
        k = kernel.KernelMatrix(given_matrix, t=1)
        assert_same_csr(k.csr, dense)
        assert np.array_equal(k.entries, dense)


class TestEigensolverRefusals:
    """ARPACK serves every c <= n with no dense solver; an ARPACK failure exits 1."""

    @pytest.mark.parametrize("c", [64, 65])
    def test_c_n_minus_1_and_n_at_n65_run_without_eigh(self, monkeypatch, c):
        n = 65
        matrix = oracles.Dense(np.diag(np.arange(n, 0, -1.0)))
        monkeypatch.setattr(np.linalg, "eigh", mock.Mock(side_effect=AssertionError("eigh ran")))
        lam, phi = solver.top_eigenpairs(matrix, c)
        assert np.allclose(lam, np.arange(n, n - c, -1.0), rtol=0, atol=1e-8)
        assert np.allclose(phi.T @ phi, np.eye(c), atol=1e-10)
        np.linalg.eigh.assert_not_called()

    def test_arpack_failure_exits_1_with_one_line(self, tmp_path, monkeypatch, capsys):
        from scipy.sparse import linalg

        from smiclust.cli import main

        def no_convergence(*args, **kwargs):
            raise linalg.ArpackNoConvergence("No convergence (9 iterations)", [], [])

        path = tmp_path / "x.csv"
        np.savetxt(path, make_blobs(10, 2, 2, 3.0, seed=0).features, delimiter=",")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(linalg, "eigsh", no_convergence)
        assert main(["cluster", "--input", str(path), "--classes", "2", "--t", "3"]) == 1
        err = capsys.readouterr().err
        assert err == "error: ArpackNoConvergence: ARPACK error -1: No convergence (9 iterations)\n"


def test_cluster_at_n20000_fits_in_one_gib(tmp_path):
    """The dense build needed about 3 GiB here; the sparse path runs under a 1 GiB address space."""
    code = (
        "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from smiclust import data, solver\n"
        "ds = data.make_blobs(10000, 2, 2, 3.0, seed=0)\n"
        "cs = data.sample_constraints(ds.labels, 20000, seed=1)\n"
        "labels, _ = solver.cluster(ds, cs, 5, 1.0, 1.0, 2)\n"
        "print(labels.shape[0], sorted(set(labels.tolist())))\n"
    )
    env = os.environ.copy()
    package_root = str(Path(smiclust.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["20000", "[1,", "2]"]
