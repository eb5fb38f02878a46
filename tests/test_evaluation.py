import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smiclust.data import make_blobs
from smiclust.evaluation import (
    BenchmarkConfig,
    adjusted_rand_index,
    resolve_link_count,
    run_benchmark,
    write_report_csv,
    write_report_summary,
)
from smiclust.model_select import LsmiConfig
from smiclust.solver import cluster_unsupervised


def ari_pair_counting_oracle(a, b):
    """Brute-force ARI over all sample pairs."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.shape[0]
    both = same_a = same_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            sa = a[i] == a[j]
            sb = b[i] == b[j]
            both += sa and sb
            same_a += sa
            same_b += sb
    total = n * (n - 1) // 2
    expected = same_a * same_b / total
    max_index = (same_a + same_b) / 2
    if max_index == expected:
        return None  # degenerate; handled by convention
    return (both - expected) / (max_index - expected)


class TestAdjustedRandIndex:
    def test_identical_labelings(self):
        assert adjusted_rand_index([1, 2, 3, 1], [1, 2, 3, 1]) == 1.0

    def test_permutation_of_names(self):
        assert adjusted_rand_index([1, 1, 2, 2], [2, 2, 1, 1]) == 1.0

    def test_known_negative_value(self):
        assert np.isclose(adjusted_rand_index([1, 1, 2, 2], [1, 2, 1, 2]), -0.5)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a = rng.integers(1, 4, size=40)
        b = rng.integers(1, 4, size=40)
        assert adjusted_rand_index(a, b) == adjusted_rand_index(b, a)

    @settings(max_examples=30, deadline=None)
    @given(
        labels=st.lists(st.integers(1, 4), min_size=4, max_size=30),
        seed=st.integers(0, 1000),
    )
    def test_relabeling_invariance(self, labels, seed):
        a = np.asarray(labels)
        rng = np.random.default_rng(seed)
        b = rng.integers(1, 4, size=a.shape[0])
        mapping = {1: 7, 2: 5, 3: 9, 4: 2}
        a_renamed = np.array([mapping[v] for v in a])
        assert adjusted_rand_index(a, b) == adjusted_rand_index(a_renamed, b)

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(3, 31))
            a = rng.integers(1, 5, size=n)
            b = rng.integers(1, 5, size=n)
            expected = ari_pair_counting_oracle(a, b)
            got = adjusted_rand_index(a, b)
            if expected is None:
                assert got in (0.0, 1.0)
            else:
                assert np.isclose(got, expected, atol=1e-12)

    def test_random_labelings_average_near_zero(self):
        rng = np.random.default_rng(2)
        reference = rng.integers(1, 4, size=100)
        scores = [
            adjusted_rand_index(reference, rng.integers(1, 4, size=100)) for _ in range(200)
        ]
        assert abs(np.mean(scores)) < 0.05

    def test_degenerate_single_cluster(self):
        assert adjusted_rand_index([1, 1, 1], [4, 4, 4]) == 1.0
        assert adjusted_rand_index([1, 1, 1], [1, 2, 3]) == 0.0
        assert adjusted_rand_index([1, 2, 3], [5, 6, 7]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            adjusted_rand_index([1, 2], [1, 2, 3])


class TestResolveLinkCount:
    def test_absolute_counts_pass_through(self):
        assert resolve_link_count(10, 200) == 10
        assert resolve_link_count(0, 200) == 0

    def test_fractions_resolve_against_all_pairs(self):
        assert resolve_link_count(0.01, 200) == round(0.01 * 200 * 199 / 2)
        assert resolve_link_count(0.5, 10) == round(0.5 * 45)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_link_count(-1, 10)


def small_config(runs=3, link_counts=(0, 10), theta=(4, 1.0, 1.0), **kwargs):
    ds = make_blobs(25, 2, 2, 6.0, seed=0)
    return BenchmarkConfig(
        dataset=ds,
        link_counts=link_counts,
        runs=runs,
        seed=11,
        theta=theta,
        lsmi=LsmiConfig(kappa_grid=(0.5, 1.5), delta_grid=(0.1,), folds=3),
        **kwargs,
    )


class TestRunBenchmark:
    def test_zero_runs_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark(small_config(runs=0))

    def test_unlabeled_dataset_rejected(self):
        from smiclust.data import Dataset

        config = small_config()
        ds = Dataset(features=config.dataset.features)
        with pytest.raises(ValueError, match="labels"):
            run_benchmark(BenchmarkConfig(dataset=ds, link_counts=(0,), runs=1, theta=(3, 0, 0)))

    def test_row_count_and_seeds(self):
        report = run_benchmark(small_config(runs=4, link_counts=(0, 5, 20)))
        assert len(report.rows) == 4 * 3
        assert report.seeds == (11, 12, 13, 14)
        assert report.link_counts == (0, 5, 20)
        assert len(report.mean_ari) == 3
        assert all(s >= 0 for s in report.std_ari)

    def test_bitwise_reproducible(self):
        first = run_benchmark(small_config())
        second = run_benchmark(small_config())
        assert first == second

    def test_zero_links_reduces_to_unsupervised(self):
        config = small_config(runs=2, link_counts=(0,), theta=(4, 1.0, 1.0))
        report = run_benchmark(config)
        unsup, _ = cluster_unsupervised(config.dataset, 4, 2)
        expected = adjusted_rand_index(unsup, config.dataset.labels)
        assert all(row.ari == expected for row in report.rows)

    def test_fraction_link_counts_resolved(self):
        report = run_benchmark(small_config(runs=1, link_counts=(0.01,)))
        n = 50
        assert report.link_counts == (round(0.01 * n * (n - 1) / 2),)

    def test_grid_search_mode(self):
        config = small_config(theta=None, runs=1, link_counts=(5,))
        config = BenchmarkConfig(
            dataset=config.dataset,
            link_counts=config.link_counts,
            runs=config.runs,
            seed=config.seed,
            theta=None,
            t_grid=(4,),
            gamma_grid=(0.0, 1.0),
            eta_grid=(0.0,),
            lsmi=config.lsmi,
        )
        report = run_benchmark(config)
        assert len(report.rows) == 1


class TestReportWriters:
    def test_csv_long_format(self, tmp_path):
        report = run_benchmark(small_config(runs=2, link_counts=(0, 5)))
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "dataset,method,links,run,seed,ari"
        assert len(lines) == 1 + 4

    def test_writers_deterministic(self, tmp_path):
        report = run_benchmark(small_config())
        write_report_csv(report, tmp_path / "a.csv")
        write_report_csv(report, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        write_report_summary(report, tmp_path / "a.json")
        write_report_summary(report, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_from_dict_with_generator(self):
        doc = {
            "dataset": {
                "generator": "blobs",
                "n_per_class": 10,
                "classes": 2,
                "dim": 2,
                "separation": 5.0,
                "seed": 3,
            },
            "link_counts": [0, 5],
            "runs": 2,
            "seed": 1,
            "theta": {"t": 3, "gamma": 1.0, "eta": 0.0},
        }
        config = BenchmarkConfig.from_dict(doc)
        assert config.dataset.n == 20
        assert config.theta == (3, 1.0, 0.0)
        assert config.snapshot == doc
