import math

import numpy as np
import pytest

from smiclust import lsmi
from smiclust.data import ConstraintSet, Dataset, empty_constraints, make_blobs, sample_constraints
from smiclust.evaluation import adjusted_rand_index
from smiclust.model_select import (
    DEFAULT_T_GRID,
    Candidate,
    LsmiConfig,
    count_violations,
    grid_search,
    score_candidates,
)

FAST_LSMI = LsmiConfig(kappa_grid=(0.5, 1.0, 2.0), delta_grid=(0.01, 0.1), folds=3)


def violations_oracle(labels, cs):
    count = 0
    for i, j in cs.must_links:
        if labels[i] != labels[j]:
            count += 1
    for i, j in cs.cannot_links:
        if labels[i] == labels[j]:
            count += 1
    return count


class TestCountViolations:
    def test_empty_constraints(self):
        assert count_violations([1, 1, 2], empty_constraints(3)) == 0

    def test_satisfied_links(self):
        cs = ConstraintSet(((0, 1),), ((0, 2),), 3)
        assert count_violations([1, 1, 2], cs) == 0

    def test_violated_links(self):
        cs = ConstraintSet(((0, 1),), ((0, 2),), 3)
        assert count_violations([1, 2, 1], cs) == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            count_violations([1, 2], empty_constraints(3))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_pair_scan_oracle(self, seed):
        rng = np.random.default_rng(seed)
        truth = rng.integers(1, 4, size=30)
        cs = sample_constraints(truth, 60, seed=seed)
        labels = rng.integers(1, 4, size=30)
        assert count_violations(labels, cs) == violations_oracle(labels, cs)


class TestScoreCandidates:
    def test_single_candidate_scores_one(self):
        cands = [Candidate(t=1, gamma=0.0, eta=0.0, lsmi=0.4, n_v=0)]
        score_candidates(cands)
        assert cands[0].score == 1.0

    def test_two_candidate_example(self):
        cands = [
            Candidate(t=1, gamma=0.0, eta=0.0, lsmi=2.0, n_v=0),
            Candidate(t=2, gamma=0.0, eta=0.0, lsmi=1.0, n_v=4),
        ]
        score_candidates(cands)
        assert cands[0].score == 1.0
        assert cands[1].score == -0.5

    def test_no_violations_ranks_by_lsmi(self):
        cands = [
            Candidate(t=k, gamma=0.0, eta=0.0, lsmi=val, n_v=0)
            for k, val in enumerate((0.3, 0.5, 0.1))
        ]
        score_candidates(cands)
        order = np.argsort([-c.score for c in cands])
        assert order.tolist() == [1, 0, 2]

    def test_order_invariance(self):
        values = [(0.4, 2), (0.2, 0), (0.6, 5)]
        forward = [Candidate(t=k, gamma=0, eta=0, lsmi=v, n_v=n) for k, (v, n) in enumerate(values)]
        backward = [
            Candidate(t=k, gamma=0, eta=0, lsmi=v, n_v=n)
            for k, (v, n) in enumerate(reversed(values))
        ]
        score_candidates(forward)
        score_candidates(backward)
        assert [c.score for c in forward] == [c.score for c in backward][::-1]

    def test_positive_scaling_preserves_ranking(self):
        base = [(0.4, 1), (0.9, 3), (0.2, 0)]
        plain = [Candidate(t=k, gamma=0, eta=0, lsmi=v, n_v=n) for k, (v, n) in enumerate(base)]
        scaled = [
            Candidate(t=k, gamma=0, eta=0, lsmi=7.3 * v, n_v=n) for k, (v, n) in enumerate(base)
        ]
        score_candidates(plain)
        score_candidates(scaled)
        assert np.argsort([c.score for c in plain]).tolist() == np.argsort(
            [c.score for c in scaled]
        ).tolist()

    def test_non_positive_lsmi_shifts_and_warns(self):
        cands = [
            Candidate(t=1, gamma=0, eta=0, lsmi=-0.2, n_v=0),
            Candidate(t=2, gamma=0, eta=0, lsmi=-0.5, n_v=2),
        ]
        with pytest.warns(RuntimeWarning, match="non-positive"):
            score_candidates(cands)
        assert cands[0].score == 0.0
        assert np.isclose(cands[1].score, -0.3 - 1.0)

    def test_failed_candidates_skipped(self):
        cands = [
            Candidate(t=1, gamma=0, eta=0, lsmi=0.5, n_v=0),
            Candidate(t=2, gamma=0, eta=0, error="boom"),
        ]
        score_candidates(cands)
        assert math.isnan(cands[1].score)

    def test_empty_or_all_failed_rejected(self):
        with pytest.raises(ValueError):
            score_candidates([])
        with pytest.raises(ValueError):
            score_candidates([Candidate(t=1, gamma=0, eta=0, error="x")])


class TestGridSearch:
    def test_single_point_grid(self):
        ds = make_blobs(25, 2, 2, 8.0, seed=0)
        cs = sample_constraints(ds.labels, 10, seed=0)
        result = grid_search(
            ds, cs, 2, t_grid=(4,), gamma_grid=(1.0,), eta_grid=(0.5,), lsmi_cfg=FAST_LSMI
        )
        assert (result.best.t, result.best.gamma, result.best.eta) == (4, 1.0, 0.5)
        assert len(result.candidates) == 1

    def test_winner_has_no_violations_on_easy_data(self):
        ds = make_blobs(30, 2, 2, 10.0, seed=1)
        cs = sample_constraints(ds.labels, 20, seed=1)
        result = grid_search(
            ds,
            cs,
            2,
            t_grid=(3, 5),
            gamma_grid=(0.0, 1.0),
            eta_grid=(0.0,),
            lsmi_cfg=FAST_LSMI,
        )
        assert result.best.n_v == 0
        assert adjusted_rand_index(result.best.labels, ds.labels) == 1.0

    def test_eta_grid_forced_for_multiclass(self):
        ds = make_blobs(20, 3, 2, 10.0, seed=2)
        cs = sample_constraints(ds.labels, 10, seed=2)
        with pytest.warns(RuntimeWarning, match="eta grid"):
            result = grid_search(
                ds,
                cs,
                3,
                t_grid=(4,),
                gamma_grid=(0.5,),
                eta_grid=(0.0, 1.0),
                lsmi_cfg=FAST_LSMI,
            )
        assert all(cand.eta == 0.0 for cand in result.candidates)

    def test_model_matches_best_candidate(self):
        ds = make_blobs(25, 2, 2, 8.0, seed=3)
        cs = sample_constraints(ds.labels, 12, seed=3)
        result = grid_search(
            ds, cs, 2, t_grid=(3, 6), gamma_grid=(0.0, 1.0), eta_grid=(0.0,), lsmi_cfg=FAST_LSMI
        )
        assert result.model.t == result.best.t
        assert result.model.gamma == result.best.gamma

    def test_deterministic_and_parallel_agree(self):
        ds = make_blobs(25, 2, 2, 6.0, seed=4)
        cs = sample_constraints(ds.labels, 15, seed=4)
        kwargs = dict(
            t_grid=(3, 5), gamma_grid=(0.0, 1.0), eta_grid=(0.0, 1.0), lsmi_cfg=FAST_LSMI, seed=7
        )
        seq = grid_search(ds, cs, 2, jobs=1, **kwargs)
        par = grid_search(ds, cs, 2, jobs=2, **kwargs)
        for a, b in zip(seq.candidates, par.candidates):
            assert (a.t, a.gamma, a.eta) == (b.t, b.gamma, b.eta)
            assert a.lsmi == b.lsmi and a.n_v == b.n_v and a.score == b.score
        assert (seq.best.t, seq.best.gamma, seq.best.eta) == (
            par.best.t,
            par.best.gamma,
            par.best.eta,
        )

    def test_one_cv_per_distinct_labeling(self, monkeypatch):
        ds = make_blobs(25, 2, 2, 6.0, seed=4)
        cs = sample_constraints(ds.labels, 15, seed=4)
        kwargs = dict(
            t_grid=(2, 3, 5), gamma_grid=(0.0, 1.0), eta_grid=(0.0, 1.0), lsmi_cfg=FAST_LSMI
        )
        par = grid_search(ds, cs, 2, jobs=2, **kwargs)
        calls = []
        original = lsmi.cross_validate

        def counted(x, y, **kw):
            calls.append(np.asarray(y).tobytes())
            return original(x, y, **kw)

        monkeypatch.setattr(lsmi, "cross_validate", counted)
        seq = grid_search(ds, cs, 2, jobs=1, **kwargs)
        distinct = {cand.labels.tobytes() for cand in seq.candidates}
        assert len(distinct) < len(seq.candidates)  # the grid repeats some labeling
        assert sorted(calls) == sorted(distinct)
        columns = ("t", "gamma", "eta", "lsmi", "n_v", "score", "error")
        for a, b in zip(seq.candidates, par.candidates):
            assert [getattr(a, k) for k in columns] == [getattr(b, k) for k in columns]
            assert a.labels.tobytes() == b.labels.tobytes()

    def test_default_kappa_grid_is_computed_once_per_search(self, monkeypatch):
        ds = make_blobs(25, 2, 2, 6.0, seed=4)
        cs = sample_constraints(ds.labels, 15, seed=4)
        cfg = LsmiConfig(delta_grid=(0.01, 0.1), folds=3)
        kwargs = dict(t_grid=(2, 3, 5), gamma_grid=(0.0, 1.0), eta_grid=(0.0, 1.0), jobs=1)
        calls = []
        original = lsmi.default_kappa_grid

        def counted(x, *args, **kw):
            calls.append(np.asarray(x).tobytes())
            return original(x, *args, **kw)

        monkeypatch.setattr(lsmi, "default_kappa_grid", counted)
        result = grid_search(ds, cs, 2, lsmi_cfg=cfg, **kwargs)
        assert len({cand.labels.tobytes() for cand in result.candidates}) >= 2
        assert calls == [ds.features.tobytes()]
        # The search scores exactly as with that grid given explicitly.
        explicit = LsmiConfig(kappa_grid=tuple(original(ds.features)), delta_grid=(0.01, 0.1),
                              folds=3)
        given = grid_search(ds, cs, 2, lsmi_cfg=explicit, **kwargs)
        columns = ("t", "gamma", "eta", "lsmi", "n_v", "score", "error")
        for a, b in zip(result.candidates, given.candidates):
            assert [getattr(a, k) for k in columns] == [getattr(b, k) for k in columns]
        assert result.best_cv == given.best_cv

    def test_empty_hold_out_fold_fails_each_candidate_by_name(self):
        # Six points, 3 a class: with the default 5 folds, folds 3 and 4 hold out nothing.
        ds = make_blobs(3, 2, 2, 8.0, seed=0)
        with pytest.raises(RuntimeError, match="^all 180 grid candidates failed: ") as info:
            grid_search(ds, empty_constraints(ds.n), 2)
        message = str(info.value)
        assert message.count(
            "): ValueError: fold 3 is empty: every class has fewer than 5 points"
        ) == 180
        assert "ZeroDivisionError" not in message

    def test_scoring_failure_is_recorded_per_candidate(self, monkeypatch):
        ds = make_blobs(25, 2, 2, 6.0, seed=4)
        cs = sample_constraints(ds.labels, 15, seed=4)

        def failing(x, y, **kw):
            raise ValueError("no usable fold")

        monkeypatch.setattr(lsmi, "cross_validate", failing)
        with pytest.raises(RuntimeError, match="all 4 grid candidates failed") as info:
            grid_search(ds, cs, 2, t_grid=(3, 5), gamma_grid=(0.0, 1.0), eta_grid=(0.0,))
        for t in (3, 5):
            for gamma in (0.0, 1.0):
                assert f"(t={t}, gamma={gamma}, eta=0.0): ValueError: no usable fold" in str(
                    info.value
                )

    def test_bad_lsmi_grid_is_refused_before_clustering(self, monkeypatch):
        from smiclust import solver

        monkeypatch.setattr(solver, "cluster", lambda *a, **kw: pytest.fail("clustered"))
        ds = make_blobs(10, 2, 2, 5.0, seed=6)
        with pytest.raises(ValueError, match="^kappa grid values must be finite and positive"):
            grid_search(ds, empty_constraints(20), 2, lsmi_cfg=LsmiConfig(kappa_grid=(-1.0,)))
        with pytest.raises(ValueError, match="^delta grid values must be finite and non-negative"):
            LsmiConfig(delta_grid=(0.1, math.nan))
        with pytest.raises(ValueError, match="^kappa and delta grids must be nonempty$"):
            LsmiConfig(kappa_grid=())

    def test_lsmi_config_counts_are_whole_numbers(self):
        """folds = 3.9 is refused, not truncated or carried into the fold split; 3.0 reads as 3."""
        with pytest.raises(ValueError, match=r"^folds must be a whole number, got 3\.9$"):
            LsmiConfig(folds=3.9)
        with pytest.raises(ValueError, match=r"^center_cap must be a whole number, got 50\.5$"):
            LsmiConfig(center_cap=50.5)
        cfg = LsmiConfig(folds=3.0, center_cap=np.int64(40))
        assert (cfg.folds, cfg.center_cap) == (3, 40) and type(cfg.folds) is int

    def test_all_candidates_failing_raises(self):
        # 30 equal points with t = 29 make K' all ones: U has rank 1, below c = 2,
        # a numeric failure that only clustering finds.
        ds = Dataset(np.ones((30, 2)))
        cs = empty_constraints(30)
        with pytest.raises(RuntimeError, match="failed: .*U has rank below c=2"):
            grid_search(ds, cs, 2, t_grid=(29,), gamma_grid=(0.0, 1.0), eta_grid=(0.0,))

    def test_default_t_grid_keeps_the_values_below_n(self):
        """On ten points the default t grid (1..10) is cut to 1..9, not refused at t = 10."""
        ds = make_blobs(5, 2, 2, 6.0, seed=0)
        result = grid_search(ds, empty_constraints(10), 2)
        assert sorted({cand.t for cand in result.candidates}) == list(range(1, 10))
        assert result.best.error is None
        with pytest.raises(ValueError, match=r"^t must be in 1\.\.9, got 10$"):
            grid_search(ds, empty_constraints(10), 2, t_grid=DEFAULT_T_GRID)

    def test_empty_grid_rejected(self):
        ds = make_blobs(10, 2, 2, 5.0, seed=6)
        with pytest.raises(ValueError):
            grid_search(ds, empty_constraints(20), 2, t_grid=())
