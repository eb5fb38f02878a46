import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from oracles import evaluate_ratio, hold_error, ratio_model
from smiclust import lsmi
from smiclust.data import empty_constraints, make_blobs
from smiclust.evaluation import BenchmarkConfig
from smiclust.kernel import FeatureScaleError
from smiclust.lsmi import (
    DEFAULT_DELTA_GRID,
    CvRecord,
    LsmiConfig,
    RatioModel,
    _class_columns,
    _center_quotas,
    _class_systems,
    _fold_assignment,
    _stratified_centers,
    cross_validate,
    default_kappa_grid,
    fit_ratio_model,
    lsmi_value,
    ratio_matrix,
)
from smiclust.model_select import grid_search


def gauss(a, b, kappa):
    return np.exp(-np.sum((a - b) ** 2) / (2 * kappa**2))


def systems_oracle(x, y, centers, kappa):
    """Loop transcription of the normal-system definitions."""
    n = x.shape[0]
    out = {}
    for cls, ctr in centers.items():
        m = ctr.shape[0]
        n_y = int(np.sum(y == cls))
        h_mat = np.zeros((m, m))
        for l1 in range(m):
            for l2 in range(m):
                h_mat[l1, l2] = (n_y / n**2) * sum(
                    gauss(x[i], ctr[l1], kappa) * gauss(x[i], ctr[l2], kappa) for i in range(n)
                )
        h_vec = np.zeros(m)
        for l1 in range(m):
            h_vec[l1] = sum(gauss(x[i], ctr[l1], kappa) for i in range(n) if y[i] == cls) / n
        out[cls] = (h_mat, h_vec)
    return out


def cv_oracle(model, x_hold, y_hold):
    """Loop transcription of the hold-out error: all m^2 combinations minus matches."""
    m = x_hold.shape[0]
    first = sum(
        evaluate_ratio(model, x_hold[i], y_hold[j]) ** 2 for i in range(m) for j in range(m)
    ) / (2 * m**2)
    second = sum(evaluate_ratio(model, x_hold[i], y_hold[i]) for i in range(m)) / m
    return first - second


def solve_ridge_oracle(h_mat, h_vec, delta):
    """The ridge solve through scipy's Cholesky wrappers, with the delta=0 fallback."""
    system = h_mat + delta * np.eye(h_mat.shape[0])
    try:
        return cho_solve(cho_factor(system), h_vec)
    except LinAlgError:
        if delta > 0:
            raise
        return np.linalg.lstsq(system, h_vec, rcond=None)[0]


def cross_validate_oracle(x, y, kappa_grid, delta_grid, folds, center_cap, seed):
    """Per-kappa, per-delta transcription of the CV: every fold's systems and
    hold-out kernels are rebuilt from the features at each grid point."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    kappa_grid = sorted(float(k) for k in kappa_grid)
    delta_grid = sorted(float(d) for d in delta_grid)
    rng = np.random.default_rng(seed)
    fold_of = _fold_assignment(y, folds, rng)
    splits = []
    for m in range(folds):
        hold = fold_of == m
        centers = _stratified_centers(x[~hold], y[~hold], center_cap, rng)
        splits.append((~hold, hold, centers))
    table, best = [], None
    for kappa in kappa_grid:
        for delta in delta_grid:
            fold_cv = []
            for train, hold, centers in splits:
                systems = _class_systems(x[train], y[train], centers, kappa)
                classes = tuple(sorted(centers))
                model = RatioModel(
                    classes=classes,
                    centers=tuple(centers[cls] for cls in classes),
                    weights=tuple(solve_ridge_oracle(*systems[cls], delta) for cls in classes),
                    kappa=kappa,
                    delta=delta,
                )
                fold_cv.append(hold_error(model, x[hold], y[hold]))
            mean_cv = float(np.mean(fold_cv))
            table.append(CvRecord(kappa, delta, mean_cv, tuple(fold_cv)))
            if best is None or mean_cv < best[2]:
                best = (kappa, delta, mean_cv)
    return best[0], best[1], table


def lsmi_oracle(model, x, y):
    n = x.shape[0]
    first = sum(
        evaluate_ratio(model, x[i], y[j]) ** 2 for i in range(n) for j in range(n)
    ) / (2 * n**2)
    second = sum(evaluate_ratio(model, x[i], y[i]) for i in range(n)) / n
    return -first + second - 0.5


class TestFit:
    def test_single_sample_scalar_oracle(self):
        x = np.array([[0.7, -0.2]])
        y = np.array([1])
        for delta in (0.0, 0.5, 2.0):
            model = fit_ratio_model(x, y, kappa=1.0, delta=delta)
            # H = 1, h = 1, so the weight is 1 / (1 + delta)
            assert np.isclose(model.weights[0][0], 1.0 / (1.0 + delta), atol=1e-12)
            if delta == 0.0:
                assert np.isclose(evaluate_ratio(model, x[0], 1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_systems_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 11))
        x = rng.standard_normal((n, 2))
        y = rng.integers(1, 3, size=n)
        y[0], y[1] = 1, 2  # both classes present
        centers = {1: x[y == 1][:3], 2: x[y == 2][:3]}
        kappa = float(rng.uniform(0.5, 2.0))
        got = _class_systems(x, y, centers, kappa)
        expected = systems_oracle(x, y, centers, kappa)
        for cls in (1, 2):
            assert np.allclose(got[cls][0], expected[cls][0], atol=1e-10)
            assert np.allclose(got[cls][1], expected[cls][1], atol=1e-10)

    def test_center_quotas_take_back_the_floor_of_one(self):
        # raw = (2.94, 0.03, 0.03): flooring gives (2, 0, 0), the floor of one (2, 1, 1),
        # one over the cap, so the largest class gives its center back.
        assert tuple(_center_quotas(np.array([100, 1, 1]), 3)) == (1, 1, 1)

    def test_cap_of_one_center_per_class(self):
        x = make_blobs(20, 3, 2, 8.0, seed=0).features[:33]
        y = np.repeat([1, 2, 3], [20, 12, 1])
        model = fit_ratio_model(x, y, kappa=1.0, delta=0.1, cfg=LsmiConfig(center_cap=3))
        assert model.classes == (1, 2, 3)
        assert [ctr.shape[0] for ctr in model.centers] == [1, 1, 1]
        for cls, ctr in zip(model.classes, model.centers):
            assert any(np.array_equal(ctr[0], row) for row in x[y == cls])

    def test_solution_solves_the_system(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((30, 3))
        y = rng.integers(1, 4, size=30)
        y[:3] = [1, 2, 3]
        model = fit_ratio_model(x, y, kappa=1.2, delta=0.01, seed=0)
        centers = {cls: ctr for cls, ctr in zip(model.classes, model.centers)}
        systems = _class_systems(x, y, centers, 1.2)
        for cls, w in zip(model.classes, model.weights):
            h_mat, h_vec = systems[cls]
            residual = np.linalg.norm((h_mat + 0.01 * np.eye(len(w))) @ w - h_vec)
            assert residual <= 1e-8 * np.linalg.norm(h_vec)

    def test_duplicated_data_equals_weighted_fit(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 2))
        y = np.array([1, 1, 1, 1, 2, 2, 2, 2])
        centers = {1: x[:2], 2: x[4:6]}
        doubled = ratio_model(np.vstack([x, x]), np.concatenate([y, y]), centers, 1.0, 0.1)
        # weighted oracle on the deduplicated data, every point with weight 2
        w = 2.0
        total = w * 8
        for cls, ctr, weights in zip(doubled.classes, doubled.centers, doubled.weights):
            m = ctr.shape[0]
            n_y = w * np.sum(y == cls)
            h_mat = np.zeros((m, m))
            for l1 in range(m):
                for l2 in range(m):
                    h_mat[l1, l2] = (n_y / total**2) * sum(
                        w * gauss(x[i], ctr[l1], 1.0) * gauss(x[i], ctr[l2], 1.0)
                        for i in range(8)
                    )
            h_vec = np.array(
                [
                    sum(w * gauss(x[i], ctr[l1], 1.0) for i in range(8) if y[i] == cls) / total
                    for l1 in range(m)
                ]
            )
            expected = np.linalg.solve(h_mat + 0.1 * np.eye(m), h_vec)
            assert np.allclose(weights, expected, atol=1e-10)

    def test_large_delta_limit(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((10, 2))
        y = rng.integers(1, 3, size=10)
        y[:2] = [1, 2]
        delta = 1e8
        model = fit_ratio_model(x, y, kappa=1.0, delta=delta, seed=0)
        centers = {cls: ctr for cls, ctr in zip(model.classes, model.centers)}
        systems = _class_systems(x, y, centers, 1.0)
        for cls, w in zip(model.classes, model.weights):
            assert np.allclose(w, systems[cls][1] / delta, rtol=1e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_ridge_shrinkage_monotone(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((15, 2))
        y = rng.integers(1, 3, size=15)
        y[:2] = [1, 2]
        norms = []
        for delta in (1e-4, 1e-2, 1.0, 100.0):
            model = fit_ratio_model(x, y, kappa=0.8, delta=delta, seed=1)
            norms.append(sum(np.linalg.norm(w) ** 2 for w in model.weights))
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_singular_system_warns_and_falls_back(self):
        x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        y = np.array([1, 1, 1])
        centers = {1: x[:2]}  # identical centers make the system singular
        with pytest.warns(RuntimeWarning, match="singular"):
            model = ratio_model(x, y, centers, 1.0, 0.0)
        h_mat, h_vec = _class_systems(x, y, centers, 1.0)[1]
        residual = np.linalg.norm(h_mat @ model.weights[0] - h_vec)
        assert residual <= 1e-8 * np.linalg.norm(h_vec)

    def test_bad_hyperparameters_rejected(self):
        x = np.ones((3, 1))
        y = np.array([1, 1, 1])
        with pytest.raises(ValueError):
            fit_ratio_model(x, y, kappa=0.0, delta=0.1)
        with pytest.raises(ValueError):
            fit_ratio_model(x, y, kappa=1.0, delta=-0.1)

    @pytest.mark.parametrize("delta", [np.inf, np.nan])
    def test_non_finite_delta_rejected(self, delta):
        x = np.ones((3, 1))
        y = np.array([1, 1, 1])
        with pytest.raises(ValueError, match=f"delta must be finite and non-negative, got {delta}"):
            fit_ratio_model(x, y, kappa=1.0, delta=delta)

    def test_center_cap_respected(self):
        ds = make_blobs(300, 2, 2, 5.0, seed=0)
        cfg = LsmiConfig(center_cap=50)
        model = fit_ratio_model(ds.features, ds.labels, kappa=1.0, delta=0.1, cfg=cfg)
        assert sum(ctr.shape[0] for ctr in model.centers) == 50
        for ctr in model.centers:
            assert ctr.shape[0] >= 1


class TestEvaluateRatio:
    def test_unknown_class_rejected(self):
        model = fit_ratio_model(np.ones((2, 1)), np.array([1, 1]), kappa=1.0, delta=0.1)
        with pytest.raises(ValueError, match="unfitted class 2"):
            lsmi_value(model, np.ones((2, 1)), np.array([1, 2]))

    def test_gaussian_decay_far_away(self):
        model = fit_ratio_model(np.zeros((3, 2)), np.array([1, 1, 1]), kappa=1.0, delta=0.1)
        assert abs(ratio_matrix(model, np.array([[50.0, 50.0]]))[0, 0]) < 1e-12

    def test_linearity_in_weights(self):
        base = fit_ratio_model(
            np.array([[0.0], [1.0]]), np.array([1, 1]), kappa=1.0, delta=0.5
        )
        doubled = RatioModel(
            classes=base.classes,
            centers=base.centers,
            weights=tuple(2 * w for w in base.weights),
            kappa=base.kappa,
            delta=base.delta,
        )
        x = np.array([[0.3]])
        assert np.isclose(ratio_matrix(doubled, x)[0, 0], 2 * ratio_matrix(base, x)[0, 0])


def lsmi_of_ratios(ratios, y, classes):
    """``lsmi_value`` of a model over ``classes`` whose ratio matrix is ``ratios``."""
    with mock.patch.object(lsmi, "ratio_matrix", return_value=ratios):
        return lsmi_value(mock.Mock(classes=classes), None, y)


class TestLsmiValue:
    def test_constant_ratio_is_exactly_zero(self):
        y = np.array([1, 1, 2, 2, 2, 1, 2])
        assert lsmi_of_ratios(np.ones((7, 2)), y, (1, 2)) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_is_negated_hold_error_bit_for_bit(self, data):
        # fl(b - a) = -fl(a - b), so LSMI is the one hold-out error formula, negated, exactly.
        n, c = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 3))
        values = st.floats(-1e3, 1e3, allow_subnormal=True)
        ratios = np.array(data.draw(st.lists(values, min_size=n * c, max_size=n * c)))
        ratios = ratios.reshape(n, c)
        y = np.array(data.draw(st.lists(st.integers(1, c), min_size=n, max_size=n)))
        counts, columns = _class_columns(y, tuple(range(1, c + 1)))
        cross = float((ratios**2 @ counts).sum())
        matched = float(ratios[np.arange(n), columns].sum())
        direct = -cross / (2.0 * n**2) + matched / n - 0.5
        with mock.patch.object(lsmi, "_hold_error", wraps=lsmi._hold_error) as spy:
            got = lsmi_of_ratios(ratios, y, tuple(range(1, c + 1)))
        spy.assert_called_once()
        assert np.float64(got).tobytes() == np.float64(direct).tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((8, 2))
        y = rng.integers(1, 3, size=8)
        y[:2] = [1, 2]
        model = fit_ratio_model(x, y, kappa=1.0, delta=0.1, seed=0)
        assert np.isclose(lsmi_value(model, x, y), lsmi_oracle(model, x, y), atol=1e-10)

    def test_separated_classes_near_half(self):
        ds = make_blobs(100, 2, 2, 10.0, seed=3)
        kappa, delta, _ = cross_validate(ds.features, ds.labels, seed=0)
        model = fit_ratio_model(ds.features, ds.labels, kappa, delta, seed=0)
        assert abs(lsmi_value(model, ds.features, ds.labels) - 0.5) <= 0.15

    def test_shuffled_labels_near_zero(self):
        ds = make_blobs(100, 2, 2, 10.0, seed=3)
        shuffled = np.random.default_rng(1).permutation(ds.labels)
        kappa, delta, _ = cross_validate(ds.features, shuffled, seed=0)
        model = fit_ratio_model(ds.features, shuffled, kappa, delta, seed=0)
        assert abs(lsmi_value(model, ds.features, shuffled)) <= 0.1


class TestCrossValidate:
    def test_cv_error_matches_brute_force(self):
        rng = np.random.default_rng(4)
        x_tr = rng.standard_normal((12, 2))
        y_tr = rng.integers(1, 3, size=12)
        y_tr[:2] = [1, 2]
        model = fit_ratio_model(x_tr, y_tr, kappa=1.0, delta=0.1, seed=0)
        x_ho = rng.standard_normal((7, 2))
        y_ho = rng.integers(1, 3, size=7)
        assert np.isclose(hold_error(model, x_ho, y_ho), cv_oracle(model, x_ho, y_ho), atol=1e-10)

    def test_single_grid_point_returned(self):
        ds = make_blobs(20, 2, 2, 5.0, seed=1)
        kappa, delta, table = cross_validate(
            ds.features, ds.labels, LsmiConfig(kappa_grid=[0.7], delta_grid=[0.2]), seed=0
        )
        assert (kappa, delta) == (0.7, 0.2)
        assert len(table) == 1

    def test_reproducible(self):
        ds = make_blobs(25, 2, 2, 4.0, seed=2)
        first = cross_validate(ds.features, ds.labels, seed=5)
        second = cross_validate(ds.features, ds.labels, seed=5)
        assert first[:2] == second[:2]
        assert all(a == b for a, b in zip(first[2], second[2]))

    def test_table_covers_grid(self):
        ds = make_blobs(20, 2, 2, 4.0, seed=3)
        cfg = LsmiConfig(kappa_grid=[0.5, 1.0], delta_grid=[0.1, 1.0], folds=3)
        _, _, table = cross_validate(ds.features, ds.labels, cfg, seed=0)
        assert len(table) == 4
        assert all(len(rec.fold_cv) == 3 for rec in table)
        best = min(table, key=lambda rec: rec.mean_cv)
        kappa, delta, _ = cross_validate(ds.features, ds.labels, cfg, seed=0)
        assert (kappa, delta) == (best.kappa, best.delta)

    def test_singleton_class_raises(self):
        x = np.random.default_rng(0).standard_normal((10, 2))
        y = np.array([1] * 9 + [2])
        with pytest.raises(ValueError, match="absent"):
            cross_validate(x, y, LsmiConfig(kappa_grid=[1.0], delta_grid=[0.1]), seed=0)

    def test_selected_model_close_to_heldout_best(self):
        train = make_blobs(40, 2, 2, 8.0, seed=4)
        test = make_blobs(25, 2, 2, 8.0, seed=14)
        kappa_grid = sorted(default_kappa_grid(train.features, size=5))
        delta_grid = [1e-3, 0.1, 1.0]
        test_scores = {}
        for kappa in kappa_grid:
            for delta in delta_grid:
                model = fit_ratio_model(train.features, train.labels, kappa, delta, seed=0)
                test_scores[(kappa, delta)] = lsmi_value(model, test.features, test.labels)
        best_heldout = max(test_scores.values())
        cfg = LsmiConfig(kappa_grid=kappa_grid, delta_grid=delta_grid)
        kappa, delta, _ = cross_validate(train.features, train.labels, cfg, seed=0)
        assert test_scores[(kappa, delta)] >= best_heldout - 0.05

    def test_empty_hold_out_fold_is_refused_before_any_solve(self):
        # 3 points a class split into 5 stratified folds: folds 3 and 4 hold out nothing.
        ds = make_blobs(3, 2, 2, 8.0, seed=0)
        with mock.patch.object(lsmi, "_solve_ridge", side_effect=AssertionError("solved")):
            with pytest.raises(
                ValueError, match="^fold 3 is empty: every class has fewer than 5 points$"
            ):
                cross_validate(ds.features, ds.labels, seed=0)
        # With as many points a class as folds, every fold holds one out.
        _, _, table = cross_validate(ds.features, ds.labels, LsmiConfig(folds=3), seed=0)
        assert all(len(rec.fold_cv) == 3 for rec in table)

    def test_bad_folds_rejected(self):
        ds = make_blobs(10, 2, 2, 4.0, seed=0)
        with pytest.raises(ValueError):
            cross_validate(ds.features, ds.labels, LsmiConfig(folds=1))

    @pytest.mark.parametrize(
        "grid, value, match",
        [
            ("kappa", 0.0, "kappa grid values must be finite and positive, got 0.0"),
            ("kappa", -1.0, "kappa grid values must be finite and positive, got -1.0"),
            ("kappa", np.inf, "kappa grid values must be finite and positive, got inf"),
            ("kappa", np.nan, "kappa grid values must be finite and positive, got nan"),
            ("delta", -0.1, "delta grid values must be finite and non-negative, got -0.1"),
            ("delta", np.nan, "delta grid values must be finite and non-negative, got nan"),
            ("delta", np.inf, "delta grid values must be finite and non-negative, got inf"),
        ],
    )
    def test_bad_grid_value_rejected_before_fold_work(self, grid, value, match):
        ds = make_blobs(10, 2, 2, 4.0, seed=0)
        grids = {"kappa_grid": [1.0], "delta_grid": [0.1]}
        grids[f"{grid}_grid"] = [1.0 if grid == "kappa" else 0.1, value]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no singular-system warning on the way
            with pytest.raises(ValueError, match=match):
                cross_validate(ds.features, ds.labels, LsmiConfig(**grids), seed=0)

    def test_underflowing_kappa_names_non_finite_system(self):
        # kappa**2 underflows to 0, so a center's zero distance to itself gives 0/0.
        ds = make_blobs(10, 2, 2, 4.0, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
                cross_validate(ds.features, ds.labels, LsmiConfig(kappa_grid=[1e-200]), seed=0)
            with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
                fit_ratio_model(ds.features, ds.labels, kappa=1e-200, delta=0.1)

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(6, 40),
        dim=st.integers(1, 3),
        classes=st.integers(1, 3),
        folds=st.integers(2, 5),
        cap_below_n=st.booleans(),
        duplicates=st.booleans(),
        with_zero_delta=st.booleans(),
    )
    def test_table_matches_per_grid_point_oracle(
        self, seed, n, dim, classes, folds, cap_below_n, duplicates, with_zero_delta
    ):
        rng = np.random.default_rng(seed)
        # every class at least ``folds`` times, so each hold-out class trains
        y = np.concatenate(
            [np.repeat(np.arange(1, classes + 1), folds), rng.integers(1, classes + 1, size=n)]
        )
        x = rng.standard_normal((y.shape[0], dim))
        if duplicates:
            x = np.round(x)  # many coincident points, near-singular systems
        center_cap = int(rng.integers(classes, n)) if cap_below_n else 500
        # On rounded features the two narrowest widths underflow every kernel
        # value between distinct points to 0, so their rows tie: the tie-break.
        kappa_grid = [1e-3, 2e-3] + list(rng.uniform(0.05, 3.0, size=int(rng.integers(0, 4))))
        delta_grid = [0.0, 1e-2, 1.0] if with_zero_delta else list(DEFAULT_DELTA_GRID)
        args = (x, y, kappa_grid, delta_grid, folds, center_cap, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = cross_validate_oracle(*args)
            got = cross_validate(x, y, LsmiConfig(center_cap, folds, kappa_grid, delta_grid), seed)
        assert repr(got) == repr(expected)  # float reprs round-trip: bit for bit


class TestRatioMatrix:
    def test_columns_match_per_class_evaluation(self):
        ds = make_blobs(15, 2, 2, 5.0, seed=6)
        model = fit_ratio_model(ds.features, ds.labels, kappa=1.0, delta=0.1, seed=0)
        mat = ratio_matrix(model, ds.features)
        for k, cls in enumerate(model.classes):
            assert np.allclose(mat[:, k], evaluate_ratio(model, ds.features, cls))


@pytest.mark.parametrize("caller", ["fit_ratio_model", "RatioModel", "cross_validate",
                                    "LsmiConfig"])
@pytest.mark.parametrize(
    "name, value",
    [("kappa", 0.0), ("kappa", -1.0), ("kappa", np.inf), ("kappa", np.nan),
     ("delta", -0.1), ("delta", np.inf), ("delta", np.nan)],
)
def test_every_entry_refuses_a_bad_kappa_or_delta(caller, name, value):
    ds = make_blobs(10, 2, 2, 4.0, seed=0)
    kappa, delta = (value, 0.1) if name == "kappa" else (1.0, value)
    rule = "finite and positive" if name == "kappa" else "finite and non-negative"
    grid = " grid values" if caller in ("cross_validate", "LsmiConfig") else ""
    calls = {
        "fit_ratio_model": lambda: fit_ratio_model(ds.features, ds.labels, kappa, delta),
        "RatioModel": lambda: RatioModel(
            classes=(1,), centers=(np.zeros((1, 2)),), weights=(np.ones(1),), kappa=kappa,
            delta=delta,
        ),
        "cross_validate": lambda: cross_validate(
            ds.features, ds.labels, LsmiConfig(kappa_grid=[kappa], delta_grid=[delta])
        ),
        "LsmiConfig": lambda: LsmiConfig(kappa_grid=(kappa,), delta_grid=(delta,)),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any numeric work
        with pytest.raises(ValueError, match=f"^{name}{grid} must be {rule}, got {value}$"):
            calls[caller]()


@pytest.mark.parametrize(
    "entry", ["LsmiConfig", "cross_validate", "fit_ratio_model", "grid_search", "from_dict"]
)
@pytest.mark.parametrize(
    "name, value, message",
    [("folds", 1, "folds must be >= 2, got 1"),
     ("folds", 2.5, "folds must be a whole number, got 2.5"),
     ("folds", True, "folds must be a whole number, got True"),
     ("center_cap", 0, "center cap must be >= 1, got 0"),
     ("center_cap", 3.5, "center_cap must be a whole number, got 3.5"),
     ("center_cap", True, "center_cap must be a whole number, got True")],
)
def test_every_lsmi_entry_refuses_a_bad_count(entry, name, value, message):
    """Each entry takes its LSMI settings as one ``LsmiConfig``, refused by its one rule."""
    ds = make_blobs(10, 2, 2, 4.0, seed=0)
    doc = {"dataset": {"generator": "blobs", "n_per_class": 10, "classes": 2},
           "link_counts": [0], "runs": 1, "lsmi": {name: value}}
    calls = {
        "LsmiConfig": lambda: LsmiConfig(**{name: value}),
        "cross_validate": lambda: cross_validate(
            ds.features, ds.labels, LsmiConfig(**{name: value})
        ),
        "fit_ratio_model": lambda: fit_ratio_model(
            ds.features, ds.labels, 1.0, 0.1, LsmiConfig(**{name: value})
        ),
        "grid_search": lambda: grid_search(
            ds, empty_constraints(ds.n), 2, lsmi_cfg=LsmiConfig(**{name: value})
        ),
        "from_dict": lambda: BenchmarkConfig.from_dict(doc),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any numeric work
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            calls[entry]()


def test_default_kappa_grid_refuses_an_overflowing_median():
    """Blobs scaled by 1e150 at +-1e154 have finite kNN distances, but their median pairwise
    distance overflows: the default grid is refused with the rescale hint, not set to inf."""
    ds = make_blobs(10, 2, 2, 3.0, seed=0)
    hint = "^squared distances between points overflow float64; rescale the features"
    far = ds.features * 1e150 + np.where(ds.labels == 1, 1e154, -1e154)[:, None]
    with pytest.raises(FeatureScaleError, match=hint):
        default_kappa_grid(far)
    with pytest.raises(FeatureScaleError, match=hint):
        LsmiConfig().resolve(far)
    assert np.isfinite(default_kappa_grid(ds.features * 1e150)).all()
