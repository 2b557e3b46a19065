"""Tests for the predictor model families and hyper-parameter search."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.predictor import (
    BayesianGPModel,
    BayesianOptimizer,
    ConstantKernel,
    DNNRegressor,
    GaussianProcessRegressor,
    GradientBoostedTrees,
    LinearRegressionModel,
    RBF,
    WhiteKernel,
    get_loss,
    grid_search,
    mae,
    make_model,
    mse,
    rss,
)


def linear_data(n=200, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 4))
    weights = np.array([1.5, -2.0, 0.5, 3.0])
    targets = features @ weights + 0.7 + noise * rng.normal(size=n)
    return features, targets


def nonlinear_data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.uniform(-2, 2, size=(n, 3))
    targets = np.sin(features[:, 0]) + features[:, 1] ** 2 - 0.5 * features[:, 2]
    return features, targets


class TestLosses:
    def test_values(self):
        y = np.array([1.0, 2.0, 3.0])
        p = np.array([1.0, 3.0, 5.0])
        assert mse(y, p) == pytest.approx(5 / 3)
        assert mae(y, p) == pytest.approx(1.0)
        assert rss(y, p) == pytest.approx(5.0)

    def test_lookup(self):
        assert get_loss("MAE") is mae
        with pytest.raises(KeyError):
            get_loss("huber")


class TestLinearRegression:
    def test_recovers_exact_coefficients(self):
        features, targets = linear_data()
        model = LinearRegressionModel().fit(features, targets)
        np.testing.assert_allclose(model.coefficients_, [1.5, -2.0, 0.5, 3.0], atol=1e-6)
        assert model.intercept_ == pytest.approx(0.7, abs=1e-6)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LinearRegressionModel().predict(np.zeros((1, 3)))

    def test_collinear_features_do_not_blow_up(self):
        features, targets = linear_data()
        doubled = np.hstack([features, features])
        predictions = LinearRegressionModel().fit(doubled, targets).predict(doubled)
        assert mse(targets, predictions) < 1e-6

    def test_rejects_unsupported_loss(self):
        with pytest.raises(ValueError):
            LinearRegressionModel(loss="mae")

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LinearRegressionModel().fit(np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError):
            LinearRegressionModel().fit(np.zeros((5, 2)), np.zeros(4))


class TestDNN:
    def test_fits_linear_function(self):
        features, targets = linear_data(n=300)
        model = DNNRegressor(hidden_layers=(32, 16), epochs=120, patience=40, random_state=0)
        model.fit(features, targets)
        predictions = model.predict(features)
        assert mae(targets, predictions) < 0.4

    def test_reproducible_with_seed(self):
        features, targets = linear_data(n=80)
        a = DNNRegressor(hidden_layers=(16,), epochs=20, random_state=3).fit(features, targets)
        b = DNNRegressor(hidden_layers=(16,), epochs=20, random_state=3).fit(features, targets)
        np.testing.assert_array_equal(a.predict(features), b.predict(features))

    def test_mse_loss_variant(self):
        features, targets = linear_data(n=100)
        model = DNNRegressor(hidden_layers=(16,), loss="mse", epochs=30).fit(features, targets)
        assert np.isfinite(model.predict(features)).all()

    def test_invalid_loss(self):
        with pytest.raises(ValueError):
            DNNRegressor(loss="rss")

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            DNNRegressor().predict(np.zeros((1, 4)))


class TestGaussianProcess:
    def test_interpolates_training_points(self):
        rng = np.random.default_rng(0)
        features = rng.uniform(-1, 1, size=(30, 2))
        targets = np.sin(features[:, 0] * 3) + features[:, 1]
        kernel = ConstantKernel(1.0) * RBF(0.5) + WhiteKernel(1e-6)
        model = GaussianProcessRegressor(kernel).fit(features, targets)
        predictions = model.predict(features)
        assert mse(targets, predictions) < 1e-3

    def test_std_is_small_at_training_points(self):
        features = np.linspace(0, 1, 10)[:, None]
        targets = np.squeeze(features) ** 2
        model = GaussianProcessRegressor(ConstantKernel(1.0) * RBF(0.3) + WhiteKernel(1e-6))
        model.fit(features, targets)
        _, std_train = model.predict(features, return_std=True)
        _, std_far = model.predict(np.array([[5.0]]), return_std=True)
        assert std_train.mean() < std_far[0]

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            RBF(0.0)
        with pytest.raises(ValueError):
            ConstantKernel(-1.0)
        with pytest.raises(ValueError):
            WhiteKernel(-0.1)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            GaussianProcessRegressor(RBF(1.0)).predict(np.zeros((1, 2)))


class TestBayesianOptimizer:
    def test_finds_maximum_of_smooth_function(self):
        def objective(x, y):
            return -((x - 2.0) ** 2) - (y - 0.5) ** 2

        optimizer = BayesianOptimizer(
            objective, {"x": (0.1, 10.0), "y": (0.1, 10.0)}, n_initial=6, n_iterations=18, seed=0
        )
        best = optimizer.maximize()
        assert best.value > -1.0

    def test_requires_bounds(self):
        with pytest.raises(ValueError):
            BayesianOptimizer(lambda: 0, {})

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            BayesianOptimizer(lambda x: 0, {"x": (2.0, 1.0)})

    def test_best_requires_run(self):
        optimizer = BayesianOptimizer(lambda x: x, {"x": (0.1, 1.0)})
        with pytest.raises(RuntimeError):
            _ = optimizer.best


class TestBayesianGPModel:
    def test_fit_predict_nonlinear(self):
        features, targets = nonlinear_data(n=120)
        model = BayesianGPModel(n_initial=4, n_iterations=6, random_state=0)
        model.fit(features, targets)
        predictions = model.predict(features)
        assert mse(targets, predictions) < np.var(targets)
        assert set(model.best_params_) == {"C", "RBF_scale", "noise"}

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            BayesianGPModel().predict(np.zeros((1, 3)))


class TestGradientBoostedTrees:
    def test_fits_nonlinear_function(self):
        features, targets = nonlinear_data(n=400)
        model = GradientBoostedTrees(
            n_estimators=150, learning_rate=0.1, max_depth=3, random_state=0
        )
        model.fit(features, targets)
        predictions = model.predict(features)
        assert mse(targets, predictions) < 0.15 * np.var(targets)

    def test_better_than_mean_baseline_out_of_sample(self):
        features, targets = nonlinear_data(n=500)
        model = GradientBoostedTrees(n_estimators=120, learning_rate=0.1, random_state=1)
        model.fit(features[:350], targets[:350])
        predictions = model.predict(features[350:])
        baseline = np.full(150, targets[:350].mean())
        assert mse(targets[350:], predictions) < 0.5 * mse(targets[350:], baseline)

    def test_deterministic_given_seed(self):
        features, targets = nonlinear_data(n=150)
        a = GradientBoostedTrees(n_estimators=40, random_state=7).fit(features, targets)
        b = GradientBoostedTrees(n_estimators=40, random_state=7).fit(features, targets)
        np.testing.assert_array_equal(a.predict(features), b.predict(features))

    def test_constant_targets_give_constant_predictions(self):
        features = np.random.default_rng(0).normal(size=(50, 3))
        targets = np.full(50, 2.5)
        model = GradientBoostedTrees(n_estimators=20).fit(features, targets)
        np.testing.assert_allclose(model.predict(features), targets, atol=1e-9)

    def test_unsupported_loss(self):
        with pytest.raises(ValueError):
            GradientBoostedTrees(loss="mae")

    def test_get_params_round_trip(self):
        model = GradientBoostedTrees(max_depth=5)
        params = model.get_params()
        clone = GradientBoostedTrees(**params)
        assert clone.max_depth == 5

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            GradientBoostedTrees().predict(np.zeros((1, 2)))

    @pytest.mark.parametrize("shape", [(4, 7), (4, 3), (5,)])
    def test_predict_rejects_input_of_another_width(self, shape):
        features = np.random.default_rng(0).normal(size=(60, 5))
        targets = features @ np.arange(1.0, 6.0)
        model = GradientBoostedTrees(n_estimators=10, colsample_bytree=1.0).fit(features, targets)
        with pytest.raises(ValueError, match=r"5 features.*got shape " + re.escape(str(shape))):
            model.predict(np.zeros(shape))

    @pytest.mark.parametrize(
        "features_shape, targets_shape",
        [
            ((10, 3), (1,)),  # one target for ten rows
            ((0, 3), (0,)),  # no rows
            ((10,), (10,)),  # 1-D features
            ((10, 3, 2), (10,)),  # 3-D features
            ((10, 3), (9,)),  # a target short
        ],
    )
    def test_fit_rejects_inconsistent_shapes(self, features_shape, targets_shape):
        model = GradientBoostedTrees(n_estimators=2)
        shapes = f"features of shape {features_shape} and targets of shape {targets_shape}"
        with pytest.raises(ValueError, match=re.escape(shapes)):
            model.fit(np.zeros(features_shape), np.zeros(targets_shape))

    @pytest.mark.parametrize("n_estimators", [0, -1])
    def test_rejects_fewer_than_one_tree(self, n_estimators):
        with pytest.raises(ValueError, match="n_estimators"):
            GradientBoostedTrees(n_estimators=n_estimators)


class TestGridSearch:
    def test_picks_best_depth(self):
        features, targets = nonlinear_data(n=200)
        result = grid_search(
            lambda **p: GradientBoostedTrees(n_estimators=40, random_state=0, **p),
            {"max_depth": [1, 3]},
            features,
            targets,
            n_folds=3,
            seed=0,
        )
        assert result.best_params["max_depth"] == 3
        assert len(result.all_results) == 2

    def test_validation(self):
        features, targets = linear_data(n=10)
        with pytest.raises(ValueError):
            grid_search(lambda **p: LinearRegressionModel(), {}, features, targets)
        with pytest.raises(ValueError):
            grid_search(
                lambda **p: LinearRegressionModel(), {"ridge": [0.1]}, features[:2], targets[:2],
                n_folds=5,
            )


class TestMakeModel:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("linreg", LinearRegressionModel),
            ("dnn", DNNRegressor),
            ("bayes", BayesianGPModel),
            ("xgboost", GradientBoostedTrees),
        ],
    )
    def test_factory(self, name, expected):
        assert isinstance(make_model(name), expected)

    def test_paper_xgboost_configuration(self):
        model = make_model("xgboost")
        assert model.colsample_bytree == pytest.approx(0.6)
        assert model.learning_rate == pytest.approx(0.05)
        assert model.max_depth == 3
        assert model.n_estimators == 300

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_model("random_forest")
