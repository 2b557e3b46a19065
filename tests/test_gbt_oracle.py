"""The array-based gradient-boosted trees against the per-column reference.

``ReferenceGradientBoostedTrees`` below is the original implementation of
``repro.predictor.xgboost``: a Python loop over the sampled columns at every
node, and recursive per-tree inference.  The arithmetic of the array version
is the same, so the trees (feature, threshold and value at every node) and
the predictions must be equal bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.predictor import GradientBoostedTrees
from repro.predictor.xgboost import _TreeGrower
from repro.sim import _native


# -- the reference implementation ---------------------------------------------


@dataclass
class _ReferenceNode:
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_ReferenceNode"] = None
    right: Optional["_ReferenceNode"] = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class _ReferenceTree:
    def __init__(self, max_depth, min_child_weight, reg_lambda, reg_alpha, gamma):
        self.max_depth = max_depth
        self.min_child_weight = min_child_weight
        self.reg_lambda = reg_lambda
        self.reg_alpha = reg_alpha
        self.gamma = gamma
        self.root: Optional[_ReferenceNode] = None

    def _leaf_weight(self, grad_sum, hess_sum):
        if grad_sum > self.reg_alpha:
            numerator = grad_sum - self.reg_alpha
        elif grad_sum < -self.reg_alpha:
            numerator = grad_sum + self.reg_alpha
        else:
            return 0.0
        return -numerator / (hess_sum + self.reg_lambda)

    def _score(self, grad_sum, hess_sum):
        weight = self._leaf_weight(grad_sum, hess_sum)
        return -(grad_sum * weight + 0.5 * (hess_sum + self.reg_lambda) * weight**2)

    def _score_vector(self, grad_sums, hess_sums):
        numerator = np.where(
            grad_sums > self.reg_alpha,
            grad_sums - self.reg_alpha,
            np.where(grad_sums < -self.reg_alpha, grad_sums + self.reg_alpha, 0.0),
        )
        weights = -numerator / (hess_sums + self.reg_lambda)
        return -(grad_sums * weights + 0.5 * (hess_sums + self.reg_lambda) * weights**2)

    def fit(self, features, gradients, hessians, feature_indices):
        self.root = self._build(features, gradients, hessians, feature_indices, depth=0)
        return self

    def _build(self, features, gradients, hessians, feature_indices, depth):
        grad_sum = float(gradients.sum())
        hess_sum = float(hessians.sum())
        node = _ReferenceNode(value=self._leaf_weight(grad_sum, hess_sum))
        if depth >= self.max_depth or features.shape[0] < 2 or hess_sum < 2 * self.min_child_weight:
            return node

        parent_score = self._score(grad_sum, hess_sum)
        best_gain = 0.0
        best_feature = -1
        best_threshold = 0.0

        for feature in feature_indices:
            column = features[:, feature]
            order = np.argsort(column, kind="stable")
            sorted_values = column[order]
            grad_cumulative = np.cumsum(gradients[order])[:-1]
            hess_cumulative = np.cumsum(hessians[order])[:-1]
            right_grad = grad_sum - grad_cumulative
            right_hess = hess_sum - hess_cumulative
            valid = (
                (np.diff(sorted_values) > 1e-12)
                & (hess_cumulative >= self.min_child_weight)
                & (right_hess >= self.min_child_weight)
            )
            if not valid.any():
                continue
            gains = (
                self._score_vector(grad_cumulative, hess_cumulative)
                + self._score_vector(right_grad, right_hess)
                - parent_score
                - self.gamma
            )
            gains = np.where(valid, gains, -np.inf)
            position = int(np.argmax(gains))
            if gains[position] > best_gain:
                best_gain = float(gains[position])
                best_feature = int(feature)
                best_threshold = float(
                    0.5 * (sorted_values[position] + sorted_values[position + 1])
                )

        if best_feature < 0:
            return node

        mask = features[:, best_feature] <= best_threshold
        node.feature = best_feature
        node.threshold = best_threshold
        node.left = self._build(
            features[mask], gradients[mask], hessians[mask], feature_indices, depth + 1
        )
        node.right = self._build(
            features[~mask], gradients[~mask], hessians[~mask], feature_indices, depth + 1
        )
        return node

    def predict(self, features):
        output = np.zeros(features.shape[0])
        self._predict_into(self.root, features, np.arange(features.shape[0]), output)
        return output

    def _predict_into(self, node, features, rows, output):
        if node.is_leaf or rows.size == 0:
            output[rows] = node.value
            return
        mask = features[rows, node.feature] <= node.threshold
        self._predict_into(node.left, features, rows[mask], output)
        self._predict_into(node.right, features, rows[~mask], output)


class ReferenceGradientBoostedTrees:
    def __init__(
        self,
        n_estimators=300,
        learning_rate=0.05,
        max_depth=3,
        subsample=0.8,
        colsample_bytree=0.6,
        reg_alpha=0.0,
        reg_lambda=0.1,
        min_child_weight=1.0,
        gamma=0.0,
        random_state=0,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.subsample = subsample
        self.colsample_bytree = colsample_bytree
        self.reg_alpha = reg_alpha
        self.reg_lambda = reg_lambda
        self.min_child_weight = min_child_weight
        self.gamma = gamma
        self.random_state = random_state
        self._trees: List[_ReferenceTree] = []
        self._base_prediction = 0.0

    def fit(self, features, targets):
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float).reshape(-1)
        rng = np.random.default_rng(self.random_state)
        n_samples, n_features = features.shape
        self._trees = []
        self._base_prediction = float(targets.mean())
        predictions = np.full(n_samples, self._base_prediction)

        n_columns = max(1, int(round(self.colsample_bytree * n_features)))
        n_rows = max(2, int(round(self.subsample * n_samples)))

        for _ in range(self.n_estimators):
            gradients = predictions - targets
            hessians = np.ones(n_samples)
            rows = (
                rng.choice(n_samples, size=n_rows, replace=False)
                if n_rows < n_samples
                else np.arange(n_samples)
            )
            columns = (
                rng.choice(n_features, size=n_columns, replace=False)
                if n_columns < n_features
                else np.arange(n_features)
            )
            tree = _ReferenceTree(
                max_depth=self.max_depth,
                min_child_weight=self.min_child_weight,
                reg_lambda=self.reg_lambda,
                reg_alpha=self.reg_alpha,
                gamma=self.gamma,
            ).fit(features[rows], gradients[rows], hessians[rows], columns)
            self._trees.append(tree)
            predictions += self.learning_rate * tree.predict(features)
        return self

    def predict(self, features):
        features = np.asarray(features, dtype=float)
        predictions = np.full(features.shape[0], self._base_prediction)
        for tree in self._trees:
            predictions += self.learning_rate * tree.predict(features)
        return predictions


# -- comparison helpers -----------------------------------------------------


def reference_tree_arrays(root: _ReferenceNode) -> dict:
    """A reference tree in the node-array layout: preorder, leaves point at themselves."""
    arrays = {key: [] for key in ("feature", "threshold", "left", "right", "value")}

    def visit(node: _ReferenceNode) -> int:
        index = len(arrays["feature"])
        arrays["feature"].append(node.feature)
        arrays["threshold"].append(node.threshold)
        arrays["value"].append(node.value)
        arrays["left"].append(index)
        arrays["right"].append(index)
        if not node.is_leaf:
            arrays["left"][index] = visit(node.left)
            arrays["right"][index] = visit(node.right)
        return index

    visit(root)
    return {
        key: np.array(values, dtype=float if key in ("threshold", "value") else np.intp)
        for key, values in arrays.items()
    }


def model_tree_arrays(model: GradientBoostedTrees, tree: int) -> dict:
    """Tree number ``tree`` of a fitted model, with node indices local to it."""
    trees = model._trees
    start = trees.roots[tree]
    stop = trees.roots[tree + 1] if tree + 1 < trees.roots.size else trees.value.size
    return {
        "feature": trees.feature[start:stop],
        "threshold": trees.threshold[start:stop],
        "left": trees.left[start:stop] - start,
        "right": trees.right[start:stop] - start,
        "value": trees.value[start:stop],
    }


def assert_bitwise_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_matches_reference(features, targets, **params) -> None:
    model = GradientBoostedTrees(**params).fit(features, targets)
    reference = ReferenceGradientBoostedTrees(**params).fit(features, targets)
    assert model._trees.roots.size == len(reference._trees)
    for index, reference_tree in enumerate(reference._trees):
        expected = reference_tree_arrays(reference_tree.root)
        actual = model_tree_arrays(model, index)
        for key in expected:
            assert_bitwise_equal(actual[key], expected[key])
    assert_bitwise_equal(model.predict(features), reference.predict(features))


def make_features(rng: np.random.Generator, n_rows: int, n_cols: int, kind: str) -> np.ndarray:
    features = rng.normal(size=(n_rows, n_cols))
    if kind == "rounded":
        features = np.round(features, 1)
    elif kind == "binary":
        features = (features > 0).astype(float)
    elif kind == "mixed":
        features[:, ::3] = features[:, ::3] > 0.5
        features[:, 1::3] = np.round(features[:, 1::3])
        # Duplicated columns tie on every gain, so the column order decides.
        features[:, 2::3] = features[:, 0:1]
    elif kind == "signed_zero":
        # -0.0 == 0.0: a stable sort keeps such rows in row order.
        features = np.round(features)
    elif kind == "nan":
        # NaN sorts last, never passes a cut's spacing test and goes right.
        features = np.round(features)
        features[rng.random(features.shape) < 0.2] = np.nan
    elif kind == "adjacent":
        # Neighbouring doubles below a power of two: their midpoint rounds
        # onto the upper one, so every row goes left and the right child is
        # empty, at every depth.  Two rows grow 2 * max_depth + 1 nodes.
        below = np.nextafter(16384.0, 0.0)
        features = np.where(np.arange(n_rows)[:, None] % 2 == 0, below, 16384.0)
        features = np.repeat(features, n_cols, axis=1)
    return features


def make_targets(rng: np.random.Generator, features: np.ndarray, kind: str) -> np.ndarray:
    if kind == "constant":
        # Every gradient is zero, so every gain is zero and no split may be made.
        return np.full(features.shape[0], 2.5)
    weights = rng.normal(size=features.shape[1])
    features = np.nan_to_num(features)
    targets = np.sin(features @ weights) + 0.3 * features[:, 0] ** 2
    targets += 0.1 * rng.normal(size=features.shape[0])
    return np.round(targets, 1) if kind == "rounded" else targets


# -- tests --------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    n_rows=st.integers(3, 200),
    n_cols=st.integers(1, 60),
    kind=st.sampled_from(["continuous", "rounded", "binary", "mixed", "signed_zero", "nan"]),
    target_kind=st.sampled_from(["smooth", "rounded", "constant"]),
    seed=st.integers(0, 2**32 - 1),
    n_estimators=st.integers(1, 60),
    max_depth=st.integers(0, 5),
    learning_rate=st.sampled_from([0.05, 0.15, 0.3]),
    subsample=st.sampled_from([1.0, 0.9, 0.5]),
    colsample_bytree=st.sampled_from([1.0, 0.6, 0.2]),
    reg_alpha=st.sampled_from([0.0, 0.05, 0.5, 5.0]),
    reg_lambda=st.sampled_from([0.1, 1.0]),
    min_child_weight=st.floats(0.0, 3.0),
    gamma=st.sampled_from([0.0, 0.01, 0.2]),
)
@example(  # the empty-child chain: 25 nodes per tree on two rows
    n_rows=2,
    n_cols=1,
    kind="adjacent",
    target_kind="smooth",
    seed=7,
    n_estimators=3,
    max_depth=12,
    learning_rate=0.3,
    subsample=1.0,
    colsample_bytree=1.0,
    reg_alpha=0.0,
    reg_lambda=1.0,
    min_child_weight=1.0,
    gamma=0.0,
)
def test_matches_reference(
    n_rows, n_cols, kind, target_kind, seed, n_estimators, max_depth, **params
):
    rng = np.random.default_rng(seed)
    features = make_features(rng, n_rows, n_cols, kind)
    targets = make_targets(rng, features, target_kind)
    assert_matches_reference(
        features,
        targets,
        n_estimators=n_estimators,
        max_depth=max_depth,
        random_state=seed % 1000,
        **params,
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_matches_reference_at_predictor_scale(seed):
    """The score predictor's shape: 300 trees on 30-50 samples x 55 statistics."""
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(30, 51))
    features = make_features(rng, n_rows, 55, ["rounded", "mixed"][seed % 2])
    targets = make_targets(rng, features, "smooth")
    params = dict(colsample_bytree=0.6, learning_rate=0.05, max_depth=3, reg_lambda=0.1)
    assert_matches_reference(features, targets, n_estimators=300, random_state=seed, **params)


@pytest.mark.parametrize(
    "n_rows, subsample",
    [pytest.param(n, 0.9, id=str(n)) for n in (16, 64, 128)]
    # Every row in the root: NumPy's pairwise sum starts its eight-way
    # blocks at 8 rows and halves runs longer than 128.
    + [pytest.param(n, 1.0, id=f"{n}-all-rows") for n in (7, 8, 9, 127, 128, 129, 257)],
)
def test_matches_reference_at_cost_model_scale(n_rows, subsample):
    """The sketch cost model's shape: 80 trees on 16-128 candidates x 20 features."""
    rng = np.random.default_rng(n_rows)
    features = make_features(rng, n_rows, 20, "mixed")
    targets = make_targets(rng, features, "smooth")
    params = dict(max_depth=3, learning_rate=0.15, subsample=subsample, random_state=n_rows)
    assert_matches_reference(features, targets, n_estimators=80, **params)


def test_the_compiled_grower_grows_every_tree_when_loaded(monkeypatch):
    """The cases above check whichever grower runs; here it must be the kernel."""
    if _native.tree_grower_kernel() is None:
        pytest.skip("the compiled tree grower is not loaded")

    def numpy_grower(*_args, **_kwargs):
        raise AssertionError("the NumPy grower grew a tree")

    monkeypatch.setattr(_TreeGrower, "_grow", numpy_grower)
    rng = np.random.default_rng(5)
    features = make_features(rng, 2, 1, "adjacent")
    params = dict(max_depth=12, subsample=1.0, colsample_bytree=1.0, n_estimators=3)
    assert_matches_reference(features, np.array([0.0, 1.0]), **params)
    model = GradientBoostedTrees(**params).fit(features, np.array([0.0, 1.0]))
    assert model._trees.value.size == 3 * 25
    features = make_features(rng, 128, 20, "nan")
    targets = make_targets(rng, features, "smooth")
    params = dict(max_depth=3, learning_rate=0.15, subsample=0.9, random_state=5)
    assert_matches_reference(features, targets, n_estimators=80, **params)


def test_batch_prediction_equals_single_rows():
    rng = np.random.default_rng(3)
    features = make_features(rng, 64, 12, "rounded")
    targets = make_targets(rng, features, "smooth")
    model = GradientBoostedTrees(n_estimators=80, max_depth=4, random_state=3)
    model.fit(features, targets)
    queries = make_features(rng, 32, 12, "continuous")
    singles = np.concatenate([model.predict(row[None, :]) for row in queries])
    assert_bitwise_equal(model.predict(queries), singles)
