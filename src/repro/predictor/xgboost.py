"""Gradient-boosted regression trees (Section III-D.4), XGBoost style.

Trees are fitted sequentially on the gradient/hessian statistics of the loss;
splits maximise the regularised gain and leaf weights include L1/L2
regularisation, mirroring XGBoost's objective.  The hyper-parameters exposed
are the ones the paper tunes by grid search: learning rate, maximum depth,
number of trees, row/column subsampling, ``alpha``/``lambda`` regularisation
and the minimum child weight.

The split search is exact and greedy, like XGBoost's ``exact`` tree method
(Chen & Guestrin, KDD 2016, Algorithm 1).  Each tree grows in one call to
the compiled grower of :mod:`repro.sim._native` when that library is
loaded, and otherwise in whole-array NumPy passes: each node sorts its rows
x sampled columns matrix once and scores every cut of every column
together.  The two growers build the same trees bit for bit; the NumPy one
also grows any tree the kernel declines.  Trees are stored as flat node
arrays, and prediction walks all trees at once, one gather step per tree
level.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.sim import _native


@dataclass
class _Trees:
    """One or more regression trees stored as flat node arrays.

    Each tree's nodes are in preorder, and trees are stored back to back;
    ``roots`` holds the index of each tree's root.  A row at inner node ``i``
    moves to ``left[i]`` if its ``feature[i]`` value is ``<= threshold[i]``
    and to ``right[i]`` otherwise (NaN included).  A leaf has ``feature`` -1
    and ``left == right == i``, so a walk that reaches it stays there.
    ``value`` is the node's leaf weight, also kept for inner nodes, and
    ``depth`` the depth of the deepest node: the steps a walk needs.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    depth: int

    @classmethod
    def concatenate(cls, trees: Sequence["_Trees"]) -> "_Trees":
        """All ``trees`` in one set of node arrays, in the order given."""
        offsets = np.cumsum([0] + [tree.value.size for tree in trees[:-1]])
        return cls(
            feature=np.concatenate([tree.feature for tree in trees]),
            threshold=np.concatenate([tree.threshold for tree in trees]),
            left=np.concatenate([tree.left + offset for tree, offset in zip(trees, offsets)]),
            right=np.concatenate([tree.right + offset for tree, offset in zip(trees, offsets)]),
            value=np.concatenate([tree.value for tree in trees]),
            roots=np.concatenate([tree.roots + offset for tree, offset in zip(trees, offsets)]),
            depth=max(tree.depth for tree in trees),
        )

    def leaf_values(self, features: np.ndarray) -> np.ndarray:
        """The leaf weight each tree gives each row, shape ``(trees, rows)``."""
        rows = np.arange(features.shape[0])
        nodes = np.broadcast_to(self.roots[:, None], (self.roots.size, rows.size))
        for _ in range(self.depth):
            # At a leaf, feature -1 reads the last column; either way the row stays put.
            goes_left = features[rows, self.feature[nodes]] <= self.threshold[nodes]
            nodes = np.where(goes_left, self.left[nodes], self.right[nodes])
        return self.value[nodes]


#: The compiled grower's node buffers hold at most this many nodes.  Only a
#: very large ``max_depth`` allows a tree that needs more; it grows in NumPy.
_MAX_NATIVE_NODES = 1 << 20


def _node_capacity(max_depth: int, n_rows: int) -> int:
    """The most nodes a tree on ``n_rows`` rows can have.

    An inner node holds two rows or more, so one depth holds at most
    ``n_rows // 2`` of them, and at most ``2**depth``.  The count is not
    bounded by ``2 * n_rows - 1``: a midpoint threshold that rounds onto the
    upper value sends every row left and leaves the right child empty, so
    two rows can grow a chain as deep as ``max_depth``.
    """
    depths = max(max_depth, 0)
    pairs = n_rows // 2
    full = min(depths, pairs.bit_length())  # the depths where 2**depth <= pairs
    inner = 2**full - 1 + (depths - full) * pairs
    return 2 * inner + 1


class _TreeGrower:
    """Grows one depth-limited regression tree on gradient statistics."""

    def __init__(
        self,
        max_depth: int,
        min_child_weight: float,
        reg_lambda: float,
        reg_alpha: float,
        gamma: float,
    ):
        self.max_depth = max_depth
        self.min_child_weight = min_child_weight
        self.reg_lambda = reg_lambda
        self.reg_alpha = reg_alpha
        self.gamma = gamma

    # -- XGBoost leaf weight / gain ----------------------------------------
    def _leaf_weight(self, grad_sum: float, hess_sum: float) -> float:
        if grad_sum > self.reg_alpha:
            numerator = grad_sum - self.reg_alpha
        elif grad_sum < -self.reg_alpha:
            numerator = grad_sum + self.reg_alpha
        else:
            return 0.0
        return -numerator / (hess_sum + self.reg_lambda)

    def _score(self, grad_sum: float, hess_sum: float) -> float:
        weight = self._leaf_weight(grad_sum, hess_sum)
        return -(grad_sum * weight + 0.5 * (hess_sum + self.reg_lambda) * weight**2)

    def _score_vector(self, grad_sums: np.ndarray, hess_sums: np.ndarray) -> np.ndarray:
        """Vectorised node score for arrays of gradient/hessian sums."""
        numerator = np.where(
            grad_sums > self.reg_alpha,
            grad_sums - self.reg_alpha,
            np.where(grad_sums < -self.reg_alpha, grad_sums + self.reg_alpha, 0.0),
        )
        weights = -numerator / (hess_sums + self.reg_lambda)
        return -(grad_sums * weights + 0.5 * (hess_sums + self.reg_lambda) * weights**2)

    # -- construction -----------------------------------------------------------
    def grow(
        self,
        features: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
        feature_indices: np.ndarray,
    ) -> _Trees:
        """Grow a tree on these rows that splits only on ``feature_indices``.

        The compiled grower grows it when the native library is loaded, and
        ``_grow`` otherwise or where the kernel declines; the trees are the
        same bit for bit.
        """
        kernel = _native.tree_grower_kernel()
        if kernel is not None and isinstance(self.max_depth, numbers.Integral):
            tree = self._grow_native(kernel, features, gradients, hessians, feature_indices)
            if tree is not None:
                return tree
        nodes: List[list] = []
        self._grow(features[:, feature_indices], feature_indices, gradients, hessians, 0, nodes)
        feature, threshold, left, right, value, depth = zip(*nodes)
        return _Trees(
            feature=np.array(feature, dtype=np.intp),
            threshold=np.array(threshold, dtype=float),
            left=np.array(left, dtype=np.intp),
            right=np.array(right, dtype=np.intp),
            value=np.array(value, dtype=float),
            roots=np.zeros(1, dtype=np.intp),
            depth=max(depth),
        )

    def _grow_native(
        self,
        kernel,
        features: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
        feature_indices: np.ndarray,
    ) -> Optional[_Trees]:
        """The tree ``_grow`` builds, in one call to the compiled grower.

        ``None`` where the kernel declines: where ``_grow`` would raise, or
        for a tree of more than ``_MAX_NATIVE_NODES`` nodes.
        """
        n_rows, n_columns = features.shape[0], feature_indices.size
        if gradients.shape != (n_rows,) or hessians.shape != (n_rows,):
            raise ValueError(
                f"grow needs one gradient and one hessian per row: {n_rows} rows, "
                f"gradients of shape {gradients.shape}, hessians of shape {hessians.shape}"
            )
        capacity = min(_node_capacity(int(self.max_depth), n_rows), _MAX_NATIVE_NODES)
        scratch = np.empty((n_columns + 3) * n_rows + 4 * capacity, dtype=np.int64)
        feature, left, right = (np.empty(capacity, dtype=np.intp) for _ in range(3))
        threshold, value = np.empty(capacity), np.empty(capacity)
        depth = np.empty(1, dtype=np.int64)
        count = kernel(
            n_rows,
            n_columns,
            np.ascontiguousarray(features[:, feature_indices].T),
            np.ascontiguousarray(feature_indices, dtype=np.int64),
            np.ascontiguousarray(gradients, dtype=float),
            np.ascontiguousarray(hessians, dtype=float),
            min(max(int(self.max_depth), 0), capacity),  # a deeper node would not fit
            float(self.min_child_weight),
            float(self.reg_lambda),
            float(self.reg_alpha),
            float(self.gamma),
            capacity,
            scratch,
            scratch.size,
            feature,
            threshold,
            left,
            right,
            value,
            depth,
        )
        if count < 0:
            return None
        return _Trees(
            feature=feature[:count],
            threshold=threshold[:count],
            left=left[:count],
            right=right[:count],
            value=value[:count],
            roots=np.zeros(1, dtype=np.intp),
            depth=int(depth[0]),
        )

    def _grow(
        self,
        columns: np.ndarray,
        feature_indices: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
        depth: int,
        nodes: List[list],
    ) -> int:
        """Append the subtree on these rows to ``nodes`` in preorder; return its root."""
        index = len(nodes)
        grad_sum = float(gradients.sum())
        hess_sum = float(hessians.sum())
        node = [-1, 0.0, index, index, self._leaf_weight(grad_sum, hess_sum), depth]
        nodes.append(node)
        if depth >= self.max_depth or columns.shape[0] < 2 or hess_sum < 2 * self.min_child_weight:
            return index
        split = self._best_split(columns, gradients, hessians, grad_sum, hess_sum)
        if split is None:
            return index

        column, threshold = split
        # Boolean masks keep the parent's row order, which the children's
        # (pairwise) gradient sums depend on.
        goes_left = columns[:, column] <= threshold
        goes_right = ~goes_left
        node[0] = int(feature_indices[column])
        node[1] = threshold
        node[2] = self._grow(
            columns[goes_left],
            feature_indices,
            gradients[goes_left],
            hessians[goes_left],
            depth + 1,
            nodes,
        )
        node[3] = self._grow(
            columns[goes_right],
            feature_indices,
            gradients[goes_right],
            hessians[goes_right],
            depth + 1,
            nodes,
        )
        return index

    def _best_split(
        self,
        columns: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
        grad_sum: float,
        hess_sum: float,
    ) -> Optional[Tuple[int, float]]:
        """The node's best split as ``(column, threshold)``, or ``None``.

        Every column is searched in one pass: a stable sort of each column,
        prefix sums of the statistics in that order, and the gain of cutting
        after each sorted position.  The pick is the one a scan over the
        columns that keeps only a strictly larger gain makes: the first
        column that reaches the largest gain, at its first position, and
        only if that gain is positive.
        """
        order = np.argsort(columns, axis=0, kind="stable")
        column_ids = np.arange(columns.shape[1])
        sorted_values = columns[order, column_ids]
        grad_left = np.cumsum(gradients[order], axis=0)[:-1]
        hess_left = np.cumsum(hessians[order], axis=0)[:-1]
        grad_right = grad_sum - grad_left
        hess_right = hess_sum - hess_left
        valid = (
            (sorted_values[1:] - sorted_values[:-1] > 1e-12)
            & (hess_left >= self.min_child_weight)
            & (hess_right >= self.min_child_weight)
        )
        if not valid.any():
            return None

        gains = (
            self._score_vector(grad_left, hess_left)
            + self._score_vector(grad_right, hess_right)
            - self._score(grad_sum, hess_sum)
            - self.gamma
        )
        gains = np.where(valid, gains, -np.inf)
        positions = gains.argmax(axis=0)
        column_gains = gains[positions, column_ids]
        # argmax stops at a NaN, and a NaN gain never compares larger, so
        # such a column loses.
        column_gains[np.isnan(column_gains)] = -np.inf
        column = int(column_gains.argmax())
        if not column_gains[column] > 0.0:
            return None
        position = positions[column]
        threshold = float(
            0.5 * (sorted_values[position, column] + sorted_values[position + 1, column])
        )
        return column, threshold


class GradientBoostedTrees:
    """XGBoost-style gradient boosting for regression (squared-error loss)."""

    def __init__(
        self,
        n_estimators: int = 300,
        learning_rate: float = 0.05,
        max_depth: int = 3,
        subsample: float = 0.8,
        colsample_bytree: float = 0.6,
        reg_alpha: float = 0.0,
        reg_lambda: float = 0.1,
        min_child_weight: float = 1.0,
        gamma: float = 0.0,
        loss: str = "mse",
        random_state: int = 0,
    ):
        if loss != "mse":
            raise ValueError("gradient boosting is implemented for the mse loss")
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be at least 1, got {n_estimators}")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.subsample = subsample
        self.colsample_bytree = colsample_bytree
        self.reg_alpha = reg_alpha
        self.reg_lambda = reg_lambda
        self.min_child_weight = min_child_weight
        self.gamma = gamma
        self.loss = loss
        self.random_state = random_state
        self._trees: Optional[_Trees] = None
        self._base_prediction = 0.0
        self.n_features_: int = 0

    def get_params(self) -> dict:
        """Hyper-parameters as a dictionary (used by grid search)."""
        return {
            "n_estimators": self.n_estimators,
            "learning_rate": self.learning_rate,
            "max_depth": self.max_depth,
            "subsample": self.subsample,
            "colsample_bytree": self.colsample_bytree,
            "reg_alpha": self.reg_alpha,
            "reg_lambda": self.reg_lambda,
            "min_child_weight": self.min_child_weight,
            "gamma": self.gamma,
            "loss": self.loss,
            "random_state": self.random_state,
        }

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "GradientBoostedTrees":
        """Fit the boosted ensemble; returns ``self``.

        ``features`` is a 2-D array with at least one row, and ``targets``
        holds one value per row.
        """
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if features.ndim != 2 or features.shape[0] == 0 or targets.size != features.shape[0]:
            raise ValueError(
                "fit needs a 2-D feature array with at least one row and one target per "
                f"row, got features of shape {features.shape} and targets of shape "
                f"{targets.shape}"
            )
        targets = targets.reshape(-1)
        rng = np.random.default_rng(self.random_state)
        n_samples, n_features = features.shape
        self.n_features_ = n_features
        self._trees = None
        self._base_prediction = float(targets.mean())
        predictions = np.full(n_samples, self._base_prediction)

        n_columns = max(1, int(round(self.colsample_bytree * n_features)))
        n_rows = max(2, int(round(self.subsample * n_samples)))
        grower = _TreeGrower(
            max_depth=self.max_depth,
            min_child_weight=self.min_child_weight,
            reg_lambda=self.reg_lambda,
            reg_alpha=self.reg_alpha,
            gamma=self.gamma,
        )
        trees = []
        for _ in range(self.n_estimators):
            gradients = predictions - targets  # d/dpred of 0.5*(pred-y)^2
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
            tree = grower.grow(features[rows], gradients[rows], hessians[rows], columns)
            trees.append(tree)
            predictions += self.learning_rate * tree.leaf_values(features)[0]
        self._trees = _Trees.concatenate(trees)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for ``features``, a 2-D array of the fitted width."""
        if self._trees is None:
            raise RuntimeError("the model has not been fitted")
        features = np.asarray(features, dtype=float)
        if features.ndim != 2 or features.shape[1] != self.n_features_:
            raise ValueError(
                f"the model was fitted on {self.n_features_} features; predict needs a 2-D "
                f"array with {self.n_features_} columns, got shape {features.shape}"
            )
        terms = self.learning_rate * self._trees.leaf_values(features)
        base = np.full((1, features.shape[0]), self._base_prediction)
        # cumsum adds the trees one by one in order, exactly as fit did; a
        # sum could pair the terms differently.
        return np.cumsum(np.concatenate([base, terms]), axis=0)[-1].copy()

    def __repr__(self) -> str:
        return (
            f"GradientBoostedTrees(n_estimators={self.n_estimators}, max_depth={self.max_depth}, "
            f"learning_rate={self.learning_rate})"
        )
