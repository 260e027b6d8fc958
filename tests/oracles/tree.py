"""Node-object tree traversal: the oracle for compiled inference.

:func:`object_predict` is the original C4.5 batch prediction — an
index-set partition walked over the fitted ``_Node`` objects — which
the structure-of-arrays :class:`~repro.ml.compiled.TreePlan` descent
must match bit for bit.  :func:`object_engine` runs a block with every
tree prediction on this traversal and every ``diagnose_batch`` on the
full ``transform_rows`` path, i.e. with no compiled plan anywhere::

    with object_engine():
        reference = analyzer.diagnose_batch(rows)
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator

import numpy as np
import pytest

from repro.core.compiled import CompiledAnalyzer
from repro.ml.tree import C45Tree


def object_predict(tree: C45Tree, X: Any) -> np.ndarray:
    """Batch prediction by index-set partitioning over node objects."""
    if tree.root is None:
        raise RuntimeError("tree is not fitted")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    out = np.empty(len(X), dtype=int)
    stack = [(tree.root, np.arange(len(X)))]
    while stack:
        node, idx = stack.pop()
        if len(idx) == 0:
            continue
        if node.is_leaf:
            out[idx] = node.prediction
            continue
        mask = X[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[mask]))
        stack.append((node.right, idx[~mask]))
    return tree.classes_[out]


def object_predict_one(tree: C45Tree, row: Any) -> object:
    """One row, round-tripped through :func:`object_predict`."""
    return object_predict(tree, np.asarray(row, dtype=float)[None, :])[0]


@contextlib.contextmanager
def object_engine() -> Iterator[None]:
    """Evaluate trees by node traversal and batches by full transform."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(C45Tree, "predict", object_predict)
        mp.setattr(C45Tree, "predict_one", object_predict_one)
        mp.setattr(CompiledAnalyzer, "predict_rows", lambda self, *a: None)
        yield
