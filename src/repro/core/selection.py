"""Feature Selection (Section 3.2): FCBF over the constructed features.

The paper reduces 354 features to the 22 of Table 1 with the Fast
Correlation-Based Filter.  :class:`FeatureSelector` runs FCBF against a
chosen label task and remembers the surviving feature names, so the same
selection can be applied to transfer datasets (Section 6 uses the
lab-selected features in the wild).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.dataset import Dataset
from repro.ml.fcbf import fcbf
from repro.obs.telemetry import get_telemetry


class FeatureSelector:
    """FCBF wrapper bound to a label kind."""

    def __init__(self, delta: float = 0.01, max_features: Optional[int] = None) -> None:
        self.delta = delta
        self.max_features = max_features
        self.selected_: List[str] = []
        self.su_map_: Dict[str, float] = {}
        self.fitted = False

    def fit(
        self,
        dataset: Dataset,
        label_kind: str = "exact",
        feature_names: Optional[Sequence[str]] = None,
    ) -> "FeatureSelector":
        names = list(feature_names) if feature_names is not None else dataset.feature_names
        X = dataset.to_matrix(names)
        y = dataset.labels(label_kind)
        tel = get_telemetry()
        with tel.span(
            "ml.fcbf.select", task=label_kind, candidates=len(names)
        ) as span:
            indices, su_map = fcbf(X, y, delta=self.delta, feature_names=names)
            span.count("selected", len(indices))
        selected = [names[j] for j in indices]
        if self.max_features is not None:
            selected = selected[: self.max_features]
        self.selected_ = selected
        self.su_map_ = su_map
        self.fitted = True
        return self

    @property
    def selected(self) -> List[str]:
        """The surviving feature names; empty when FCBF keeps none."""
        if not self.fitted:
            raise RuntimeError("selector has not been fit")
        return list(self.selected_)

    def ranked_su(self, top: Optional[int] = None) -> List:
        """(feature, SU-with-class) sorted descending."""
        ranked = sorted(self.su_map_.items(), key=lambda item: -item[1])
        return ranked[:top] if top else ranked
