"""Lightweight NumPy regressors with split-conformal calibration.

One :class:`ConformalRegressor` per objective: closed-form ridge regression
on standardized features, calibrated with the *split-conformal* recipe
(Johnstone & Nettleton): hold out a deterministic calibration slice, collect
its absolute residuals, and use their ``ceil((n + 1) * confidence) / n``
quantile as the interval half-width.  Under exchangeability the interval
``prediction ± half_width`` then covers the true value with probability at
least ``confidence`` — a finite-sample guarantee that holds regardless of
how wrong the ridge model is, which is exactly what lets the screener make
*calibrated* skip decisions instead of trusting raw point estimates.

Everything is deterministic: the train/calibration split is by row index
(every fourth row calibrates), so refits on the same rows give identical
models in every process.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ConformalRegressor", "SurrogateModel", "TARGET_COLUMNS"]

#: Objective name → store-row column carrying its raw value.  Objectives
#: outside this table cannot be modelled from stored rows; the screener
#: stays inactive for runs optimizing one of those.
TARGET_COLUMNS: dict[str, str] = {
    "accuracy": "accuracy",
    "fpga_throughput": "fpga_outputs_per_second",
    "gpu_throughput": "gpu_outputs_per_second",
    "fpga_efficiency": "fpga_efficiency",
    "gpu_efficiency": "gpu_efficiency",
}

#: Every fourth row is held out for conformal calibration.
_CALIBRATION_STRIDE = 4

#: Minimum calibration residuals for a meaningful quantile.
_MIN_CALIBRATION_ROWS = 4


class ConformalRegressor:
    """Ridge regression with split-conformal prediction intervals.

    Parameters
    ----------
    confidence:
        Nominal coverage of the intervals (e.g. ``0.8``).
    l2:
        Ridge penalty on the standardized design matrix.
    """

    def __init__(self, confidence: float = 0.8, l2: float = 1e-2) -> None:
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {confidence}")
        if l2 <= 0:
            raise ValueError(f"l2 must be positive, got {l2}")
        self.confidence = float(confidence)
        self.l2 = float(l2)
        self._weights: np.ndarray | None = None
        self._feature_mean: np.ndarray | None = None
        self._feature_scale: np.ndarray | None = None
        self._quantile: float = math.inf

    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` succeeded with enough rows to calibrate."""
        return self._weights is not None and math.isfinite(self._quantile)

    def fit(self, features: np.ndarray, targets: np.ndarray) -> bool:
        """Fit on ``features`` (n × d) and ``targets`` (n), then calibrate.

        Returns ``True`` when both the fit and the calibration succeeded.
        With too few rows to hold out a calibration slice the model stays
        (or becomes) unfitted — callers must treat it as not ready rather
        than fall back to uncalibrated point estimates.
        """
        X = np.asarray(features, dtype=np.float64)
        y = np.asarray(targets, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError(f"bad training shapes: X {X.shape}, y {y.shape}")
        calibration_mask = (np.arange(X.shape[0]) % _CALIBRATION_STRIDE) == (
            _CALIBRATION_STRIDE - 1
        )
        if (
            int(calibration_mask.sum()) < _MIN_CALIBRATION_ROWS
            or int((~calibration_mask).sum()) < X.shape[1] // 4 + 2
        ):
            self._weights = None
            self._quantile = math.inf
            return False
        X_train, y_train = X[~calibration_mask], y[~calibration_mask]
        X_cal, y_cal = X[calibration_mask], y[calibration_mask]

        self._feature_mean = X_train.mean(axis=0)
        scale = X_train.std(axis=0)
        scale[scale < 1e-12] = 1.0
        self._feature_scale = scale
        design = self._design(X_train)
        gram = design.T @ design + self.l2 * np.eye(design.shape[1])
        self._weights = np.linalg.solve(gram, design.T @ y_train)

        residuals = np.abs(y_cal - self._point(X_cal))
        n = residuals.shape[0]
        rank = min(n, int(math.ceil((n + 1) * self.confidence)))
        self._quantile = float(np.sort(residuals)[rank - 1])
        return True

    def predict(self, features: np.ndarray) -> tuple[np.ndarray, float]:
        """Point predictions plus the calibrated interval half-width.

        Returns ``(predictions, half_width)``; the conformal interval of row
        ``i`` is ``predictions[i] ± half_width``.
        """
        if not self.fitted:
            raise RuntimeError("ConformalRegressor.predict called before a successful fit")
        return self._point(np.asarray(features, dtype=np.float64)), self._quantile

    # ------------------------------------------------------------ internals
    def _design(self, X: np.ndarray) -> np.ndarray:
        standardized = (X - self._feature_mean) / self._feature_scale
        return np.hstack([standardized, np.ones((standardized.shape[0], 1))])

    def _point(self, X: np.ndarray) -> np.ndarray:
        single = X.ndim == 1
        if single:
            X = X[None, :]
        predictions = self._design(X) @ self._weights
        return predictions[0] if single else predictions


class SurrogateModel:
    """One conformal regressor per objective, trained from store rows.

    Parameters
    ----------
    objective_names:
        The configured optimization objectives.  Every one of them must have
        a column mapping in :data:`TARGET_COLUMNS`; otherwise the model
        reports itself unsupported and the screen stays off.
    confidence:
        Nominal coverage of every per-objective interval.
    """

    def __init__(self, objective_names: list[str], confidence: float = 0.8) -> None:
        self.objective_names = [str(name) for name in objective_names]
        self.confidence = float(confidence)
        self.supported = all(name in TARGET_COLUMNS for name in self.objective_names)
        self._models: dict[str, ConformalRegressor] = {
            name: ConformalRegressor(confidence=confidence) for name in self.objective_names
        }

    @property
    def ready(self) -> bool:
        """Whether every objective has a fitted, calibrated regressor."""
        return self.supported and all(model.fitted for model in self._models.values())

    @staticmethod
    def targets_from_row(row: dict, objective_name: str) -> float:
        """Raw target value of one objective in one store row (NaN if absent)."""
        column = TARGET_COLUMNS.get(objective_name)
        if column is None:
            return float("nan")
        value = row.get(column)
        return float(value) if value is not None else float("nan")

    def fit(self, features: np.ndarray, rows: list[dict]) -> bool:
        """Fit every objective regressor on the rows' feature matrix.

        Rows with a non-finite target for an objective are dropped for that
        objective only.  Returns ``True`` when all regressors fitted.
        """
        if not self.supported or features.shape[0] != len(rows):
            return False
        for name, model in self._models.items():
            targets = np.asarray(
                [self.targets_from_row(row, name) for row in rows], dtype=np.float64
            )
            finite = np.isfinite(targets)
            model.fit(features[finite], targets[finite])
        return self.ready

    def predict(self, features: np.ndarray) -> dict[str, tuple[np.ndarray, float]]:
        """Per-objective ``(predictions, half_width)`` for a feature matrix."""
        return {name: model.predict(features) for name, model in self._models.items()}
