"""Trainable sensitivity models + the predictor that serves them.

Two numpy-only, bit-reproducible learners, both regressing the paper's
linear phase model ``I(f) = i0 + slope * f`` from the serveable feature
vector (:mod:`repro.learn.features`):

:class:`RidgeModel`
    Offline closed-form ridge regression, features -> next-epoch oracle
    line ``(i0, slope)``. Trained once from an extracted dataset;
    frozen at serving time.

:class:`OnlineRLSModel`
    Recursive least squares in the style of Gupta et al.
    (arXiv:2003.11740): regress *realised commits* on
    ``psi = [z, z * f]`` so the fitted theta decomposes into an
    ``I(f)`` line per feature vector. Because the regression target is
    just the commit counter, the model keeps updating **online** while
    serving - one rank-1 RLS update per epoch, off the decision path,
    and no oracle required.

Both serialise to pure-JSON payloads (shortest-repr floats round-trip
IEEE binary64 exactly), so a registry artifact reloads to bit-identical
weights and two trainings from the same dataset + seed hash
identically.

:class:`LearnedPredictor` adapts a trained model to the existing
:class:`~repro.core.predictors.Predictor` ABC: it runs the shared
:class:`~repro.learn.features.FeatureExtractor` online, predicts one
line per domain, and (for RLS) closes the loop with the commits the
prediction actually realised. It needs neither elapsed nor future
oracle truth - counters in, frequencies out, like the deployable
designs in the paper.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import GpuConfig
from repro.core.predictors import ObserveContext, Predictor
from repro.core.sensitivity import LinearSensitivity
from repro.gpu.gpu import EpochResult
from repro.learn.features import (
    FEATURE_NAMES,
    FEATURE_SCHEMA_VERSION,
    FeatureExtractor,
)

#: Bump when model payload layout changes meaning.
MODEL_SCHEMA_VERSION = 1

#: Largest trace the RLS covariance P may keep. Exponential forgetting
#: divides P by the forgetting factor on every update, and directions no
#: update excites never shrink, so a stream that repeats one observation
#: grows P until it overflows and the line turns NaN. An update that
#: leaves trace(P) above this cap rescales P to it. The cap is at least
#: 1e4 times the trace(P) the benchmark's 145-epoch sessions reach (at
#: most 3.3e11, seeds 1-20), so it does not bind there; a session that
#: replays that trace three times reaches it near epoch 400.
RLS_P_TRACE_CAP = 1e20


class ModelError(ValueError):
    """A model payload or training input is unusable."""


class FeatureScaler:
    """Per-column standardisation, stored with the model.

    Near-constant columns (std < 1e-12) pass through untouched
    (mean 0, scale 1) so the constant ``bias`` feature survives
    centering instead of collapsing to zero.
    """

    def __init__(self, mean: Sequence[float], scale: Sequence[float]) -> None:
        self.mean = np.asarray(mean, dtype=np.float64)
        self.scale = np.asarray(scale, dtype=np.float64)
        if self.mean.shape != self.scale.shape:
            raise ModelError("scaler mean/scale shape mismatch")

    @classmethod
    def fit(cls, features: np.ndarray) -> "FeatureScaler":
        x = np.asarray(features, dtype=np.float64)
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        constant = std < 1e-12
        mean[constant] = 0.0
        std[constant] = 1.0
        return cls(mean, std)

    def transform(self, features: np.ndarray) -> np.ndarray:
        x = np.asarray(features, dtype=np.float64)
        return (x - self.mean) / self.scale

    def to_payload(self) -> Dict[str, List[float]]:
        return {"mean": self.mean.tolist(), "scale": self.scale.tolist()}

    @classmethod
    def from_payload(cls, payload: Dict[str, Sequence[float]]) -> "FeatureScaler":
        return cls(payload["mean"], payload["scale"])


class SensitivityModel:
    """Common surface: batch prediction, single-line prediction,
    optional online update, JSON payload round-trip."""

    kind: str = "abstract"

    def __init__(self, scaler: FeatureScaler, seed: int) -> None:
        self.scaler = scaler
        self.seed = int(seed)

    # -- serving -------------------------------------------------------
    def predict_rows(self, features: np.ndarray) -> np.ndarray:
        """(n, F) features -> (n, 2) array of (i0, slope)."""
        raise NotImplementedError

    def predict_line(self, phi: Sequence[float]) -> LinearSensitivity:
        row = self.predict_rows(np.asarray([phi], dtype=np.float64))[0]
        return LinearSensitivity(float(row[0]), float(row[1]))

    def update(self, phi: Sequence[float], f_ghz: float, commits: float) -> None:
        """Digest one realised (features, frequency, commits) sample.

        No-op for frozen offline models.
        """

    # -- persistence ---------------------------------------------------
    def _payload_params(self) -> Dict[str, object]:
        raise NotImplementedError

    def to_payload(self) -> Dict[str, object]:
        return {
            "schema_version": MODEL_SCHEMA_VERSION,
            "kind": self.kind,
            "feature_schema_version": FEATURE_SCHEMA_VERSION,
            "feature_names": list(FEATURE_NAMES),
            "seed": self.seed,
            "scaler": self.scaler.to_payload(),
            "params": self._payload_params(),
        }

    @staticmethod
    def from_payload(payload: Dict[str, object]) -> "SensitivityModel":
        if payload.get("schema_version") != MODEL_SCHEMA_VERSION:
            raise ModelError(
                f"model schema {payload.get('schema_version')!r} unsupported "
                f"(this build reads {MODEL_SCHEMA_VERSION})"
            )
        if payload.get("feature_schema_version") != FEATURE_SCHEMA_VERSION:
            raise ModelError(
                f"model trained against feature schema "
                f"{payload.get('feature_schema_version')!r}; this build "
                f"serves schema {FEATURE_SCHEMA_VERSION} - retrain"
            )
        kind = payload.get("kind")
        cls = MODEL_KINDS.get(str(kind))
        if cls is None:
            raise ModelError(
                f"unknown model kind {kind!r}; known: "
                + ", ".join(sorted(MODEL_KINDS))
            )
        return cls._from_payload(payload)

    @classmethod
    def _from_payload(cls, payload: Dict[str, object]) -> "SensitivityModel":
        raise NotImplementedError


class RidgeModel(SensitivityModel):
    """Closed-form ridge regression onto the next-epoch oracle line."""

    kind = "ridge"

    def __init__(
        self,
        scaler: FeatureScaler,
        weights: np.ndarray,
        l2: float,
        seed: int,
    ) -> None:
        super().__init__(scaler, seed)
        self.weights = np.asarray(weights, dtype=np.float64)  # (F, 2)
        self.l2 = float(l2)
        if self.weights.shape != (len(self.scaler.mean), 2):
            raise ModelError("ridge weight shape mismatch")

    @classmethod
    def train(
        cls,
        features: np.ndarray,
        labels: np.ndarray,
        l2: float = 1e-3,
        seed: int = 0,
    ) -> "RidgeModel":
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.float64)
        if x.ndim != 2 or y.ndim != 2 or y.shape != (x.shape[0], 2):
            raise ModelError("ridge expects (n, F) features and (n, 2) labels")
        if x.shape[0] < 2:
            raise ModelError("need at least two training rows")
        scaler = FeatureScaler.fit(x)
        z = scaler.transform(x)
        n, n_feat = z.shape
        gram = z.T @ z + l2 * n * np.eye(n_feat)
        weights = np.linalg.solve(gram, z.T @ y)
        return cls(scaler, weights, l2, seed)

    def predict_rows(self, features: np.ndarray) -> np.ndarray:
        return self.scaler.transform(features) @ self.weights

    def _payload_params(self) -> Dict[str, object]:
        return {"l2": self.l2, "weights": self.weights.tolist()}

    @classmethod
    def _from_payload(cls, payload: Dict[str, object]) -> "RidgeModel":
        params = payload["params"]
        return cls(
            FeatureScaler.from_payload(payload["scaler"]),
            np.asarray(params["weights"], dtype=np.float64),
            float(params["l2"]),
            int(payload.get("seed", 0)),
        )


class OnlineRLSModel(SensitivityModel):
    """Recursive-least-squares commit model, updatable while serving.

    Regresses ``commits / y_scale = theta . psi`` with
    ``psi = [z, z * f]`` (z the scaled features, f the frequency the
    commits were realised at). The line for a feature vector falls out
    of the same theta::

        i0    = y_scale * (theta[:F] . z)
        slope = y_scale * (theta[F:] . z)

    Exponential forgetting keeps the fit tracking phase drift, and
    :data:`RLS_P_TRACE_CAP` bounds the covariance it inflates; each
    update is O(F^2) on a 2F-dim state - microseconds of work, done
    once per epoch after the decision is already out the door.
    """

    kind = "rls"

    def __init__(
        self,
        scaler: FeatureScaler,
        theta: np.ndarray,
        p_matrix: np.ndarray,
        forgetting: float,
        y_scale: float,
        seed: int,
    ) -> None:
        super().__init__(scaler, seed)
        self.theta = np.asarray(theta, dtype=np.float64)
        self.p_matrix = np.asarray(p_matrix, dtype=np.float64)
        self.forgetting = float(forgetting)
        self.y_scale = float(y_scale)
        n_feat = len(self.scaler.mean)
        if self.theta.shape != (2 * n_feat,):
            raise ModelError("RLS theta shape mismatch")
        if self.p_matrix.shape != (2 * n_feat, 2 * n_feat):
            raise ModelError("RLS covariance shape mismatch")
        if not 0.5 < self.forgetting <= 1.0:
            raise ModelError("forgetting factor must be in (0.5, 1.0]")
        if self.y_scale <= 0.0:
            raise ModelError("y_scale must be positive")

    @classmethod
    def train(
        cls,
        features: np.ndarray,
        next_f: np.ndarray,
        next_commits: np.ndarray,
        forgetting: float = 0.98,
        p0: float = 100.0,
        seed: int = 0,
        labels: Optional[np.ndarray] = None,
        anchor_freqs: Optional[Sequence[float]] = None,
    ) -> "OnlineRLSModel":
        """Pretrain by streaming the rows in their recorded order.

        The same update rule runs at serve time, so pretraining is
        literally a replay of deployment against the archived epochs.

        Commits-only replay cannot identify the slope: each archived
        phase was realised at one frequency, so ``[z, z*f]`` is
        confounded with ``z`` alone and the closed loop extrapolates
        badly once its own decisions leave the recorded frequencies.
        When ``labels`` (the oracle lines, available offline) and
        ``anchor_freqs`` are given, each row first contributes two
        synthetic samples - the label line evaluated at the anchor
        frequencies, typically the platform's f_min/f_max - pinning
        slope across the whole actionable range. Serving updates remain
        commits-only; the anchors are a pretraining prior.
        """
        x = np.asarray(features, dtype=np.float64)
        freqs = np.asarray(next_f, dtype=np.float64)
        commits = np.asarray(next_commits, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 2:
            raise ModelError("need at least two (n, F) training rows")
        if freqs.shape != (x.shape[0],) or commits.shape != (x.shape[0],):
            raise ModelError("next_f / next_commits must be (n,) vectors")
        lines = None
        if labels is not None:
            lines = np.asarray(labels, dtype=np.float64)
            if lines.shape != (x.shape[0], 2):
                raise ModelError("labels must be (n, 2) lines")
            if not anchor_freqs or len(anchor_freqs) < 1:
                raise ModelError("labels need anchor_freqs to evaluate at")
        scaler = FeatureScaler.fit(x)
        y_scale = max(1.0, float(np.max(np.abs(commits))))
        n_feat = x.shape[1]
        model = cls(
            scaler,
            np.zeros(2 * n_feat),
            p0 * np.eye(2 * n_feat),
            forgetting,
            y_scale,
            seed,
        )
        for i, (phi, f, c) in enumerate(zip(x, freqs, commits)):
            if lines is not None:
                i0, slope = lines[i]
                for fa in anchor_freqs:
                    model.update(phi, float(fa), max(0.0, i0 + slope * fa))
            model.update(phi, float(f), float(c))
        return model

    def _psi(self, phi: Sequence[float], f_ghz: float) -> np.ndarray:
        z = self.scaler.transform(np.asarray([phi], dtype=np.float64))[0]
        return np.concatenate([z, z * f_ghz])

    def update(self, phi: Sequence[float], f_ghz: float, commits: float) -> None:
        psi = self._psi(phi, f_ghz)
        y = float(commits) / self.y_scale
        lam = self.forgetting
        p_psi = self.p_matrix @ psi
        gain = p_psi / (lam + psi @ p_psi)
        self.theta = self.theta + gain * (y - self.theta @ psi)
        p = (self.p_matrix - np.outer(gain, p_psi)) / lam
        # Keep the covariance exactly symmetric so long update streams
        # cannot drift into asymmetry-induced divergence.
        p = 0.5 * (p + p.T)
        trace = float(p.trace())
        if trace > RLS_P_TRACE_CAP:
            p *= RLS_P_TRACE_CAP / trace
        self.p_matrix = p

    def predict_rows(self, features: np.ndarray) -> np.ndarray:
        z = self.scaler.transform(features)
        n_feat = z.shape[1]
        i0 = self.y_scale * (z @ self.theta[:n_feat])
        slope = self.y_scale * (z @ self.theta[n_feat:])
        return np.stack([i0, slope], axis=1)

    def _payload_params(self) -> Dict[str, object]:
        return {
            "forgetting": self.forgetting,
            "y_scale": self.y_scale,
            "theta": self.theta.tolist(),
            "p_matrix": self.p_matrix.tolist(),
        }

    @classmethod
    def _from_payload(cls, payload: Dict[str, object]) -> "OnlineRLSModel":
        params = payload["params"]
        return cls(
            FeatureScaler.from_payload(payload["scaler"]),
            np.asarray(params["theta"], dtype=np.float64),
            np.asarray(params["p_matrix"], dtype=np.float64),
            float(params["forgetting"]),
            float(params["y_scale"]),
            int(payload.get("seed", 0)),
        )


MODEL_KINDS: Dict[str, type] = {
    RidgeModel.kind: RidgeModel,
    OnlineRLSModel.kind: OnlineRLSModel,
}


class LearnedPredictor(Predictor):
    """Serve a trained :class:`SensitivityModel` as a DVFS predictor.

    Deployable-class design: consumes only the elapsed epoch's counters
    (via the shared :class:`FeatureExtractor`), never oracle truth. For
    online-capable models, each ``observe`` first closes the previous
    epoch's loop - the commits just realised at the frequency the
    controller chose are exactly one RLS sample - then predicts.
    """

    name = "LEARNED"

    def __init__(self, model: SensitivityModel, config: GpuConfig) -> None:
        self.model = model
        self.config = config
        self._extractor: Optional[FeatureExtractor] = None
        self._prev_phi: List[Optional[List[float]]] = [None] * config.n_domains
        self._last: List[Optional[LinearSensitivity]] = [None] * config.n_domains

    def observe(self, result: EpochResult, ctx: ObserveContext) -> None:
        if self._extractor is None:
            self._extractor = FeatureExtractor(
                ctx.config, ctx.f_lo_ghz, ctx.f_hi_ghz
            )
        per = self.config.cus_per_domain
        phis = self._extractor.observe(result)
        for d in range(self.config.n_domains):
            prev = self._prev_phi[d]
            if prev is not None:
                realized = sum(
                    result.cu_stats[cu].committed
                    for cu in range(d * per, (d + 1) * per)
                )
                self.model.update(
                    prev, float(result.frequencies_ghz[d]), float(realized)
                )
            self._prev_phi[d] = phis[d]
            self._last[d] = self.model.predict_line(phis[d])

    def predict_domains(self) -> List[Optional[LinearSensitivity]]:
        return list(self._last)


__all__ = [
    "MODEL_SCHEMA_VERSION",
    "MODEL_KINDS",
    "RLS_P_TRACE_CAP",
    "ModelError",
    "FeatureScaler",
    "SensitivityModel",
    "RidgeModel",
    "OnlineRLSModel",
    "LearnedPredictor",
]
