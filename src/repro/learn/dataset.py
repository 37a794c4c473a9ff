"""Telemetry-to-dataset extraction: observation JSONL -> supervised rows.

A trace recorded with ``repro trace <w> --design <d> --trace FILE``
archives, per epoch, the complete predictor input (the
wire-form :class:`~repro.gpu.gpu.EpochResult`) plus the oracle's true
sensitivity lines. :func:`extract_dataset` replays those epochs through
the *serving* :class:`~repro.learn.features.FeatureExtractor` and emits
one supervised example per (epoch, domain):

* **features** - the serveable vector of epoch ``t``
  (:data:`~repro.learn.features.FEATURE_NAMES`),
* **labels** - the oracle-true sensitivity line of epoch ``t + 1``
  (what every predictor in the paper is trying to guess),
* **next_f / next_commits** - the frequency epoch ``t + 1`` actually ran
  at and the commits it realised there: one true point on the label
  line, which is all the online-RLS model gets to learn from in
  deployment,
* **aux** - analysis-only columns (elapsed-epoch truth, the recording
  design's PC-table deltas); stored, never trained on.

Splits are **deterministic**: each row hashes
``workload | config_hash | seed | epoch`` and lands in the eval split
when its bucket falls below ``eval_fraction``. Re-extracting the same
trace always reproduces the same split, and rows from the same workload
+ platform + seed land identically across machines.

Artifacts are a schema-versioned pair: ``<base>.npz`` (the arrays) +
``<base>.json`` (the sidecar: schema + feature names + provenance +
content hash). The **dataset hash** is computed over the array contents
and the schema - not the npz container bytes (zip embeds timestamps) -
so two extractions of the same trace hash identically and the hash can
serve as training provenance in the model registry.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.learn.features import (
    AUX_NAMES,
    FEATURE_NAMES,
    FEATURE_SCHEMA_VERSION,
    LABEL_NAMES,
    FeatureExtractor,
)
from repro.telemetry.schema import build_meta, check_meta, load_trace_jsonl

PathLike = Union[str, pathlib.Path]

#: Bump when dataset columns or the sidecar layout change meaning.
DATASET_SCHEMA_VERSION = 1

#: npz keys, in hash order. Order is part of the hash recipe.
_ARRAY_KEYS = (
    "features", "labels", "next_f", "next_commits", "aux",
    "eval_mask", "epoch", "domain",
)

_PC_DELTA_KEYS = ("pc_lookups", "pc_hits", "pc_updates", "pc_evictions")


class DatasetError(ValueError):
    """A trace or dataset artifact cannot be used."""


@dataclass
class Dataset:
    """Supervised examples extracted from one or more epoch traces."""

    features: np.ndarray      #: (n, F) float64, columns = FEATURE_NAMES
    labels: np.ndarray        #: (n, 2) float64: next-epoch (i0, slope)
    next_f: np.ndarray        #: (n,) float64: next epoch's chosen frequency
    next_commits: np.ndarray  #: (n,) float64: commits realised there
    aux: np.ndarray           #: (n, A) float64, columns = AUX_NAMES
    eval_mask: np.ndarray     #: (n,) bool: True = held-out eval row
    epoch: np.ndarray         #: (n,) int64
    domain: np.ndarray        #: (n,) int64
    #: Sidecar: schema, feature names, sources, provenance, hash.
    meta: Dict[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.features.shape[0])

    @property
    def n_train(self) -> int:
        return int((~self.eval_mask).sum())

    @property
    def n_eval(self) -> int:
        return int(self.eval_mask.sum())

    def rows(self, split: str) -> np.ndarray:
        """Boolean row mask for ``"train"``, ``"eval"`` or ``"all"``."""
        if split == "train":
            return ~self.eval_mask
        if split == "eval":
            return self.eval_mask
        if split == "all":
            return np.ones(len(self), dtype=bool)
        raise ValueError(f"unknown split {split!r} (train/eval/all)")

    def content_hash(self) -> str:
        return dataset_hash(self)

    def frequency_range(self) -> Tuple[float, float]:
        """(f_min, f_max) across all source platforms.

        Used as the anchor frequencies for label-anchored training;
        falls back to the observed ``next_f`` range when the sidecar
        predates the ``f_min``/``f_max`` source fields.
        """
        sources = self.meta.get("sources") or []
        lows = [s["f_min"] for s in sources if "f_min" in s]
        highs = [s["f_max"] for s in sources if "f_max" in s]
        if lows and highs:
            return float(min(lows)), float(max(highs))
        return float(self.next_f.min()), float(self.next_f.max())


def _split_bucket(workload: str, config_hash: str, seed: int, epoch: int) -> float:
    """Deterministic [0, 1) bucket for the train/eval split."""
    key = f"{workload}|{config_hash}|{seed}|{epoch}".encode("utf-8")
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:4], "big") / 2**32


def _array_digest(arr: np.ndarray) -> Dict[str, object]:
    a = np.ascontiguousarray(arr)
    return {
        "dtype": str(a.dtype),
        "shape": list(a.shape),
        "sha256": hashlib.sha256(a.tobytes()).hexdigest(),
    }


def dataset_hash(ds: "Dataset") -> str:
    """Content hash over the arrays + schema (not the npz container)."""
    payload = {
        "schema_version": DATASET_SCHEMA_VERSION,
        "feature_schema_version": FEATURE_SCHEMA_VERSION,
        "feature_names": list(FEATURE_NAMES),
        "aux_names": list(AUX_NAMES),
        "label_names": list(LABEL_NAMES),
        "arrays": {k: _array_digest(getattr(ds, k)) for k in _ARRAY_KEYS},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Extraction


def _trace_header(records: Sequence[Dict[str, object]], path: PathLike):
    for rec in records:
        if rec.get("type") == "run":
            meta = check_meta(rec)
            if "sim_config" not in meta:
                raise DatasetError(
                    f"{path}: trace lacks an embedded sim_config; record it "
                    f"with: repro trace <w> --trace FILE"
                )
            return meta
    raise DatasetError(f"{path}: no run header record")


def extract_rows(
    records: Sequence[Dict[str, object]],
    source: str = "<records>",
) -> Tuple[Dict[str, List], Dict[str, object]]:
    """Columns-of-lists for one trace, plus its source description.

    Split bucketing is *not* applied here; :func:`extract_dataset`
    owns the split so multi-trace extractions share one recipe.
    """
    from repro.telemetry.schema import sim_config_from_wire

    header = _trace_header(records, source)
    sim_config = sim_config_from_wire(header["sim_config"])
    gpu_cfg = sim_config.gpu

    observations = [r for r in records if r.get("type") == "observation"]
    observations.sort(key=lambda r: int(r["epoch"]))
    if len(observations) < 2:
        raise DatasetError(
            f"{source}: need at least two observation records to form "
            f"(features, next-epoch label) pairs, got {len(observations)}"
        )
    pc_deltas: Dict[int, Dict[str, float]] = {}
    for rec in records:
        if rec.get("type") == "epoch" and "pc_lookups" in rec:
            pc_deltas[int(rec["epoch"])] = {
                k: float(rec.get(k, 0)) for k in _PC_DELTA_KEYS
            }

    from repro.service.protocol import epoch_result_from_wire

    extractor = FeatureExtractor(
        gpu_cfg, sim_config.dvfs.f_min, sim_config.dvfs.f_max
    )
    per = gpu_cfg.cus_per_domain
    cols: Dict[str, List] = {k: [] for k in _ARRAY_KEYS if k != "eval_mask"}

    decoded = []
    for obs in observations:
        result = epoch_result_from_wire(obs["result"])
        truth = obs.get("truth")
        if truth is None:
            raise DatasetError(
                f"{source}: observation for epoch {obs['epoch']} has no "
                f"oracle truth lines; record the trace with oracle "
                f"sampling enabled (repro trace does this by default)"
            )
        decoded.append((int(obs["epoch"]), result, truth))

    for (epoch_idx, result, truth), nxt in zip(decoded, decoded[1:]):
        next_epoch, next_result, next_truth = nxt
        phis = extractor.observe(result)
        deltas = pc_deltas.get(epoch_idx, {})
        for d in range(gpu_cfg.n_domains):
            next_committed = sum(
                next_result.cu_stats[cu].committed
                for cu in range(d * per, (d + 1) * per)
            )
            cols["features"].append(phis[d])
            cols["labels"].append(
                [float(next_truth[d][0]), float(next_truth[d][1])]
            )
            cols["next_f"].append(float(next_result.frequencies_ghz[d]))
            cols["next_commits"].append(float(next_committed))
            cols["aux"].append(
                [float(truth[d][0]), float(truth[d][1])]
                + [deltas.get(k, 0.0) for k in _PC_DELTA_KEYS]
            )
            cols["epoch"].append(epoch_idx)
            cols["domain"].append(d)

    source_info = {
        "source": str(source),
        "workload": str(header.get("workload", "")),
        "design": str(header.get("design", "")),
        "config_hash": str(header.get("config_hash", "")),
        "seed": int(sim_config.seed),
        "rows": len(cols["epoch"]),
        "epochs": len(decoded),
        # The platform's frequency range: training anchors the label
        # lines here so the fitted slope is identified across the whole
        # actionable range, not just the frequencies the recording
        # design happened to choose.
        "f_min": float(sim_config.dvfs.f_min),
        "f_max": float(sim_config.dvfs.f_max),
    }
    return cols, source_info


def extract_dataset(
    trace_paths: Sequence[PathLike],
    eval_fraction: float = 0.25,
) -> Dataset:
    """Extract a supervised dataset from one or more observation traces."""
    if not trace_paths:
        raise DatasetError("need at least one trace file")
    if not 0.0 <= eval_fraction < 1.0:
        raise DatasetError("eval_fraction must be in [0, 1)")

    all_cols: Dict[str, List] = {k: [] for k in _ARRAY_KEYS if k != "eval_mask"}
    eval_mask: List[bool] = []
    sources: List[Dict[str, object]] = []
    for path in trace_paths:
        cols, info = extract_rows(load_trace_jsonl(path), source=path)
        for k, values in cols.items():
            all_cols[k].extend(values)
        for epoch_idx in cols["epoch"]:
            bucket = _split_bucket(
                str(info["workload"]), str(info["config_hash"]),
                int(info["seed"]), int(epoch_idx),
            )
            eval_mask.append(bucket < eval_fraction)
        info["source"] = pathlib.Path(path).name
        sources.append(info)

    ds = Dataset(
        features=np.asarray(all_cols["features"], dtype=np.float64),
        labels=np.asarray(all_cols["labels"], dtype=np.float64),
        next_f=np.asarray(all_cols["next_f"], dtype=np.float64),
        next_commits=np.asarray(all_cols["next_commits"], dtype=np.float64),
        aux=np.asarray(all_cols["aux"], dtype=np.float64),
        eval_mask=np.asarray(eval_mask, dtype=bool),
        epoch=np.asarray(all_cols["epoch"], dtype=np.int64),
        domain=np.asarray(all_cols["domain"], dtype=np.int64),
    )
    ds.meta = {
        "schema_version": DATASET_SCHEMA_VERSION,
        "feature_schema_version": FEATURE_SCHEMA_VERSION,
        "feature_names": list(FEATURE_NAMES),
        "aux_names": list(AUX_NAMES),
        "label_names": list(LABEL_NAMES),
        "eval_fraction": eval_fraction,
        "n_rows": len(ds),
        "n_train": ds.n_train,
        "n_eval": ds.n_eval,
        "sources": sources,
        "meta": build_meta(),
        "dataset_hash": dataset_hash(ds),
    }
    return ds


# ----------------------------------------------------------------------
# Persistence


def _base_path(path: PathLike) -> pathlib.Path:
    p = pathlib.Path(path)
    if p.suffix in (".npz", ".json"):
        p = p.with_suffix("")
    return p


def save_dataset(ds: Dataset, path: PathLike) -> Tuple[pathlib.Path, pathlib.Path]:
    """Write ``<base>.npz`` + ``<base>.json``; returns both paths."""
    base = _base_path(path)
    base.parent.mkdir(parents=True, exist_ok=True)
    npz_path = base.with_suffix(".npz")
    json_path = base.with_suffix(".json")
    np.savez(npz_path, **{k: getattr(ds, k) for k in _ARRAY_KEYS})
    meta = dict(ds.meta)
    meta.setdefault("dataset_hash", dataset_hash(ds))
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return npz_path, json_path


def load_dataset(path: PathLike) -> Dataset:
    """Load a dataset pair; validates schema + content hash."""
    base = _base_path(path)
    npz_path = base.with_suffix(".npz")
    json_path = base.with_suffix(".json")
    try:
        with open(json_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DatasetError(f"cannot read dataset sidecar {json_path}: {exc}")
    if meta.get("schema_version") != DATASET_SCHEMA_VERSION:
        raise DatasetError(
            f"{json_path}: dataset schema {meta.get('schema_version')!r} "
            f"unsupported (this build reads {DATASET_SCHEMA_VERSION})"
        )
    if meta.get("feature_names") != list(FEATURE_NAMES):
        raise DatasetError(
            f"{json_path}: feature columns {meta.get('feature_names')!r} do "
            f"not match this build's feature schema; re-extract the dataset"
        )
    try:
        with np.load(npz_path) as arrays:
            ds = Dataset(
                **{k: np.asarray(arrays[k]) for k in _ARRAY_KEYS},
                meta=meta,
            )
    except (OSError, KeyError, ValueError) as exc:
        raise DatasetError(f"cannot read dataset arrays {npz_path}: {exc}")
    recorded = meta.get("dataset_hash")
    actual = dataset_hash(ds)
    if recorded != actual:
        raise DatasetError(
            f"{npz_path}: content hash mismatch (sidecar says "
            f"{str(recorded)[:12]}..., arrays hash to {actual[:12]}...); "
            f"the pair is torn or tampered"
        )
    return ds


__all__ = [
    "DATASET_SCHEMA_VERSION",
    "Dataset",
    "DatasetError",
    "dataset_hash",
    "extract_dataset",
    "extract_rows",
    "save_dataset",
    "load_dataset",
]
