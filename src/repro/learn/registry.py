"""Versioned on-disk model registry: trained models as auditable artifacts.

Layout (default ``.repro_models/`` in the working directory;
``REPRO_MODEL_DIR`` overrides, with the same empty-means-unset rule as
the result cache's directory variable)::

    <root>/models/<artifact_id>.json    one immutable artifact per model
    <root>/refs/<name>.json             mutable name -> artifact_id
    <root>/refs/latest.json             updated on every save

An artifact is one JSON document: the model payload
(:meth:`~repro.learn.models.SensitivityModel.to_payload`) plus a
provenance block - ``meta`` (the producing package version), the
content hash of the training dataset, the dataset's source traces with
their ``config_hash`` platform identities, and the training
hyper-parameters. The **artifact id** is the SHA-256 of the canonical
JSON of everything except the id itself, computed with the same
canonical encoding the result cache keys on - content-addressed, so
retraining from the same dataset + seed reproduces the same id
bit-for-bit, and any edit to weights or provenance changes it.
Artifacts embed no timestamps for exactly this reason.

Model references accepted everywhere (``LEARNED@<ref>``, ``repro serve
--model``, ``repro learn eval``): a full artifact id, an unambiguous id
prefix (>= 8 hex chars), a ref name, or ``latest``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import Dict, List, Optional, Tuple, Union

from repro import __version__
from repro.learn.models import SensitivityModel

PathLike = Union[str, pathlib.Path]

#: Bump when the artifact document layout changes meaning.
REGISTRY_SCHEMA_VERSION = 1

#: Default registry directory name (created in the working directory).
DEFAULT_MODEL_DIR = ".repro_models"

#: Environment variable overriding the default registry directory.
MODEL_DIR_ENV = "REPRO_MODEL_DIR"

#: Shortest accepted artifact-id prefix.
MIN_ID_PREFIX = 8


class ModelResolutionError(ValueError):
    """A model reference cannot be resolved to a usable artifact.

    Subclasses ``ValueError`` so a decision-service open naming a bad
    model is rejected as a bad open, exactly like an unknown design.
    """


def default_model_dir() -> pathlib.Path:
    # `or`, not a default: REPRO_MODEL_DIR="" must mean "unset".
    return pathlib.Path(os.environ.get(MODEL_DIR_ENV) or DEFAULT_MODEL_DIR)


def artifact_id_of(document: Dict[str, object]) -> str:
    """Content hash of an artifact document (id/name fields excluded)."""
    payload = {
        k: v for k, v in document.items() if k not in ("artifact_id", "name")
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _atomic_write_json(path: pathlib.Path, document: Dict[str, object]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class ModelRegistry:
    """Content-addressed store of trained sensitivity models."""

    def __init__(self, root: Optional[PathLike] = None) -> None:
        self.root = pathlib.Path(root) if root is not None else default_model_dir()

    @property
    def models_dir(self) -> pathlib.Path:
        return self.root / "models"

    @property
    def refs_dir(self) -> pathlib.Path:
        return self.root / "refs"

    # -- write ---------------------------------------------------------
    def save(
        self,
        model: SensitivityModel,
        provenance: Dict[str, object],
        name: Optional[str] = None,
    ) -> str:
        """Store a trained model; returns its content-hash artifact id.

        ``provenance`` should carry ``dataset_hash``, the training
        hyper-parameters, and the dataset's source descriptions; the
        registry adds its own ``meta`` block, the producing package
        version only: the trace schema version is not part of a model,
        so a trace-format bump leaves artifact ids alone. The ``latest``
        ref (plus ``name``, if given) is pointed at the new artifact.
        """
        document: Dict[str, object] = {
            "registry_schema_version": REGISTRY_SCHEMA_VERSION,
            "model": model.to_payload(),
            "provenance": {"meta": {"repro_version": __version__}, **provenance},
        }
        artifact_id = artifact_id_of(document)
        document["artifact_id"] = artifact_id
        if name is not None:
            self._check_ref_name(name)
            document["name"] = name
        _atomic_write_json(self.models_dir / f"{artifact_id}.json", document)
        self.set_ref("latest", artifact_id)
        if name is not None:
            self.set_ref(name, artifact_id)
        return artifact_id

    def set_ref(self, name: str, artifact_id: str) -> None:
        self._check_ref_name(name)
        if not (self.models_dir / f"{artifact_id}.json").exists():
            raise ModelResolutionError(
                f"cannot point ref {name!r} at unknown artifact {artifact_id!r}"
            )
        _atomic_write_json(
            self.refs_dir / f"{name}.json", {"artifact_id": artifact_id}
        )

    @staticmethod
    def _check_ref_name(name: str) -> None:
        ok = name and all(c.isalnum() or c in "._-" for c in name)
        if not ok or name.startswith("."):
            raise ModelResolutionError(
                f"bad ref name {name!r}: use letters, digits, '.', '_', '-'"
            )

    # -- read ----------------------------------------------------------
    def resolve(self, ref: str) -> str:
        """Resolve a ref name / id / id prefix to a full artifact id.

        A reference may arrive from a decision-service peer, so it must
        pass the ref-name rule before it names any path: ``../x`` never
        reaches outside the registry.
        """
        if not ref:
            raise ModelResolutionError("empty model reference")
        self._check_ref_name(ref)
        ref_path = self.refs_dir / f"{ref}.json"
        if ref_path.exists():
            try:
                with open(ref_path, "r", encoding="utf-8") as fh:
                    target = json.load(fh).get("artifact_id")
            except (OSError, json.JSONDecodeError) as exc:
                raise ModelResolutionError(f"unreadable ref {ref!r}: {exc}")
            if not isinstance(target, str):
                raise ModelResolutionError(f"ref {ref!r} has no artifact_id")
            return target
        if (self.models_dir / f"{ref}.json").exists():
            return ref
        if len(ref) >= MIN_ID_PREFIX and all(c in "0123456789abcdef" for c in ref):
            matches = sorted(
                p.stem for p in self.models_dir.glob(f"{ref}*.json")
            )
            if len(matches) == 1:
                return matches[0]
            if len(matches) > 1:
                raise ModelResolutionError(
                    f"ambiguous artifact prefix {ref!r}: "
                    + ", ".join(m[:12] for m in matches)
                )
        known = ", ".join(sorted(self.list_refs())) or "<none>"
        raise ModelResolutionError(
            f"unknown model reference {ref!r} in registry {self.root} "
            f"(refs: {known})"
        )

    def load_document(self, ref: str) -> Dict[str, object]:
        """The validated artifact document for a reference."""
        artifact_id = self.resolve(ref)
        path = self.models_dir / f"{artifact_id}.json"
        try:
            with open(path, "r", encoding="utf-8") as fh:
                document = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ModelResolutionError(f"unreadable artifact {path}: {exc}")
        self.validate_document(document, expect_id=artifact_id)
        return document

    def load(self, ref: str) -> Tuple[SensitivityModel, Dict[str, object]]:
        """Reconstruct the model for a reference, plus its document."""
        document = self.load_document(ref)
        model = SensitivityModel.from_payload(document["model"])
        return model, document

    @staticmethod
    def validate_document(
        document: Dict[str, object], expect_id: Optional[str] = None
    ) -> None:
        if document.get("registry_schema_version") != REGISTRY_SCHEMA_VERSION:
            raise ModelResolutionError(
                f"artifact schema "
                f"{document.get('registry_schema_version')!r} unsupported "
                f"(this build reads {REGISTRY_SCHEMA_VERSION})"
            )
        for field in ("model", "provenance", "artifact_id"):
            if field not in document:
                raise ModelResolutionError(f"artifact lacks {field!r}")
        actual = artifact_id_of(document)
        recorded = document["artifact_id"]
        if recorded != actual:
            raise ModelResolutionError(
                f"artifact content hash mismatch: document says "
                f"{str(recorded)[:12]}..., contents hash to {actual[:12]}..."
            )
        if expect_id is not None and recorded != expect_id:
            raise ModelResolutionError(
                f"artifact id {str(recorded)[:12]}... does not match its "
                f"file name {expect_id[:12]}..."
            )

    # -- enumeration ---------------------------------------------------
    def list_refs(self) -> Dict[str, str]:
        refs: Dict[str, str] = {}
        if not self.refs_dir.is_dir():
            return refs
        for path in sorted(self.refs_dir.glob("*.json")):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    target = json.load(fh).get("artifact_id")
            except (OSError, json.JSONDecodeError):
                continue
            if isinstance(target, str):
                refs[path.stem] = target
        return refs

    def list_artifacts(self) -> List[Dict[str, object]]:
        """Summaries of every stored artifact, sorted by id."""
        out: List[Dict[str, object]] = []
        if not self.models_dir.is_dir():
            return out
        refs = self.list_refs()
        for path in sorted(self.models_dir.glob("*.json")):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    document = json.load(fh)
            except (OSError, json.JSONDecodeError):
                continue
            model = document.get("model", {})
            provenance = document.get("provenance", {})
            out.append({
                "artifact_id": str(document.get("artifact_id", path.stem)),
                "kind": model.get("kind"),
                "seed": model.get("seed"),
                "dataset_hash": provenance.get("dataset_hash"),
                "repro_version": provenance.get("meta", {}).get("repro_version"),
                "refs": sorted(
                    name for name, target in refs.items()
                    if target == document.get("artifact_id")
                ),
            })
        return out


def load_model(ref: str, root: Optional[PathLike] = None) -> SensitivityModel:
    """One-call convenience: resolve + validate + reconstruct."""
    model, _ = ModelRegistry(root).load(ref)
    return model


__all__ = [
    "REGISTRY_SCHEMA_VERSION",
    "DEFAULT_MODEL_DIR",
    "MODEL_DIR_ENV",
    "ModelRegistry",
    "ModelResolutionError",
    "artifact_id_of",
    "default_model_dir",
    "load_model",
]
