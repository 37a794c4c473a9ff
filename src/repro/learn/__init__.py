"""Learned predictors: telemetry -> dataset -> model -> registry -> serving.

The trained counterpart of the hand-built TABLE III designs. The loop::

    repro trace <w> --trace t.jsonl                  # archive epochs
    repro learn extract t.jsonl -o ds                # supervised dataset
    repro learn train ds --kind rls --name mine      # registry artifact
    repro learn eval mine <w>                        # vs baselines
    repro serve --model mine                         # answer live traffic

and ``LEARNED@<ref>`` is a design name everywhere designs go: sweeps,
traces, the decision service, ``repro replay``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.learn.dataset import (
        DATASET_SCHEMA_VERSION,
        Dataset,
        DatasetError,
        dataset_hash,
        extract_dataset,
        extract_rows,
        load_dataset,
        save_dataset,
    )
    from repro.learn.evaluate import (
        DEFAULT_BASELINES,
        DesignEval,
        EvalReport,
        compare_designs,
        evaluate_design,
        offline_metrics,
    )
    from repro.learn.features import (
        AUX_NAMES,
        FEATURE_NAMES,
        FEATURE_SCHEMA_VERSION,
        LABEL_NAMES,
        FeatureExtractor,
    )
    from repro.learn.models import (
        MODEL_KINDS,
        MODEL_SCHEMA_VERSION,
        FeatureScaler,
        LearnedPredictor,
        ModelError,
        OnlineRLSModel,
        RidgeModel,
        SensitivityModel,
    )
    from repro.learn.registry import (
        DEFAULT_MODEL_DIR,
        MODEL_DIR_ENV,
        REGISTRY_SCHEMA_VERSION,
        ModelRegistry,
        ModelResolutionError,
        artifact_id_of,
        default_model_dir,
        load_model,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "dataset": ("DATASET_SCHEMA_VERSION", "Dataset", "DatasetError", "dataset_hash",
                "extract_dataset", "extract_rows", "load_dataset", "save_dataset"),
    "evaluate": ("DEFAULT_BASELINES", "DesignEval", "EvalReport", "compare_designs",
                 "evaluate_design", "offline_metrics"),
    "features": ("AUX_NAMES", "FEATURE_NAMES", "FEATURE_SCHEMA_VERSION", "LABEL_NAMES",
                 "FeatureExtractor"),
    "models": ("MODEL_KINDS", "MODEL_SCHEMA_VERSION", "FeatureScaler", "LearnedPredictor",
               "ModelError", "OnlineRLSModel", "RidgeModel", "SensitivityModel"),
    "registry": ("DEFAULT_MODEL_DIR", "MODEL_DIR_ENV", "REGISTRY_SCHEMA_VERSION",
                 "ModelRegistry", "ModelResolutionError", "artifact_id_of",
                 "default_model_dir", "load_model"),
})

__all__ = [
    # features
    "AUX_NAMES",
    "FEATURE_NAMES",
    "FEATURE_SCHEMA_VERSION",
    "LABEL_NAMES",
    "FeatureExtractor",
    # dataset
    "DATASET_SCHEMA_VERSION",
    "Dataset",
    "DatasetError",
    "dataset_hash",
    "extract_dataset",
    "extract_rows",
    "load_dataset",
    "save_dataset",
    # models
    "MODEL_KINDS",
    "MODEL_SCHEMA_VERSION",
    "FeatureScaler",
    "LearnedPredictor",
    "ModelError",
    "OnlineRLSModel",
    "RidgeModel",
    "SensitivityModel",
    # registry
    "DEFAULT_MODEL_DIR",
    "MODEL_DIR_ENV",
    "REGISTRY_SCHEMA_VERSION",
    "ModelRegistry",
    "ModelResolutionError",
    "artifact_id_of",
    "default_model_dir",
    "load_model",
    # evaluation
    "DEFAULT_BASELINES",
    "DesignEval",
    "EvalReport",
    "compare_designs",
    "evaluate_design",
    "offline_metrics",
]
