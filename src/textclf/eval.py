"""Classification metrics, diagnostic curves, the cross-validation
harness with a stratified hold-out, learning curves, and random
hyperparameter search.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .base import check_random_state, derive_seed
from .corpus import LabeledDataset, stratified_holdout, stratified_kfold

__all__ = [
    "confusion_matrix",
    "macro_prf",
    "mcc",
    "roc_auc",
    "calibration_curve",
    "RocCurve",
    "CalibrationCurve",
    "LearningCurve",
    "EvalReport",
    "cross_validate",
    "cross_validate_ensemble",
    "learning_curve",
    "random_search",
]


def confusion_matrix(gold: Sequence, pred: Sequence, classes: Sequence) -> np.ndarray:
    """Counts with entry (i, j) = gold class i predicted as class j."""
    if len(gold) != len(pred):
        raise ValueError(f"gold has {len(gold)} labels, pred has {len(pred)}")
    index = {c: i for i, c in enumerate(classes)}
    matrix = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for g, p in zip(gold, pred):
        if g not in index:
            raise ValueError(f"unknown gold label {g!r}")
        if p not in index:
            raise ValueError(f"unknown predicted label {p!r}")
        matrix[index[g], index[p]] += 1
    return matrix


def macro_prf(matrix: np.ndarray):
    """Per-class precision/recall/F1 and their unweighted means.

    0/0 ratios are defined as 0 so absent classes contribute zeros.
    Returns (macro_p, macro_r, macro_f1, per_class_triples).
    """
    matrix = np.asarray(matrix)
    if matrix.size == 0:
        raise ValueError("empty confusion matrix")
    per_class = []
    for i in range(matrix.shape[0]):
        tp = float(matrix[i, i])
        fp = float(matrix[:, i].sum() - tp)
        fn = float(matrix[i, :].sum() - tp)
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class.append((precision, recall, f1))
    arr = np.array(per_class)
    return float(arr[:, 0].mean()), float(arr[:, 1].mean()), float(arr[:, 2].mean()), per_class


def mcc(matrix: np.ndarray) -> float:
    """Matthews correlation coefficient of a 2x2 confusion matrix.

    Convention: class 0 is the negative class, class 1 the positive, so
    tp = matrix[1, 1] and tn = matrix[0, 0].  A zero denominator gives 0.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != (2, 2):
        raise ValueError(f"mcc needs a 2x2 matrix, got shape {matrix.shape}")
    tn, fp = matrix[0, 0], matrix[0, 1]
    fn, tp = matrix[1, 0], matrix[1, 1]
    denom = np.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    if denom == 0:
        return 0.0
    return float((tp * tn - fp * fn) / denom)


@dataclass
class RocCurve:
    points: list  # (fpr, tpr), monotone in fpr
    auc: float

    def to_rows(self):
        return [(x, y) for x, y in self.points]


@dataclass
class CalibrationCurve:
    points: list  # (mean predicted, fraction positive, count)

    def to_rows(self):
        return [(x, y, n) for x, y, n in self.points]


@dataclass
class LearningCurve:
    fractions: list
    train_scores: list
    valid_scores: list

    def to_rows(self):
        return list(zip(self.fractions, self.train_scores, self.valid_scores))


def roc_auc(scores: Sequence[float], labels: Sequence[int]) -> tuple[RocCurve, float]:
    """Threshold-sweep ROC curve and its trapezoidal area.

    Equal scores are grouped at one threshold, so ties contribute half
    credit: the area equals the probability that a random positive
    outscores a random negative, ties counted as 1/2.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels differ in length")
    if np.isnan(scores).any():
        raise ValueError("scores must not be NaN")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: both label values must be present")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    points = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < len(sorted_scores):
        j = i
        while j < len(sorted_scores) and sorted_scores[j] == sorted_scores[i]:
            tp += int(sorted_labels[j] == 1)
            fp += int(sorted_labels[j] == 0)
            j += 1
        points.append((fp / n_neg, tp / n_pos))
        i = j
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points[:-1], points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    curve = RocCurve(points=points, auc=float(area))
    return curve, float(area)


def calibration_curve(probabilities: Sequence[float], labels: Sequence[int],
                      bins: int = 10) -> CalibrationCurve:
    """Equal-width reliability bins over [0, 1]; empty bins are omitted.

    Each point is (mean predicted probability, fraction of positives,
    count) for one non-empty bin.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if not np.all((probs >= 0) & (probs <= 1)):  # NaN fails both comparisons
        raise ValueError("probabilities must lie in [0, 1]")
    edges = np.linspace(0.0, 1.0, bins + 1)
    assignment = np.clip(np.digitize(probs, edges[1:-1], right=False), 0, bins - 1)
    points = []
    for b in range(bins):
        mask = assignment == b
        if not mask.any():
            continue
        points.append((
            float(probs[mask].mean()),
            float(labels[mask].mean()),
            int(mask.sum()),
        ))
    return CalibrationCurve(points=points)


@dataclass
class EvalReport:
    """Fold metrics, hold-out metrics, curves, and the run configuration."""

    classes: list
    config: dict = field(default_factory=dict)
    seeds: dict = field(default_factory=dict)
    fold_metrics: dict = field(default_factory=dict)      # name -> list per fold
    fold_summary: dict = field(default_factory=dict)      # name -> {mean, std}
    holdout_metrics: dict = field(default_factory=dict)   # name -> float
    per_class: list = field(default_factory=list)         # (precision, recall, f1)
    confusion: list = field(default_factory=list)
    roc: Optional[dict] = None          # {"points": [...], "auc": float} or per class
    calibration: Optional[list] = None  # rows (x, y, count)
    learning: Optional[dict] = None     # {"fractions": , "train": , "valid": }
    fold_assignment: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        return cls(**json.loads(text))

    def save(self, path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "EvalReport":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


_SCALARS = ("macro_precision", "macro_recall", "macro_f1", "mcc", "auc")


def _distributions(model, docs, classes) -> np.ndarray:
    """Class distributions of ``docs`` from one ``predict_proba`` call, with
    the columns reordered from ``model.classes_`` to ``classes``."""
    own = list(model.classes_)
    missing = [c for c in classes if c not in own]
    if missing:
        raise ValueError(f"model has no probability column for classes {missing}")
    return np.asarray(model.predict_proba(docs))[:, [own.index(c) for c in classes]]


def _argmax(probs, classes) -> list:
    return [classes[i] for i in np.argmax(probs, axis=1)]


def _metrics(gold, pred, classes) -> dict:
    """Confusion matrix, per-class and macro precision/recall/F1 and, for
    two classes, MCC."""
    matrix = confusion_matrix(gold, pred, classes)
    p, r, f1, per_class = macro_prf(matrix)
    out = {"matrix": matrix, "per_class": per_class,
           "macro_precision": p, "macro_recall": r, "macro_f1": f1}
    if len(classes) == 2:
        out["mcc"] = mcc(matrix)
    return out


def _f1(gold, probs, classes) -> float:
    """Macro-F1 of the argmax labels of ``probs``, columns in ``classes`` order."""
    return _metrics(gold, _argmax(probs, classes), classes)["macro_f1"]


def _rocs(probs, gold, classes) -> dict:
    """Class -> (ROC curve of its column against the rest, 0/1 gold), for
    each class with both members and non-members in ``gold``; for two
    classes only the positive class ``classes[1]``."""
    rocs = {}
    for ci in [1] if len(classes) == 2 else range(len(classes)):
        binary = np.array([1 if label == classes[ci] else 0 for label in gold])
        if len(set(binary.tolist())) == 2:
            rocs[classes[ci]] = roc_auc(probs[:, ci], binary)[0], binary
    return rocs


def _report(gold, pred, classes, probs=None, **fields) -> EvalReport:
    """The EvalReport of ``pred`` against hold-out ``gold`` plus ``fields``.
    Given ``probs``, columns in ``classes`` order, it adds the ROC curves
    and, for two classes, the AUC and the calibration."""
    scores = _metrics(gold, pred, classes)
    report = EvalReport(
        classes=list(classes),
        holdout_metrics={name: float(scores[name]) for name in _SCALARS if name in scores},
        per_class=[list(t) for t in scores["per_class"]],
        confusion=scores["matrix"].tolist(),
        **fields,
    )
    rocs = {} if probs is None else _rocs(probs, gold, classes)
    curves = {cls: {"points": [list(p) for p in curve.points], "auc": curve.auc}
              for cls, (curve, _) in rocs.items()}
    if len(classes) == 2 and rocs:
        curve, binary = rocs[classes[1]]
        report.holdout_metrics["auc"] = curve.auc
        report.roc = curves[classes[1]]
        report.calibration = [list(row) for row in calibration_curve(probs[:, 1], binary).to_rows()]
    elif rocs:
        report.roc = {"per_class": curves,
                      "macro_auc": float(np.mean([roc["auc"] for roc in curves.values()]))}
    return report


def _docs_and_labels(ds: LabeledDataset, indices=None) -> tuple[list, list]:
    docs = ds.documents if indices is None else [ds.documents[i] for i in indices]
    return [d.tokens for d in docs], [d.label for d in docs]


def _holdout_and_folds(dataset: LabeledDataset, k: int, seed: int, holdout_fraction: float):
    """The stratified hold-out and k stratified folds of the rest: training and
    hold-out (docs, labels), the fold assignment, and per fold (fit docs, fit
    labels, validation docs, validation labels)."""
    train_idx, test_idx = stratified_holdout(dataset, holdout_fraction, seed)
    train_ds = dataset.subset(train_idx)
    assignment = stratified_kfold(train_ds, k, derive_seed(seed, "cv"))
    folds = [(*_docs_and_labels(train_ds, assignment.complement_of(fold)),
              *_docs_and_labels(train_ds, assignment.indices_of(fold)))
             for fold in range(k)]
    return _docs_and_labels(train_ds), _docs_and_labels(dataset, test_idx), assignment, folds


def _fold_fields(fold_metrics: dict, assignment) -> dict:
    """The per-fold values, their mean and std, and the fold assignment."""
    return {
        "fold_metrics": {name: [float(v) for v in values]
                         for name, values in fold_metrics.items()},
        "fold_summary": {name: {"mean": float(np.mean(values)), "std": float(np.std(values))}
                         for name, values in fold_metrics.items()},
        "fold_assignment": [int(f) for f in assignment.folds],
    }


def cross_validate(trainer: Callable, dataset: LabeledDataset, k: int = 5,
                   seed: int = 0, holdout_fraction: float = 0.2,
                   config_echo: Optional[dict] = None) -> EvalReport:
    """Stratified hold-out plus k-fold cross-validation on the remainder.

    ``trainer`` is a zero-argument factory returning a fresh estimator
    with fit/predict_proba/classes_ over token documents.  Twenty percent
    (by default) is held out with per-class proportions preserved; the
    remaining training portion is cross-validated so every document is
    validated exactly once; the final model is refit on the whole training
    portion and scored on the hold-out.
    """
    classes = dataset.classes
    train, (test_docs, gold), assignment, folds = _holdout_and_folds(
        dataset, k, seed, holdout_fraction)

    fold_metrics: dict[str, list] = {}
    for fit_docs, fit_labels, val_docs, val_labels in folds:
        model = trainer()
        model.fit(fit_docs, fit_labels)
        probs = _distributions(model, val_docs, classes)
        scores = _metrics(val_labels, _argmax(probs, classes), classes)
        if len(classes) == 2:
            for curve, _ in _rocs(probs, val_labels, classes).values():
                scores["auc"] = curve.auc
        for name in _SCALARS:
            if name in scores:
                fold_metrics.setdefault(name, []).append(scores[name])

    final = trainer()
    final.fit(*train)
    probs = _distributions(final, test_docs, classes)
    return _report(gold, _argmax(probs, classes), classes, probs,
                   config=config_echo or {},
                   seeds={"seed": seed, "cv_seed": derive_seed(seed, "cv")},
                   **_fold_fields(fold_metrics, assignment))


def cross_validate_ensemble(trainers: dict, dataset: LabeledDataset, k: int = 5,
                            seed: int = 0, top: int = 3,
                            holdout_fraction: float = 0.2) -> EvalReport:
    """Average the predicted distributions of the best models.

    Within each fold, every named factory is fitted on the fold's
    training documents and the ``top`` models by that fold's validation
    macro-F1 are averaged to produce the fold's ensemble score.  For the
    hold-out, membership is decided by mean fold macro-F1 (a fold no
    longer exists at that point), the members are refit on the whole
    training portion, and their averaged distribution is scored.
    """
    classes = dataset.classes
    train, (test_docs, gold), assignment, folds = _holdout_and_folds(
        dataset, k, seed, holdout_fraction)

    fold_scores: dict[str, list] = {name: [] for name in trainers}
    ensemble_fold_f1 = []
    fold_members = []
    for fit_docs, fit_labels, val_docs, val_labels in folds:
        probs = {}
        for name, trainer in trainers.items():
            model = trainer()
            model.fit(fit_docs, fit_labels)
            probs[name] = _distributions(model, val_docs, classes)
            fold_scores[name].append(_f1(val_labels, probs[name], classes))
        ranked = sorted(trainers, key=lambda n: (-fold_scores[n][-1], n))[:top]
        fold_members.append(ranked)
        ensemble = np.mean([probs[name] for name in ranked], axis=0)
        ensemble_fold_f1.append(_f1(val_labels, ensemble, classes))

    mean_f1 = {name: float(np.mean(scores)) for name, scores in fold_scores.items()}
    final_members = sorted(trainers, key=lambda n: (-mean_f1[n], n))[:top]
    held_out = []
    for name in final_members:
        model = trainers[name]()
        model.fit(*train)
        held_out.append(_distributions(model, test_docs, classes))
    return _report(gold, _argmax(np.mean(held_out, axis=0), classes), classes,
                   config={"ensemble_members": final_members, "fold_members": fold_members,
                           "member_mean_f1": mean_f1},
                   seeds={"seed": seed},
                   **_fold_fields({"ensemble_macro_f1": ensemble_fold_f1}, assignment))


def learning_curve(trainer: Callable, dataset: LabeledDataset,
                   fractions: Sequence[float], seed: int = 0,
                   holdout_fraction: float = 0.2) -> LearningCurve:
    """Train and validation macro-F1 over nested stratified training prefixes."""
    fractions = list(fractions)
    if any(not 0.0 < f <= 1.0 for f in fractions):
        raise ValueError("fractions must lie in (0, 1]")
    if sorted(fractions) != fractions:
        raise ValueError("fractions must be ascending")
    classes = dataset.classes
    train_idx, valid_idx = stratified_holdout(dataset, holdout_fraction, seed)
    train_ds = dataset.subset(train_idx)
    valid_docs, valid_labels = _docs_and_labels(dataset, valid_idx)

    rng = check_random_state(derive_seed(seed, "curve"))
    by_class = {c: [] for c in classes}
    for i, doc in enumerate(train_ds.documents):
        by_class[doc.label].append(i)
    for members in by_class.values():
        rng.shuffle(members)

    train_scores, valid_scores = [], []
    for fraction in fractions:
        subset: list[int] = []
        for cls in classes:
            members = by_class[cls]
            n = int(round(fraction * len(members)))
            if n < 1:
                raise ValueError(
                    f"fraction {fraction} leaves no documents for class {cls!r}"
                )
            subset.extend(members[:n])
        subset.sort()
        docs, labels = _docs_and_labels(train_ds, subset)
        model = trainer()
        model.fit(docs, labels)
        train_scores.append(_f1(labels, _distributions(model, docs, classes), classes))
        valid_scores.append(_f1(valid_labels, _distributions(model, valid_docs, classes), classes))
    return LearningCurve(fractions=fractions, train_scores=train_scores,
                         valid_scores=valid_scores)


def random_search(space: dict, trials: int, objective: Callable[[dict], float],
                  seed: int = 0) -> tuple[dict, list]:
    """Uniformly sample configurations and keep the best by objective.

    Ranges are lists (uniform choice) or (low, high) tuples (uniform
    continuous, or integer uniform when both ends are ints).  Returns
    (best_config, trial_log) with the full log of (config, score) pairs.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not space or any(
        (isinstance(r, (list, tuple)) and len(r) == 0) for r in space.values()
    ):
        raise ValueError("search space must declare non-empty ranges")
    rng = check_random_state(seed)
    log = []
    for _ in range(trials):
        config = {}
        for name in sorted(space):
            rng_range = space[name]
            if isinstance(rng_range, list):
                config[name] = rng_range[int(rng.integers(len(rng_range)))]
            elif isinstance(rng_range, tuple) and len(rng_range) == 2:
                low, high = rng_range
                if isinstance(low, int) and isinstance(high, int):
                    config[name] = int(rng.integers(low, high + 1))
                else:
                    config[name] = float(rng.uniform(low, high))
            else:
                raise ValueError(f"range for {name!r} must be a list or a 2-tuple")
        score = float(objective(config))
        log.append((config, score))
    best = max(range(len(log)), key=lambda i: log[i][1])
    return log[best][0], log
