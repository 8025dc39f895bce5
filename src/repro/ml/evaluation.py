"""Model evaluation (§3: "the framework should have a set of tools to test the
discovered knowledge with real data and produce a result for the accuracy of
the knowledge").

Provides hold-out evaluation, stratified k-fold cross-validation, confusion
matrices, per-class precision/recall/F1, Cohen's kappa, and a WEKA-style text
report (the textual summary the Classifier Web Service returns alongside the
tree).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.data.dataset import Dataset
from repro.errors import DataError

if TYPE_CHECKING:  # pragma: no cover
    from repro.ml.base import Classifier


@dataclass
class EvaluationResult:
    """Aggregated outcome of evaluating a classifier on labelled data."""

    class_labels: tuple[str, ...]
    confusion: np.ndarray = field(default=None)  # type: ignore[assignment]
    total: float = 0.0
    correct: float = 0.0

    def __post_init__(self) -> None:
        k = len(self.class_labels)
        if self.confusion is None:
            self.confusion = np.zeros((k, k))

    # -- accumulation --------------------------------------------------------
    def record(self, actual: int, predicted: int, weight: float = 1.0
               ) -> None:
        """Tally one (actual, predicted) pair."""
        self.confusion[actual, predicted] += weight
        self.total += weight
        if actual == predicted:
            self.correct += weight

    def merge(self, other: "EvaluationResult") -> None:
        """Fold another result (e.g. one CV fold) into this one."""
        if self.class_labels != other.class_labels:
            raise DataError("cannot merge evaluations over different classes")
        self.confusion += other.confusion
        self.total += other.total
        self.correct += other.correct

    # -- headline metrics --------------------------------------------------------
    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    @property
    def error_rate(self) -> float:
        return 1.0 - self.accuracy

    @property
    def kappa(self) -> float:
        """Cohen's kappa against the chance agreement of the marginals."""
        if self.total == 0:
            return 0.0
        row = self.confusion.sum(axis=1)
        col = self.confusion.sum(axis=0)
        expected = float((row * col).sum()) / (self.total ** 2)
        observed = self.correct / self.total
        if math.isclose(expected, 1.0):
            return 0.0
        return (observed - expected) / (1.0 - expected)

    # -- per-class metrics -----------------------------------------------------
    def precision(self, cls: int) -> float:
        """Per-class precision."""
        denom = self.confusion[:, cls].sum()
        return float(self.confusion[cls, cls] / denom) if denom else 0.0

    def recall(self, cls: int) -> float:
        """Per-class recall."""
        denom = self.confusion[cls, :].sum()
        return float(self.confusion[cls, cls] / denom) if denom else 0.0

    def f1(self, cls: int) -> float:
        """Per-class F1 score."""
        p, r = self.precision(cls), self.recall(cls)
        return 2 * p * r / (p + r) if (p + r) else 0.0

    # -- reporting -----------------------------------------------------------
    def summary(self) -> str:
        """WEKA-style evaluation summary."""
        lines = [
            "=== Evaluation summary ===",
            f"Correctly Classified Instances   {self.correct:10.0f}   "
            f"{100 * self.accuracy:7.3f} %",
            f"Incorrectly Classified Instances {self.total - self.correct:10.0f}   "
            f"{100 * self.error_rate:7.3f} %",
            f"Kappa statistic                  {self.kappa:10.4f}",
            f"Total Number of Instances        {self.total:10.0f}",
        ]
        return "\n".join(lines)

    def confusion_text(self) -> str:
        """Confusion matrix with class letters, WEKA layout."""
        k = len(self.class_labels)
        letters = [chr(ord("a") + i) for i in range(k)]
        width = max(6, int(self.confusion.max()) // 1 + 6)
        lines = ["=== Confusion Matrix ===", ""]
        lines.append("  ".join(f"{letter:>{width}}" for letter in letters)
                     + "   <-- classified as")
        for i in range(k):
            row = "  ".join(f"{self.confusion[i, j]:>{width}.0f}"
                            for j in range(k))
            lines.append(f"{row}   | {letters[i]} = {self.class_labels[i]}")
        return "\n".join(lines)

    def detailed_text(self) -> str:
        """Per-class precision / recall / F1 table."""
        lines = ["=== Detailed Accuracy By Class ===", "",
                 f"{'Class':<24}{'Precision':>10}{'Recall':>10}{'F1':>10}"]
        for i, label in enumerate(self.class_labels):
            lines.append(f"{label:<24}{self.precision(i):>10.3f}"
                         f"{self.recall(i):>10.3f}{self.f1(i):>10.3f}")
        return "\n".join(lines)

    def full_report(self) -> str:
        """Summary + per-class table + confusion matrix."""
        return "\n\n".join([self.summary(), self.detailed_text(),
                            self.confusion_text()])


def evaluate(classifier: "Classifier", test: Dataset) -> EvaluationResult:
    """Evaluate a *fitted* classifier on *test* (rows with missing class are
    skipped, mirroring WEKA).

    Scoring runs through :meth:`Classifier.distribution_many`, so models
    with a vectorised kernel evaluate the whole test set in one matrix
    pass; the confusion matrix is accumulated with one weighted
    scatter-add instead of a per-row tally.
    """
    labels = classifier.header.class_attribute.values
    result = EvaluationResult(labels)
    if test.num_instances == 0:
        return result
    y = test.class_values()
    keep = np.where(~np.isnan(y))[0]
    if not keep.size:
        return result
    dists = classifier.distribution_many(test, keep)
    predicted = np.argmax(dists, axis=1)
    actual = y[keep].astype(int)
    weights = test.weights()[keep]
    np.add.at(result.confusion, (actual, predicted), weights)
    result.total += float(weights.sum())
    result.correct += float(weights[actual == predicted].sum())
    return result


def train_test_evaluate(classifier: "Classifier", dataset: Dataset,
                        train_fraction: float = 0.66,
                        seed: int = 1) -> EvaluationResult:
    """Split, train, evaluate (the paper's step-5 'verified through the use
    of a test set')."""
    train, test = dataset.split(train_fraction, seed)
    classifier.fit(train)
    return evaluate(classifier, test)


def roc_points(classifier: "Classifier", test: Dataset,
               positive_class: int = 1
               ) -> list[tuple[float, float, float]]:
    """ROC curve of a fitted classifier on *test*.

    Returns ``(fpr, tpr, threshold)`` triples sorted by threshold
    descending, starting at (0, 0) and ending at (1, 1).  *positive_class*
    is the class index scored by :meth:`Classifier.distribution`.
    """
    scored: list[tuple[float, bool]] = []
    for inst in test:
        if inst.class_is_missing(test):
            continue
        score = float(classifier.distribution(inst)[positive_class])
        scored.append((score, int(inst.class_value(test))
                       == positive_class))
    if not scored:
        raise DataError("no labelled instances to build a ROC curve")
    n_pos = sum(1 for _, pos in scored if pos)
    n_neg = len(scored) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC needs both classes present in the test set")
    scored.sort(key=lambda t: -t[0])
    points = [(0.0, 0.0, math.inf)]
    tp = fp = 0
    i = 0
    while i < len(scored):
        threshold = scored[i][0]
        # consume every instance tied at this threshold together
        while i < len(scored) and scored[i][0] == threshold:
            if scored[i][1]:
                tp += 1
            else:
                fp += 1
            i += 1
        points.append((fp / n_neg, tp / n_pos, threshold))
    return points


def auc(classifier: "Classifier", test: Dataset,
        positive_class: int = 1) -> float:
    """Area under the ROC curve (trapezoidal rule over
    :func:`roc_points`)."""
    points = roc_points(classifier, test, positive_class)
    area = 0.0
    for (x0, y0, _), (x1, y1, _) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def stratified_folds(dataset: Dataset, k: int, seed: int = 1
                     ) -> list[list[int]]:
    """Index folds with per-class round-robin assignment (stratified)."""
    if k < 2:
        raise DataError("need at least 2 folds")
    if k > dataset.num_instances:
        raise DataError(
            f"cannot make {k} folds from {dataset.num_instances} instances")
    rng = np.random.default_rng(seed)
    order = list(rng.permutation(dataset.num_instances))
    # group by class, then deal out round-robin so folds are stratified
    by_class: dict[int, list[int]] = {}
    no_class: list[int] = []
    for idx in order:
        inst = dataset[int(idx)]
        if inst.class_is_missing(dataset):
            no_class.append(int(idx))
        else:
            by_class.setdefault(int(inst.class_value(dataset)),
                                []).append(int(idx))
    folds: list[list[int]] = [[] for _ in range(k)]
    cursor = 0
    for cls in sorted(by_class):
        for idx in by_class[cls]:
            folds[cursor % k].append(idx)
            cursor += 1
    for idx in no_class:
        folds[cursor % k].append(idx)
        cursor += 1
    return folds


def learning_curve(make_classifier, dataset: Dataset,
                   fractions=(0.1, 0.25, 0.5, 0.75, 1.0),
                   test_fraction: float = 0.3, seed: int = 1
                   ) -> list[tuple[float, int, float]]:
    """Accuracy as a function of training-set size.

    Splits off a fixed test set, then trains fresh models on growing
    prefixes of the remaining data.  Returns ``(fraction, n_train,
    accuracy)`` triples — the series behind "how much data does this
    problem need?", a question the §3 algorithm-choice requirement begs.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DataError("test_fraction must be in (0, 1)")
    shuffled = dataset.shuffled(seed)
    n_test = max(int(round(test_fraction * len(shuffled))), 1)
    test = shuffled.subset(range(n_test))
    pool = shuffled.subset(range(n_test, len(shuffled)))
    out: list[tuple[float, int, float]] = []
    for fraction in fractions:
        if not 0.0 < fraction <= 1.0:
            raise DataError(f"bad training fraction {fraction}")
        n_train = max(int(round(fraction * len(pool))), 1)
        train = pool.subset(range(n_train))
        if np.count_nonzero(train.class_counts()) == 0:
            continue
        clf = make_classifier()
        clf.fit(train)
        out.append((fraction, n_train, evaluate(clf, test).accuracy))
    return out


def bulk_score(classifier: "Classifier", dataset: Dataset,
               rows: list | None = None) -> dict:
    """Score many rows of *dataset* in one vectorized pass.

    *rows* is an ordered list of row indices (``None`` = every row).
    Returns a JSON-shaped dict: ``labels`` and ``distributions`` hold
    one entry per requested row in input order (``None`` where the row
    was unscorable), ``errors`` lists ``[position, message]`` pairs for
    the bad positions, and ``scored`` counts the rows actually scored —
    so per-item fault positions survive the trip through a batched
    service operation exactly as a sequence of single calls would
    report them.
    """
    n = dataset.num_instances
    if rows is None:
        # every row, in order: the kernel reads the store's matrix as is
        total, indices, bad = n, None, np.empty(0, dtype=np.intp)
    else:
        try:
            requested = np.asarray(rows, dtype=np.int64)
        except OverflowError:
            # beyond int64 is out of range for any dataset: clip so the
            # range check below reports it
            requested = np.asarray([min(max(int(r), -1), n) for r in rows],
                                   dtype=np.int64)
        if requested.ndim != 1:
            raise DataError("rows must be a flat list of row indices")
        total = len(requested)
        valid = (requested >= 0) & (requested < n)
        bad = np.flatnonzero(~valid)
        indices = requested[valid] if bad.size else requested
    errors = [[pos, f"row index {int(rows[pos])} out of range for "
                    f"{n} instance(s)"] for pos in bad.tolist()]
    dists = classifier.distribution_many(dataset, indices)
    labels = np.asarray(classifier.header.class_attribute.values,
                        dtype=object).take(np.argmax(dists, axis=1))
    distributions = dists.tolist()
    if errors:
        # None at the error positions, the scored rows in order elsewhere
        keep = np.ones(total, dtype=bool)
        keep[bad] = False
        spread = np.full((2, total), None, dtype=object)
        spread[0, keep] = labels
        spread[1, keep] = np.fromiter(distributions, dtype=object,
                                      count=len(distributions))
        labels, distributions = spread[0], spread[1].tolist()
    return {"labels": labels.tolist(), "distributions": distributions,
            "errors": errors, "scored": len(dists)}


def cross_validate(make_classifier, dataset: Dataset, k: int = 10,
                   seed: int = 1) -> EvaluationResult:
    """Stratified k-fold cross-validation.

    *make_classifier* is a zero-argument factory so each fold trains a fresh
    model (matching WEKA's semantics, and matching Grid WEKA's distributed
    cross-validation task).
    """
    folds = stratified_folds(dataset, k, seed)
    labels = dataset.class_attribute.values
    total = EvaluationResult(labels)
    all_indices = set(range(dataset.num_instances))
    for fold in folds:
        train_idx = sorted(all_indices - set(fold))
        if not train_idx or not fold:
            continue
        # folds are zero-copy views of the dataset's column store —
        # no rows are duplicated to train or score a fold
        train = dataset.view(train_idx)
        test = dataset.view(sorted(fold))
        clf = make_classifier()
        clf.fit(train)
        total.merge(evaluate(clf, test))
    return total
