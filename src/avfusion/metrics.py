"""Evaluation report: overall accuracy, per-class accuracy, confusion."""

from dataclasses import dataclass

import numpy as np

from .core import EMOTION_NAMES, N_CLASSES, DimensionMismatch, check_labels, write_csv


@dataclass(frozen=True)
class EvalReport:
    overall_accuracy: float
    per_class_accuracy: np.ndarray  # (7,)
    confusion: np.ndarray           # (7, 7) counts, rows indexed by truth


def evaluate(predictions, truths):
    """Confusion counts and accuracies of predictions against truths.

    Per-class accuracy is the diagonal over the row total (0 for classes
    with no truth samples); overall accuracy is trace over total.
    """
    truths = check_labels(truths, "truth")
    if truths.ndim != 1 or not truths.size:
        raise DimensionMismatch(f"truth: expected a non-empty 1-D sequence of labels, "
                                f"got shape {truths.shape}")
    predictions = check_labels(predictions, "prediction", n=truths.size)
    confusion = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(confusion, (truths, predictions), 1)
    row_totals = confusion.sum(axis=1)
    diag = np.diag(confusion).astype(np.float64)
    per_class = np.where(row_totals > 0, diag / np.maximum(row_totals, 1), 0.0)
    overall = float(diag.sum() / predictions.size)
    return EvalReport(overall_accuracy=overall, per_class_accuracy=per_class,
                      confusion=confusion)


def write_report_csv(report, path):
    """Report as CSV: one overall row, then per-class accuracy plus the
    confusion row for each true class."""
    write_csv(path, [["overall_accuracy", f"{report.overall_accuracy!r}"],
                     ["class", "per_class_accuracy", *EMOTION_NAMES],
                     *([name, repr(float(report.per_class_accuracy[e])),
                        *[int(v) for v in report.confusion[e]]]
                       for e, name in enumerate(EMOTION_NAMES))])


def format_report(report):
    """Human-readable table of the report."""
    width = max(len(n) for n in EMOTION_NAMES)
    lines = [f"overall accuracy: {report.overall_accuracy:.4f}", ""]
    header = " ".join(f"{n[:4]:>5}" for n in EMOTION_NAMES)
    lines.append(f"{'true/pred':>{width + 2}} {header}   per-class")
    for e, name in enumerate(EMOTION_NAMES):
        counts = " ".join(f"{int(v):>5}" for v in report.confusion[e])
        lines.append(f"{name:>{width + 2}} {counts}   {report.per_class_accuracy[e]:.4f}")
    return "\n".join(lines)
