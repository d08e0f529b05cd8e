import numpy as np
import pytest

from avfusion.core import LengthMismatch, UnknownLabel
from avfusion.metrics import evaluate, format_report, write_report_csv


def test_perfect_predictions():
    y = np.arange(7).repeat(2)
    report = evaluate(y, y)
    assert report.overall_accuracy == 1.0
    assert np.array_equal(report.confusion, np.eye(7, dtype=int) * 2)
    assert np.all(report.per_class_accuracy == 1.0)


def test_cyclic_shift_total_miss():
    truths = np.arange(7).repeat(3)
    preds = (truths + 1) % 7
    report = evaluate(preds, truths)
    assert report.overall_accuracy == 0.0
    assert np.all(report.per_class_accuracy == 0.0)


def test_random_lists_match_recount():
    rng = np.random.default_rng(0)
    preds = rng.integers(0, 7, 200)
    truths = rng.integers(0, 7, 200)
    report = evaluate(preds, truths)
    # independent recount
    acc = sum(int(p == t) for p, t in zip(preds, truths)) / 200
    assert report.overall_accuracy == pytest.approx(acc)
    assert report.confusion.trace() == round(acc * 200)
    # row sums equal the truth histogram
    assert np.array_equal(report.confusion.sum(axis=1),
                          np.bincount(truths, minlength=7))


def test_absent_class_row():
    report = evaluate([0, 0], [0, 1])
    assert report.per_class_accuracy[1] == 0.0
    assert report.per_class_accuracy[2] == 0.0
    assert report.confusion.sum(axis=1).tolist() == [1, 1, 0, 0, 0, 0, 0]


def test_errors():
    with pytest.raises(LengthMismatch):
        evaluate([0, 1], [0])
    with pytest.raises(ValueError):
        evaluate([], [])
    with pytest.raises(UnknownLabel):
        evaluate([0, 1], [-1, 1])
    with pytest.raises(UnknownLabel):
        evaluate([9, 1], [0, 1])
    with pytest.raises(UnknownLabel):
        evaluate([1.5, 2], [1, 2])


def test_report_csv_and_table(tmp_path):
    rng = np.random.default_rng(1)
    preds = rng.integers(0, 7, 50)
    truths = rng.integers(0, 7, 50)
    report = evaluate(preds, truths)
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("overall_accuracy,")
    assert float(lines[0].split(",")[1]) == pytest.approx(report.overall_accuracy)
    assert len(lines) == 2 + 7
    # every per-class cell is a plain number equal to the report's value
    cells = [line.split(",")[1] for line in lines[2:]]
    assert [float(c) for c in cells] == report.per_class_accuracy.tolist()
    # confusion cells in the CSV sum back to the sample count
    total = sum(int(v) for line in lines[2:] for v in line.split(",")[2:])
    assert total == 50
    table = format_report(report)
    assert "overall accuracy" in table
    assert "Surprise" in table
