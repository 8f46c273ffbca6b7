from __future__ import annotations

import pytest

from sectionid.errors import LengthMismatch, OverlapError
from sectionid.prediction import Prediction


def test_ungrounded_prediction():
    pred = Prediction(headers=["A", "B"])
    assert not pred.grounded
    assert pred.spans is None


def test_grounded_prediction_validates():
    pred = Prediction(headers=["A", "B"], spans=[(0, 1), (1, 4)])
    assert pred.grounded


def test_span_header_length_mismatch():
    with pytest.raises(LengthMismatch, match="2 spans for 1 headers"):
        Prediction(headers=["A"], spans=[(0, 1), (2, 3)])


def test_unsorted_or_overlapping_spans_rejected():
    # the span rule of tokenizer.spans_to_iob and metrics.span_counts
    with pytest.raises(OverlapError, match="got start 0 before 8"):
        Prediction(headers=["A", "B"], spans=[(5, 8), (0, 2)])
    with pytest.raises(OverlapError, match="got start 2 before 4"):
        Prediction(headers=["A", "B"], spans=[(0, 4), (2, 6)])
    with pytest.raises(OverlapError, match=r"empty or inverted span \(3, 3\)"):
        Prediction(headers=["A"], spans=[(3, 3)])


def test_header_placed_nowhere_has_a_none_span():
    pred = Prediction(headers=["A", "B", "C"], spans=[(0, 1), None, (1, 4)])
    assert pred.grounded
    assert pred.placed_spans() == [(0, 1), (1, 4)]
    # the placed spans are checked in header order, skipping the None
    with pytest.raises(OverlapError, match="got start 0 before 4"):
        Prediction(headers=["A", "B", "C"], spans=[(2, 4), None, (0, 1)])
