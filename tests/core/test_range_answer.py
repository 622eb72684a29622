"""Small-surface tests for answer containers and cleaning results."""

from repro.core.cleaning import CleaningResult
from repro.core.knn import KnnAnswer, KnnResultEntry
from repro.core.messages import Message
from repro.core.range_query import RangeAnswer


def test_knn_answer_accessors():
    answer = KnnAnswer(entries=[KnnResultEntry(3, 1.5), KnnResultEntry(7, 2.5)])
    assert answer.objects() == [3, 7]
    assert answer.distances() == [1.5, 2.5]


def test_range_answer_accessors():
    answer = RangeAnswer(entries=[KnnResultEntry(9, 0.25)])
    assert answer.objects() == [9]
    assert answer.distances() == [0.25]


def test_cleaning_result_flatten():
    result = CleaningResult()
    result.occupants[4] = {1: Message(1, 0, 0.5, 1.0)}
    result.occupants[7] = {2: Message(2, 3, 0.1, 2.0)}
    flat = result.all_objects()
    assert flat[1] is result.occupants[4][1] and flat[2] is result.occupants[7][2]
    assert flat[1].offset == 0.5


def test_cleaning_result_flatten_latest_cell_wins_duplicates():
    """An object should appear in one cell only; if a duplicate sneaks in,
    flattening keeps a single deterministic entry."""
    result = CleaningResult()
    result.occupants[1] = {5: Message(5, 0, 0.1, 1.0)}
    result.occupants[2] = {5: Message(5, 1, 0.2, 2.0)}
    flat = result.all_objects()
    assert len(flat) == 1
    assert flat[5] is result.occupants[2][5]
