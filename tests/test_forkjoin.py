"""Worker processes: results, errors and reaping."""

import multiprocessing
import os

import pytest

from treecv import ParseError
from treecv.forkjoin import WorkerError, fork, join_all


def raise_parse_error(line):
    raise ParseError(line, "bad token")


def test_join_returns_the_result_computed_in_the_worker():
    join = fork(lambda a, b: (os.getpid(), a + b), 2, 3)
    pid, total = join()
    assert total == 5 and pid != os.getpid()
    assert multiprocessing.active_children() == []


def test_join_reraises_the_worker_error_with_its_attributes():
    join = fork(raise_parse_error, 7)
    with pytest.raises(ParseError) as info:
        join()
    assert info.value.line_number == 7
    assert str(info.value) == "line 7: bad token"
    assert multiprocessing.active_children() == []


def test_worker_that_dies_without_a_result_is_reported():
    join = fork(os._exit, 3)
    with pytest.raises(WorkerError, match="code 3"):
        join()
    assert multiprocessing.active_children() == []


class NeedsTwoArguments(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def raise_needs_two_arguments():
    raise NeedsTwoArguments(1, 2)


def test_results_and_errors_that_cannot_travel_are_reported():
    with pytest.raises(WorkerError, match="result could not be sent back"):
        fork(lambda: (lambda: None))()
    with pytest.raises(WorkerError, match="error NeedsTwoArguments: 1/2 could not be sent"):
        fork(raise_needs_two_arguments)()
    assert multiprocessing.active_children() == []


def test_join_all_reaps_every_worker_and_raises_the_first_error():
    joins = [fork(int, "1"), fork(raise_parse_error, 2), fork(raise_parse_error, 3),
             fork(int, "4")]
    with pytest.raises(ParseError) as info:
        join_all(joins)
    assert info.value.line_number == 2
    assert multiprocessing.active_children() == []
    assert join_all([fork(int, "5"), lambda: 6]) == [5, 6]
