"""Fork-join on worker processes.

Forked processes are the package's one parallel mechanism.  A Python
learner's update loop, and the tree's Python recursion, run in the
interpreter, which one thread holds at a time, so threads cannot overlap
them; processes can.  The compiled learners' loops run
in C (`_native`), so a fork pays for them only when the work it moves
outweighs its cost of a few ms (`tree.FORK_FLOOR`).  `fork` starts a
callable in a child made with the POSIX "fork" start method: the child
sees the parent's memory as a copy-on-write image, so models, datasets
and closures reach it without pickling, and only the callable's result
travels back, pickled over a one-way pipe.

Forking is only safe while the parent runs a single thread; the package
starts no threads of its own.
"""

from __future__ import annotations

import multiprocessing
import pickle
from typing import Callable

from .core import CrossValidationError, check_integer

# Upper bound on max_workers anywhere in the package; larger values are
# almost certainly typos and would fork that many processes.
MAX_WORKERS = 64


class WorkerError(CrossValidationError, RuntimeError):
    """A worker process died, or could not send its outcome back."""


def check_workers(max_workers: int, name: str = "max_workers") -> None:
    """Reject worker counts that are not integers or lie outside
    0..MAX_WORKERS (0 or 1: sequential); the message calls the count
    `name`."""
    if not 0 <= check_integer(max_workers, name) <= MAX_WORKERS:
        raise ValueError(f"{name} must be at least 0 and at most {MAX_WORKERS}, "
                         f"got {max_workers}")


def fork(fn: Callable, *args) -> Callable[[], object]:
    """Start fn(*args) in a forked child process; returns its `join`.

    `join()` waits for the child, returns fn's result or re-raises the
    exception fn raised, and always reaps the process.  Call it exactly
    once.
    """
    context = multiprocessing.get_context("fork")  # ValueError where fork is unsupported
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(target=_child, args=(sender, fn, args))
    process.start()
    sender.close()

    def join():
        try:
            payload = receiver.recv_bytes()
        except EOFError:
            payload = None
        finally:
            receiver.close()
            process.join()
            exitcode = process.exitcode
            process.close()
        if payload is None:
            raise WorkerError(f"worker process exited with code {exitcode} "
                              "before sending a result")
        ok, value = pickle.loads(payload)
        if ok:
            return value
        raise value

    return join


def join_all(joins) -> list:
    """Join every worker in order; re-raise the first failure after all
    have been reaped, so an error never leaves a worker behind."""
    results, first_error = [], None
    for join in joins:
        try:
            results.append(join())
        except Exception as err:
            first_error = first_error or err
    if first_error is not None:
        raise first_error
    return results


def _child(sender, fn, args) -> None:
    try:
        outcome = (True, fn(*args))
    except Exception as err:
        outcome = (False, err)
    try:
        payload = pickle.dumps(outcome)
        if not outcome[0]:
            pickle.loads(payload)  # an exception class may not survive the trip
    except Exception as err:
        ok, value = outcome
        what = "result" if ok else f"error {type(value).__name__}: {value}"
        payload = pickle.dumps((False, WorkerError(f"worker {what} could not be sent "
                                                   f"back: {err!r}")))
    try:
        sender.send_bytes(payload)
    finally:
        sender.close()
