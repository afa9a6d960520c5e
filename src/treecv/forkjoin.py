"""Fork-join on worker processes, and the one rule for when to fork.

Forked processes are the package's one parallel mechanism.  A Python
learner's update loop, and the tree's Python recursion, run in the
interpreter, which one thread holds at a time, so threads cannot overlap
them; processes can.  `fork` starts a callable in a child made with the
POSIX "fork" start method: the child sees the parent's memory as a
copy-on-write image, so models, datasets and closures reach it without
pickling, and only the callable's result travels back, pickled over a
one-way pipe.

Forking is only safe while the parent runs a single thread; the package
starts no threads of its own.

Both schedulers fork by one rule:
- the parent always runs the first share of the work itself: the left
  branch of a tree node, or standard CV's first fold group;
- a compiled unit of work (a subtree that `tree_feed` runs, or a fold
  group that `standard_feed` runs) forks only when the point updates it
  moves exceed `FORK_FLOOR`; otherwise it runs in the parent: a tree
  node's whole subtree at once, a later fold group merged with the
  groups the parent runs just before it, into one `standard_feed` call;
- Python-path work (the tree's recursion, or the standard fold loop)
  forks at any size, since its updates cost µs each.
`tree._right_pays` applies the floor to a node's right branch, and
`standard_cv` to each fold group after the first, whose point updates
are `len(group) * n` minus the rows of its chunks.  Each fork made counts
in `WorkCounters.forks`.

A fork pays once the work it moves exceeds the fork's cost over 2 - s,
where s is how much two busy processes slow each other.
`python3 tools/fork_floor.py` on a 2-vCPU Xeon VM, three runs (medians
of 9, the sides rotating): a fork of a no-op plus its join 2.6-3.5 ms;
a sequential k=16 estimate of n=40,000 spends 24-37 (Pegasos), 58-106
(LsqSgd) and 62-99 (OnlineKMeans) ns per point update; and a tree root
forced to fork at 2 workers, against the sequential estimate, ran

    k=16 LsqSgd, right branch of    80,000 updates: 8.3-18.7 / 5.8-9.5 ms
                                   160,000 updates: 15.3-26.9 / 11.3-18.7 ms
                                   240,000 updates: 19.6-33.1 / 16.8-27.3 ms
                                   320,000 updates: 22.3-27.9 / 24.3-37.9 ms
                                 1,280,000 updates: 83.5-90.4 / 133.7-158.1 ms
    Pegasos LOOCV,                 143,616 updates: 13.3-15.8 / 7.6-12.5 ms
                                   307,232 updates: 21.7-25.8 / 18.1-26.8 ms

Forking loses up to 240,000 updates, wins or loses by turns at
307,000-320,000 and wins at 1,280,000; with s ~ 1.5, a 3 ms fork over
2 - s at 25-100 ns per update puts the turn at 60,000-240,000.  The
floor sits above every size at which the fork lost in all three runs
and below every size at which it won in all three.  It was 200,000
while an LsqSgd update cost 90-108 ns; cheaper updates moved it up.

Standard CV fits the same floor.  k=10 LsqSgd in fixed order at 2
workers, the second fold group forced to fork, against the sequential
estimate (same tool and VM, three later runs, each repetition running
every size, and the sides in each of their orders):

    second group of    180,000 updates: 17.4-22.8 / 17.6-20.8 ms
                       720,000 updates: 44.9-54.0 / 69.7-83.6 ms
                     2,880,000 updates: 162.9-195.4 / 297.6-334.4 ms

Below the floor the fork ties or loses; above it, it wins by 1.5-1.8x.
"""

from __future__ import annotations

import multiprocessing
import pickle
from typing import Callable

from .core import CrossValidationError, check_integer

# Upper bound on max_workers anywhere in the package; larger values are
# almost certainly typos and would fork that many processes.
MAX_WORKERS = 64

# A compiled unit of work forks only when its point updates exceed this
# (see the module header for the rule and its measurements).
FORK_FLOOR = 300_000


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
