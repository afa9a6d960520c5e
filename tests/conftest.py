import pytest

from treecv import _native, forkjoin


@pytest.fixture
def python_path(monkeypatch):
    """Force the compiled kernels off, as on a host without a C compiler:
    every learner runs its Python update, and the tree runs the Python
    recursion wherever it would call `tree_feed`."""
    monkeypatch.setattr(_native, "kernels", lambda: None)


@pytest.fixture
def kernels():
    """The compiled kernels; the test is skipped where they cannot load
    (`test_native` fails instead when a C compiler is on PATH)."""
    loaded = _native.kernels()
    if loaded is None:
        pytest.skip(f"no compiled kernels: {_native.reason()}")
    return loaded


@pytest.fixture
def fork_always(monkeypatch):
    """Set the fork floor to 0: every node above the fork depth forks, as
    the fork-join tests need at their small sizes, where a compiled
    subtree would otherwise run in this process."""
    monkeypatch.setattr(forkjoin, "FORK_FLOOR", 0)
