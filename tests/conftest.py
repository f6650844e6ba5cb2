"""Shared fixtures, and the hypothesis profile of the property tests:
derandomized, so every run draws the same examples, with no example
database and no deadline."""

import numpy as np
import pytest

from qrdiv import hermitian

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("qrdiv", derandomize=True, database=None, deadline=None,
                              max_examples=100)
    settings.load_profile("qrdiv")


@pytest.fixture
def eigh_calls(monkeypatch):
    """A list that grows by one entry per ``np.linalg.eigh`` call for the
    rest of the test; ``clear()`` it to start a count."""
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls


@pytest.fixture
def herm_checks(monkeypatch):
    """A list that grows by one entry per ``hermitian.check_hermitian`` call
    for the rest of the test; ``clear()`` it to start a count."""
    calls = []
    check = hermitian.check_hermitian

    def counting_check(*args, **kwargs):
        calls.append(1)
        return check(*args, **kwargs)

    monkeypatch.setattr(hermitian, "check_hermitian", counting_check)
    return calls
