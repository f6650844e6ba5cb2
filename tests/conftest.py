"""Shared fixtures, and the hypothesis profile of the property tests:
derandomized, so every run draws the same examples, with no example
database and no deadline."""

import importlib
import types

import pytest

import qrdiv
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
def lapack(monkeypatch):
    """A writable copy of ``hermitian._lapack``, the handle through which
    every decomposition in the package calls LAPACK, installed for the rest
    of the test: patch ``eigh_lo`` or ``eigvalsh_lo`` on it to watch them."""
    handle = types.SimpleNamespace(eigh_lo=hermitian._lapack.eigh_lo,
                                   eigvalsh_lo=hermitian._lapack.eigvalsh_lo)
    monkeypatch.setattr(hermitian, "_lapack", handle)
    return handle


def _counter(monkeypatch, handle, routine):
    calls = []
    inner = getattr(handle, routine)

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(handle, routine, counting)
    return calls


@pytest.fixture
def eigh_calls(monkeypatch, lapack):
    """A list that grows by one entry per ``hermitian.eigh`` call (every
    eigenvector decomposition) for the rest of the test; ``clear()`` it to
    start a count."""
    return _counter(monkeypatch, lapack, "eigh_lo")


@pytest.fixture
def eigvalsh_calls(monkeypatch, lapack):
    """As ``eigh_calls``, for ``hermitian.eigvalsh`` (eigenvalues only)."""
    return _counter(monkeypatch, lapack, "eigvalsh_lo")


@pytest.fixture
def rank_calls(monkeypatch):
    """A list that grows by one entry per ``hermitian.compressed_rank`` call,
    through any qrdiv module that bound the name, for the rest of the test;
    ``clear()`` it to start a count."""
    calls = []
    inner = hermitian.compressed_rank

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    for name in qrdiv._SUBMODULES:
        mod = importlib.import_module(f"qrdiv.{name}")
        if getattr(mod, "compressed_rank", None) is inner:
            monkeypatch.setattr(mod, "compressed_rank", counting)
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
