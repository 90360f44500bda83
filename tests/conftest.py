"""Shared fixtures. The fitted coefficients are computed once per session."""

import os
from pathlib import Path

import pytest

import rqss
from rqss.modes import get_transition


@pytest.fixture(scope="session")
def child_env():
    """Environment for a child interpreter that imports this copy of rqss."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(rqss.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("coeff-cache")


@pytest.fixture(scope="session")
def fit20(cache_dir):
    return get_transition(n_max=20, cache_dir=cache_dir)


@pytest.fixture(scope="session")
def fit10(cache_dir):
    return get_transition(n_max=10, cache_dir=cache_dir)


@pytest.fixture
def count_calls(monkeypatch):
    """Count calls: `count_calls((namespace, name), ...)` wraps each function and returns the {name: calls} it updates."""

    def wrap(*targets):
        counts = {}
        for namespace, name in targets:
            counts[name] = 0
            call = getattr(namespace, name)

            def counting(*args, _name=name, _call=call, **kwargs):
                counts[_name] += 1
                return _call(*args, **kwargs)

            monkeypatch.setattr(namespace, name, counting)
        return counts

    return wrap
