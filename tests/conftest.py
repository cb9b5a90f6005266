"""Session-scoped Ray fixture — one Ray session for the whole pytest run —
the session's band-index root, and the guard against hidden partial
executions in engine code."""

from __future__ import annotations

import os
import sys

import pytest

import dedupe_ray

_ENGINE_DIR = os.path.dirname(os.path.abspath(dedupe_ray.__file__)) + os.sep


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield ray
    ray.shutdown()


@pytest.fixture(scope="session", autouse=True)
def session_index_root(tmp_path_factory):
    """Keep the band indexes that ``incremental_match_docs`` builds for the
    test corpora in this session's temporary directory, not in the shared
    default root, where each new corpus would leave one behind."""
    from dedupe_ray.pipelines import queries

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(queries, "DEFAULT_INDEX_ROOT", str(tmp_path_factory.mktemp("index")))
        yield


@pytest.fixture(autouse=True)
def no_hidden_limit(monkeypatch):
    """Fail any test in which engine code (a ``dedupe_ray`` frame on the
    stack) calls ``Dataset.limit``. ``take`` and a ``schema()`` probe of a
    lazy dataset go through it too (Ray 2.49.2). Each is a partial
    execution whose cancelled tasks can abort the Ray driver. The call
    raises, and a call that engine code swallowed still fails the test at
    teardown."""
    import ray.data

    real_limit = ray.data.Dataset.limit
    calls: list[str] = []

    def _limit(self, *args, **kwargs):
        frame = sys._getframe(1)
        if frame.f_code.co_name == "schema" and frame.f_locals.get("fetch_if_missing") is False:
            # ``schema(fetch_if_missing=False)`` (e.g. inside ``groupby``)
            # builds the limited plan but never executes it
            return real_limit(self, *args, **kwargs)
        while frame is not None:
            code = frame.f_code
            if os.path.abspath(code.co_filename).startswith(_ENGINE_DIR):
                calls.append(f"{code.co_filename}:{frame.f_lineno} {code.co_name}")
                raise AssertionError(f"hidden Dataset.limit execution from {calls[-1]}")
            frame = frame.f_back
        return real_limit(self, *args, **kwargs)

    monkeypatch.setattr(ray.data.Dataset, "limit", _limit)
    yield
    assert not calls, f"hidden Dataset.limit execution from {calls}"
