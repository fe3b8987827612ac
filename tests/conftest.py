import os

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def count_executions(monkeypatch):
    """Counter of Ray Data executions: the returned function gives the
    number of ``StreamingExecutor.execute`` calls in this process since the
    fixture started. A test asserts that a call starts none by comparing
    the count before and after it."""
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor
    calls = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        calls.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return lambda: len(calls)
