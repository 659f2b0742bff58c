"""Session-scoped Ray fixture: ONE ray.init per pytest session."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_dir():
    return "/root/testdata/sf0.001"


@pytest.fixture
def executed_plans(monkeypatch):
    """The operator chains (``dag_str``) of the Dataset executions that
    the driver starts while the test runs, from any thread. Recorded by
    wrapping Ray 2.49's ``StreamingExecutor.execute``, which every
    execution calls; reading an already materialized Dataset starts
    none, and a bare input buffer (which Ray does not log as an
    execution either) is not counted."""
    from ray.data._internal.execution.operators.input_data_buffer import InputDataBuffer
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    plans: list[str] = []
    execute = StreamingExecutor.execute

    def recording(self, dag, initial_stats=None):
        if not isinstance(dag, InputDataBuffer):
            plans.append(dag.dag_str)
        return execute(self, dag, initial_stats)

    monkeypatch.setattr(StreamingExecutor, "execute", recording)
    return plans
