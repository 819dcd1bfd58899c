"""Shared fixtures: an unfitted (fast) model bundle, a local stack, and
the opt-in lockwatch instrumentation for the concurrency-heavy suites."""

from __future__ import annotations

import pytest

from repro.client import LaminarClient, local_stack
from repro.ml.bundle import ModelBundle

#: suites that run under lock-order/blocking-call instrumentation —
#: the concurrency-heavy surfaces (search serving, write core, jobs, the
#: vector index's refill beside the DAO and index locks).
#: Matched against the test module's posix path.
_LOCKWATCH_SUITES = (
    "tests/search/test_batcher",
    "tests/registry/test_vector_freshness",
    "tests/server/test_v1_write_api",
    "tests/server/test_write_concurrency",
    "tests/jobs/test_manager",
)


@pytest.fixture()
def lockwatch():
    """Install lock-order/blocking-call instrumentation for one test.

    Yields the active :class:`~repro.analysis.lockwatch.LockWatch`;
    at teardown, uninstalls and fails the test if any lock-order cycle
    or blocking-call-under-lock was recorded.
    """
    from repro.analysis.lockwatch import LockWatch

    watch = LockWatch()
    watch.install()
    try:
        yield watch
    finally:
        watch.uninstall()
        watch.raise_violations()


@pytest.fixture(autouse=True)
def _lockwatch_for_concurrency_suites(request):
    """Autouse shim: turn on ``lockwatch`` for the configured suites."""
    module = getattr(request, "module", None)
    path = (getattr(module, "__file__", "") or "").replace("\\", "/")
    if any(suite in path for suite in _LOCKWATCH_SUITES):
        request.getfixturevalue("lockwatch")


@pytest.fixture(scope="session")
def fast_bundle() -> ModelBundle:
    """An unfitted model bundle — cheap to build, shared by the session."""
    return ModelBundle.default(fit=False)


@pytest.fixture()
def stack_client(fast_bundle) -> LaminarClient:
    """A logged-in client on a fresh single-process Laminar deployment."""
    client = LaminarClient(
        local_stack(models=fast_bundle), models=fast_bundle, echo=False
    )
    client.register("tester", "secret")
    client.login("tester", "secret")
    return client
