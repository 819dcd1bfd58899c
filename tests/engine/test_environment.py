"""Tests for the simulated conda environment."""

import time

import pytest

from repro.engine.environment import (
    DEFAULT_PREINSTALLED,
    SimulatedCondaEnvironment,
)
from repro.errors import EnvironmentError_


class TestEnsure:
    def test_preinstalled_not_reinstalled(self):
        env = SimulatedCondaEnvironment()
        report = env.ensure(["numpy", "dispel4py"])
        assert report.installed_now == []
        assert set(report.already_present) == {"numpy", "dispel4py"}

    def test_missing_packages_installed(self):
        env = SimulatedCondaEnvironment()
        report = env.ensure(["astropy", "scipy"])
        assert set(report.installed_now) == {"astropy", "scipy"}
        assert "astropy" in env.installed

    def test_ensure_idempotent(self):
        env = SimulatedCondaEnvironment()
        env.ensure(["astropy"])
        report = env.ensure(["astropy"])
        assert report.installed_now == []
        assert report.already_present == ["astropy"]

    def test_duplicates_in_request_collapse(self):
        env = SimulatedCondaEnvironment()
        report = env.ensure(["scipy", "scipy"])
        assert report.requested == ["scipy"]

    def test_unknown_package_charged_default_cost(self):
        env = SimulatedCondaEnvironment()
        before = env.accounted_install_s
        env.ensure(["leftpad"])
        assert env.accounted_install_s > before

    def test_strict_mode_rejects_unknown(self):
        env = SimulatedCondaEnvironment(strict=True)
        with pytest.raises(EnvironmentError_, match="not available"):
            env.ensure(["leftpad"])


class TestLatencyModel:
    def test_zero_scale_is_instant(self):
        env = SimulatedCondaEnvironment(install_latency_scale=0.0)
        t0 = time.perf_counter()
        env.ensure(["astropy", "scipy", "pandas"])
        assert time.perf_counter() - t0 < 0.2

    def test_scale_sleeps_proportionally(self):
        env = SimulatedCondaEnvironment(install_latency_scale=0.005)
        t0 = time.perf_counter()
        env.ensure(["astropy"])  # 14s nominal * 0.005 = 70ms
        elapsed = time.perf_counter() - t0
        assert elapsed >= 0.05

    def test_accounting_independent_of_scale(self):
        fast = SimulatedCondaEnvironment(install_latency_scale=0.0)
        fast.ensure(["astropy"])
        assert fast.accounted_install_s == pytest.approx(14.0)


class TestReset:
    def test_reset_restores_defaults(self):
        env = SimulatedCondaEnvironment()
        env.ensure(["astropy"])
        env.reset()
        assert env.installed == set(DEFAULT_PREINSTALLED)
        assert env.accounted_install_s == 0.0
        assert "astropy" not in env.installed

    def test_repro_package_preinstalled(self):
        # PEs importing the bundled substrates need no installation
        assert "repro" in DEFAULT_PREINSTALLED
