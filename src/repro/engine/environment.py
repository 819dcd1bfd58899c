"""Simulated conda environment with auto-install (paper §3.3).

"Within a conda Python environment, the execution engine is furnished
with the dispel4py library and its essential packages ... It autonomously
imports necessary prerequisites, eliminating the need for user
installations."

Real installs are impossible offline, so the environment keeps a catalog
of known packages with realistic install durations; ``ensure`` installs
the missing ones, sleeping ``install_latency_scale x duration`` seconds.
With the default scale of 0 installs are instantaneous (unit tests); the
Table 5 benchmark raises the scale to charge realistic install overhead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import EnvironmentError_

#: package -> nominal install seconds (rough pip/conda wall times)
PACKAGE_CATALOG: dict[str, float] = {
    "numpy": 8.0,
    "scipy": 12.0,
    "pandas": 15.0,
    "astropy": 14.0,
    "networkx": 4.0,
    "requests": 2.0,
    "matplotlib": 16.0,
    "redis": 2.0,
    "mpi4py": 20.0,
    "cloudpickle": 1.0,
    "dispel4py": 3.0,
    "findimports": 1.0,
    "sklearn": 18.0,
    "scikit-learn": 18.0,
    "sympy": 9.0,
    "pillow": 6.0,
    "h5py": 10.0,
    "numba": 22.0,
}

#: default install time for packages not in the catalog
_DEFAULT_INSTALL_SECONDS = 5.0

#: what the engine environment ships with out of the box ("furnished with
#: the dispel4py library and its essential packages", §3.3); ``repro`` is
#: this package itself — PEs importing the bundled substrates need no
#: installation, like dispel4py built-ins on the paper's engine.
DEFAULT_PREINSTALLED = frozenset({"dispel4py", "cloudpickle", "numpy", "repro"})


@dataclass
class InstallReport:
    """What one ``ensure`` call did."""

    requested: list[str] = field(default_factory=list)
    installed_now: list[str] = field(default_factory=list)
    already_present: list[str] = field(default_factory=list)
    seconds: float = 0.0


class SimulatedCondaEnvironment:
    """A self-contained environment with package management latency."""

    def __init__(
        self,
        preinstalled: frozenset[str] | set[str] = DEFAULT_PREINSTALLED,
        *,
        install_latency_scale: float = 0.0,
        catalog: dict[str, float] | None = None,
        strict: bool = False,
    ) -> None:
        """``strict=True`` makes unknown packages an error instead of
        charging the default install time."""
        self.installed: set[str] = set(preinstalled)
        self.install_latency_scale = install_latency_scale
        self.catalog = dict(PACKAGE_CATALOG if catalog is None else catalog)
        self.strict = strict
        #: cumulative modelled install seconds (accounting even at scale 0)
        self.accounted_install_s = 0.0

    def install_cost(self, package: str) -> float:
        """Nominal (unscaled) install seconds for ``package``."""
        if package in self.catalog:
            return self.catalog[package]
        if self.strict:
            raise EnvironmentError_(
                f"package {package!r} is not available in the engine "
                "environment catalog",
                params={"package": package},
            )
        return _DEFAULT_INSTALL_SECONDS

    def ensure(self, packages: list[str]) -> InstallReport:
        """Install every missing package; idempotent per package."""
        report = InstallReport(requested=sorted(set(packages)))
        t0 = time.perf_counter()
        for package in report.requested:
            if package in self.installed:
                report.already_present.append(package)
                continue
            cost = self.install_cost(package)
            self.accounted_install_s += cost
            if self.install_latency_scale > 0:
                time.sleep(cost * self.install_latency_scale)
            self.installed.add(package)
            report.installed_now.append(package)
        report.seconds = time.perf_counter() - t0
        return report

    def reset(self, preinstalled: frozenset[str] | None = None) -> None:
        """Tear the environment down and re-provision (ephemerality, §3)."""
        self.installed = set(
            DEFAULT_PREINSTALLED if preinstalled is None else preinstalled
        )
        self.accounted_install_s = 0.0
