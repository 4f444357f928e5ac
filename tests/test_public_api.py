"""Public API surface tests.

Every name promised by a package's ``__all__`` must resolve, and the
top-level convenience imports must stay stable — downstream code imports
these paths.
"""

import importlib
import os
import subprocess
import sys

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.baselines",
    "repro.client",
    "repro.core",
    "repro.database",
    "repro.experiments",
    "repro.faults",
    "repro.metrics",
    "repro.network",
    "repro.network.routing",
    "repro.placement",
    "repro.sim",
    "repro.snmp",
    "repro.storage",
    "repro.workload",
]


class TestAllExportsResolve:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_every_all_entry_exists(self, package_name):
        package = importlib.import_module(package_name)
        assert hasattr(package, "__all__"), package_name
        for name in package.__all__:
            assert hasattr(package, name), f"{package_name}.{name} missing"

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_is_sorted_for_readability(self, package_name):
        package = importlib.import_module(package_name)
        exported = [n for n in package.__all__ if n != "__version__"]
        assert exported == sorted(exported), package_name


class TestTopLevelConvenience:
    def test_headline_classes_importable_from_root(self):
        from repro import (  # noqa: F401
            Client,
            ServiceConfig,
            Simulator,
            Topology,
            VideoTitle,
            VirtualRoutingAlgorithm,
            VoDService,
        )

    def test_version_is_semver_like(self):
        import repro

        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_quickstart_docstring_example_names_exist(self):
        # The module docstring's quickstart must reference real API.
        import repro

        assert "VoDService" in repro.__doc__
        assert "build_grnet_topology" in repro.__doc__


class TestStandardLibraryOnly:
    def test_importing_the_package_pulls_in_no_third_party_module(self):
        # A fresh interpreter: this process already imported the test
        # oracles (networkx) and hypothesis' optional numpy support.
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        probe = (
            "import sys, repro, repro.cli, repro.obs.stream; "
            "print([m for m in ('numpy', 'networkx', 'scipy') if m in sys.modules])"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": os.pathsep.join([src, *sys.path])},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert out.stdout.strip() == "[]"


class TestErrorCatchability:
    def test_facade_errors_catchable_at_top_level(self):
        from repro.errors import ReproError, ServiceError

        from repro import ServiceConfig, Simulator, VoDService
        from repro.network.grnet import build_grnet_topology

        service = VoDService(Simulator(), build_grnet_topology(), ServiceConfig())
        with pytest.raises(ReproError):
            service.seed_title("nope", None)  # type: ignore[arg-type]
        with pytest.raises(ServiceError):
            service.attach_access_network("10.0.0", "nope")
