"""The documented public API surface stays importable and coherent."""

import importlib
import pkgutil

import pytest
from suite_utils import run_fresh

import repro


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__ == "1.7.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_estimators_share_interface(self):
        from repro import ButterflyEstimator

        for cls in (
            repro.Abacus,
            repro.AbacusSupport,
            repro.EnsembleEstimator,
            repro.Parabacus,
            repro.Fleet,
            repro.CoAffiliationSampling,
            repro.ExactStreamingCounter,
        ):
            assert issubclass(cls, ButterflyEstimator)

    def test_subpackage_alls_resolve(self):
        import repro.apps as apps
        import repro.baselines as baselines
        import repro.core as core
        import repro.graph as graph
        import repro.metrics as metrics
        import repro.sampling as sampling
        import repro.serve as serve
        import repro.sketch as sketch
        import repro.store as store
        import repro.streams as streams

        for module in (
            core,
            graph,
            streams,
            sampling,
            sketch,
            baselines,
            apps,
            metrics,
            store,
            serve,
        ):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)

    def test_estimator_names_unique(self):
        names = {
            repro.Abacus.name,
            repro.Parabacus.name,
            repro.Fleet.name,
            repro.CoAffiliationSampling.name,
            repro.ExactStreamingCounter.name,
        }
        assert len(names) == 5


def _packages():
    """``repro`` and every subpackage, imported."""
    names = ["repro"] + [
        f"repro.{info.name}"
        for info in pkgutil.iter_modules(repro.__path__)
        if info.ispkg
    ]
    return [importlib.import_module(name) for name in names]


class TestLazySurface:
    """The package surfaces resolve on demand (PEP 562)."""

    def test_every_subpackage_is_covered(self):
        names = {module.__name__ for module in _packages()}
        assert {"repro.api", "repro.core", "repro.serve"} <= names

    def test_dir_lists_every_export(self):
        for module in _packages():
            listed = set(dir(module))
            missing = set(module.__all__) - listed
            assert not missing, (module.__name__, sorted(missing))

    def test_star_import_binds_every_export(self):
        for module in _packages():
            namespace: dict = {}
            exec(f"from {module.__name__} import *", namespace)
            missing = set(module.__all__) - set(namespace)
            assert not missing, (module.__name__, sorted(missing))
            for name in module.__all__:
                assert namespace[name] is getattr(module, name)

    def test_unknown_name_raises_attribute_error(self):
        for module in _packages():
            with pytest.raises(AttributeError, match="no_such_name"):
                module.no_such_name

    def test_bare_api_import_registers_every_estimator(self):
        names, heavy = run_fresh(
            "import json, sys\n"
            "import repro.api\n"
            "print(json.dumps([list(repro.api.registered_estimators()), "
            "sorted(m for m in ('multiprocessing', 'repro.shard.backends')"
            " if m in sys.modules)]))\n"
        )
        assert names == [
            "abacus",
            "abacus_support",
            "cas",
            "ensemble",
            "exact",
            "fleet",
            "parabacus",
            "sgrapp",
            "sharded",
            "windowed",
        ]
        assert heavy == []
