"""Package-level tests: exports, error hierarchy, version."""

import pytest

import repro
from repro import errors


class TestExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_top_level_api(self):
        assert callable(repro.Simulation)
        assert set(repro.MACHINES) == {"jupiter", "hydra", "titan"}
        assert repro.jupiter().name == "jupiter"

    def test_sync_package_exports(self):
        import repro.sync as sync

        for name in ("HCA3Sync", "HCA2Sync", "HCASync", "JKSync",
                     "ClockPropagationSync", "HierarchicalSync",
                     "SKaMPIOffset", "MeanRTTOffset", "LinearDriftModel",
                     "GlobalClockLM", "algorithm_from_label"):
            assert hasattr(sync, name), name

    def test_simmpi_package_exports(self):
        import repro.simmpi as simmpi

        for name in ("Simulation", "Communicator", "Engine",
                     "ProcessContext", "NetworkModel", "ANY_SOURCE"):
            assert hasattr(simmpi, name), name


class TestRemovedPackages:
    def test_old_benchmark_package_is_gone(self):
        # perfbench/ is the only performance ledger; a revert is loud.
        with pytest.raises(ModuleNotFoundError):
            import repro.perf  # noqa: F401


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for cls in (errors.ClockError, errors.SimulationError,
                    errors.DeadlockError, errors.CommunicatorError,
                    errors.MatchingError, errors.SyncError,
                    errors.ConfigurationError):
            assert issubclass(cls, errors.ReproError)

    def test_deadlock_is_simulation_error(self):
        assert issubclass(errors.DeadlockError, errors.SimulationError)

    def test_matching_is_simulation_error(self):
        assert issubclass(errors.MatchingError, errors.SimulationError)

    def test_catchable_as_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.SyncError("x")
