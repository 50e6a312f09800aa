"""Unit tests for the algorithm-label parser."""

import pytest

from repro.errors import ConfigurationError
from repro.sync.clockprop import ClockPropagationSync
from repro.sync.hca import HCA2Sync, HCASync
from repro.sync.hca3 import HCA3Sync
from repro.sync.hierarchical import HierarchicalSync
from repro.sync.jk import JKSync
from repro.sync.offset import MeanRTTOffset, SKaMPIOffset
from repro.sync.registry import algorithm_from_label


class TestFlatLabels:
    def test_paper_hca_label(self):
        alg = algorithm_from_label("hca/1000/skampi offset/100")
        assert isinstance(alg, HCASync)
        assert alg.nfitpoints == 1000
        assert isinstance(alg.offset_alg, SKaMPIOffset)
        assert alg.offset_alg.nexchanges == 100
        assert not alg.recompute_intercept

    def test_paper_hca2_recompute_label(self):
        alg = algorithm_from_label(
            "hca2/recompute intercept/1000/skampi offset/100"
        )
        assert isinstance(alg, HCA2Sync)
        assert alg.recompute_intercept

    def test_paper_hca3_label_case_insensitive(self):
        alg = algorithm_from_label(
            "HCA3/Recompute_Intercept/500/SKaMPI-Offset/100"
        )
        assert isinstance(alg, HCA3Sync)
        assert alg.nfitpoints == 500

    def test_jk_with_mean_rtt(self):
        alg = algorithm_from_label("jk/1000/mean_rtt_offset/20")
        assert isinstance(alg, JKSync)
        assert isinstance(alg.offset_alg, MeanRTTOffset)

    def test_clockprop_alone(self):
        alg = algorithm_from_label("ClockPropagation")
        assert isinstance(alg, ClockPropagationSync)

    def test_fitpoint_spacing_forwarded(self):
        alg = algorithm_from_label("hca3/10/skampi_offset/5",
                                   fitpoint_spacing=2e-3)
        assert alg.fitpoint_spacing == 2e-3

    def test_roundtrip(self):
        label = "hca3/recompute_intercept/1000/skampi_offset/100"
        assert algorithm_from_label(label).label() == label


class TestHierarchicalLabels:
    def test_paper_top_bottom_label(self):
        alg = algorithm_from_label(
            "Top/hca3/1000/SKaMPI-Offset/100/Bottom/ClockPropagation"
        )
        assert isinstance(alg, HierarchicalSync)
        assert isinstance(alg.inter_node, HCA3Sync)
        assert isinstance(alg.intra_node, ClockPropagationSync)
        assert alg.inter_socket is None

    def test_top_mid_bottom(self):
        alg = algorithm_from_label(
            "Top/hca3/100/skampi_offset/10"
            "/Mid/hca2/50/skampi_offset/10"
            "/Bottom/ClockPropagation"
        )
        assert isinstance(alg.inter_socket, HCA2Sync)

    def test_missing_bottom_rejected(self):
        with pytest.raises(ConfigurationError):
            algorithm_from_label("Top/hca3/100/skampi_offset/10")

    def test_tokens_before_top_rejected(self):
        with pytest.raises(ConfigurationError):
            algorithm_from_label("hca3/Top/100/skampi_offset/10/Bottom/x")


class TestErrors:
    def test_unknown_algorithm(self):
        with pytest.raises(ConfigurationError):
            algorithm_from_label("warpspeed/100/skampi_offset/10")

    def test_unknown_offset(self):
        with pytest.raises(ConfigurationError):
            algorithm_from_label("hca3/100/quantum_offset/10")

    def test_bad_numeric(self):
        with pytest.raises(ConfigurationError):
            algorithm_from_label("hca3/many/skampi_offset/10")

    def test_wrong_arity(self):
        with pytest.raises(ConfigurationError):
            algorithm_from_label("hca3/100/skampi_offset")

    def test_clockprop_with_params_rejected(self):
        with pytest.raises(ConfigurationError):
            algorithm_from_label("clockpropagation/100")

    def test_empty_label(self):
        with pytest.raises(ConfigurationError):
            algorithm_from_label("")
