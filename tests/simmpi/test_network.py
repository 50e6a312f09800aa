"""Unit tests for the network model."""

import numpy as np
import pytest

from repro.simmpi.network import Level, LinkParams, NetworkModel
from tests.conftest import expected_delay, scalar_delay


class TestLinkParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinkParams(latency=-1.0, bandwidth=1e9)
        with pytest.raises(ValueError):
            LinkParams(latency=1e-6, bandwidth=0.0)
        with pytest.raises(ValueError):
            LinkParams(latency=1e-6, bandwidth=1e9, jitter_scale=-1.0)
        with pytest.raises(ValueError):
            LinkParams(latency=1e-6, bandwidth=1e9, outlier_prob=2.0)


class TestLevelFallback:
    def test_finer_levels_inherit_coarser(self):
        model = NetworkModel(
            levels={Level.REMOTE: LinkParams(latency=5e-6, bandwidth=1e9)}
        )
        for level in Level:
            assert model.params_for(level).latency == 5e-6

    def test_defined_levels_override(self):
        model = NetworkModel(
            levels={
                Level.NODE: LinkParams(latency=1e-6, bandwidth=1e9),
                Level.REMOTE: LinkParams(latency=5e-6, bandwidth=1e9),
            }
        )
        assert model.params_for(Level.REMOTE).latency == 5e-6
        assert model.params_for(Level.NODE).latency == 1e-6
        # SOCKET/SELF fall back to the finest defined (NODE).
        assert model.params_for(Level.SOCKET).latency == 1e-6

    def test_coarser_levels_fall_back_to_finest_defined(self):
        # Only SELF defined: coarser levels (SOCKET/NODE/REMOTE) have no
        # coarser source to inherit from and resolve to the finest
        # defined level instead.
        model = NetworkModel(
            levels={Level.SELF: LinkParams(latency=3e-7, bandwidth=5e9)}
        )
        for level in Level:
            assert model.params_for(level).latency == 3e-7

    def test_middle_gap_resolved_from_coarser(self):
        # SELF and REMOTE defined; the SOCKET/NODE gap inherits from the
        # next coarser defined level (REMOTE), not from SELF.
        model = NetworkModel(
            levels={
                Level.SELF: LinkParams(latency=3e-7, bandwidth=5e9),
                Level.REMOTE: LinkParams(latency=5e-6, bandwidth=1e9),
            }
        )
        assert model.params_for(Level.SOCKET).latency == 5e-6
        assert model.params_for(Level.NODE).latency == 5e-6
        assert model.params_for(Level.SELF).latency == 3e-7

    def test_empty_levels_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel(levels={})

    def test_negative_overhead_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel(
                levels={Level.REMOTE: LinkParams(1e-6, 1e9)}, o_send=-1.0
            )


class TestDelay:
    def _model(self, **kw):
        return NetworkModel(
            levels={Level.REMOTE: LinkParams(latency=2e-6, bandwidth=1e9, **kw)}
        )

    def test_deterministic_without_jitter(self):
        model = self._model()
        rng = np.random.default_rng(0)
        d = scalar_delay(model, Level.REMOTE, 1000, rng)
        assert d == pytest.approx(2e-6 + 1000 / 1e9)

    def test_size_scales_delay(self):
        model = self._model()
        rng = np.random.default_rng(0)
        small = scalar_delay(model, Level.REMOTE, 8, rng)
        big = scalar_delay(model, Level.REMOTE, 1 << 20, rng)
        assert big > small

    def test_jitter_is_nonnegative_addition(self):
        model = self._model(jitter_scale=1e-6)
        rng = np.random.default_rng(0)
        delays = [
            scalar_delay(model, Level.REMOTE, 8, rng) for _ in range(1000)
        ]
        base = 2e-6 + 8 / 1e9
        assert min(delays) >= base
        assert np.mean(delays) == pytest.approx(base + 1e-6, rel=0.15)

    def test_outliers_appear_at_configured_rate(self):
        model = self._model(outlier_prob=0.1, outlier_scale=100e-6)
        rng = np.random.default_rng(1)
        delays = np.array(
            [scalar_delay(model, Level.REMOTE, 8, rng) for _ in range(5000)]
        )
        frac_large = float(np.mean(delays > 20e-6))
        assert 0.05 < frac_large < 0.15

    def test_delay_never_below_wire_time(self):
        # latency + size/bandwidth is a hard floor: jitter and outliers
        # only ever add on top of the deterministic LogGP wire time.
        model = self._model(
            jitter_scale=1e-6, outlier_prob=0.2, outlier_scale=50e-6
        )
        rng = np.random.default_rng(42)
        for size in (0, 8, 4096, 1 << 20):
            floor = 2e-6 + size / 1e9
            draws = [
                scalar_delay(model, Level.REMOTE, size, rng)
                for _ in range(2000)
            ]
            assert min(draws) >= floor

    def test_negative_size_rejected_at_send_construction(self):
        # Validation moved out of the per-message delay() hot path: a
        # negative size can never reach the network model because SendCmd
        # construction rejects it (see engine.SendCmd.__post_init__).
        from repro.errors import SimulationError
        from repro.simmpi.engine import SendCmd

        with pytest.raises(SimulationError):
            SendCmd(dest=1, tag=0, size=-1)

    def test_pooled_delay_matches_scalar(self):
        # delay_from_pool() must consume uniforms in the scalar
        # reference's order: identical seeds -> bit-identical delay
        # sequences, for any pool chunk size.  1,500 delays draw ~3,400 uniforms, past the
        # ramp (960) and into capped refills at DEFAULT_CHUNK.
        from repro.simmpi.rngpool import DEFAULT_CHUNK, UniformPool

        model = self._model(
            jitter_scale=1e-6, outlier_prob=0.3, outlier_scale=40e-6
        )
        for chunk in (1, 7, 256, DEFAULT_CHUNK):
            scalar_rng = np.random.default_rng(123)
            pool = UniformPool(np.random.default_rng(123), chunk=chunk)
            scalar = [
                scalar_delay(model, Level.REMOTE, 64, scalar_rng)
                for _ in range(1500)
            ]
            pooled = [
                model.delay_from_pool(Level.REMOTE, 64, pool)
                for _ in range(1500)
            ]
            assert scalar == pooled
            # Raw draws are Python floats (an np.float64 would change
            # reprs, and with them fingerprints), bit for bit the scalar's.
            draws = [pool.next() for _ in range(DEFAULT_CHUNK)]
            assert all(type(x) is float for x in draws)
            assert draws == [scalar_rng.random() for _ in draws]

    def test_direct_reads_interleave_with_next(self):
        # A reader that indexes ``buf`` from ``idx`` itself, calls
        # ``refill()`` when it finds the buffer drained and stores its
        # cursor back (the engine's exchange loop), mixed with ``next()``
        # in any order, draws the scalar stream for any chunk cap.  Its
        # refills are next()'s: on the ramp, and only once the buffer is
        # drained, so the pool holds no more variates than before.
        from repro.simmpi.rngpool import DEFAULT_CHUNK, RAMP_START, UniformPool

        order = np.random.default_rng(5)
        for chunk in (1, 7, 256, DEFAULT_CHUNK):
            scalar_rng = np.random.default_rng(123)
            pool = UniformPool(np.random.default_rng(123), chunk=chunk)
            drawn, bufs = [], [pool.buf]
            while len(drawn) < 3000:
                turn = int(order.integers(0, 9))
                if order.random() < 0.5:
                    for _ in range(turn):
                        drawn.append(pool.next())
                        if pool.buf is not bufs[-1]:
                            bufs.append(pool.buf)
                    continue
                buf, idx, end = pool.buf, pool.idx, len(pool.buf)
                for _ in range(turn):
                    if idx == end:
                        buf, idx, end = pool.refill()
                        bufs.append(buf)
                    drawn.append(buf[idx])
                    idx += 1
                pool.idx = idx
            assert all(type(x) is float for x in drawn)
            assert drawn == [scalar_rng.random() for _ in drawn]
            sizes = [len(buf) for buf in bufs[1:]]
            ramp = [min(RAMP_START, chunk)]
            while len(ramp) < len(sizes):
                ramp.append(min(ramp[-1] * 2, chunk))
            assert sizes == ramp
            assert sum(sizes[:-1]) < len(drawn) <= sum(sizes)

    def test_expected_delay_matches_empirical(self):
        model = self._model(jitter_scale=0.5e-6)
        rng = np.random.default_rng(2)
        delays = [
            scalar_delay(model, Level.REMOTE, 64, rng) for _ in range(20000)
        ]
        assert np.mean(delays) == pytest.approx(
            expected_delay(model, Level.REMOTE, 64), rel=0.05
        )
