import math
import tracemalloc

import numpy as np
import pytest

from spinphase.errors import UnitarityLoss
from spinphase.model import ModelParams, period_tau
from spinphase.pipeline import (
    CHUNK_POINTS,
    SweepSpec,
    model_trace,
    model_traces,
    phase_point,
    phase_points,
    run_sweep,
    thermal_companions,
)

FLAGSHIP = ModelParams(V=1.0, muB=0.5, omega=0.6, beta=1.0)


class TestModelTraces:
    def test_default_final_time_is_tau(self):
        trace = model_trace(FLAGSHIP, steps=256)
        assert trace.t_final == pytest.approx(period_tau(FLAGSHIP), abs=1e-12)

    def test_explicit_final_time(self):
        trace = model_trace(FLAGSHIP, steps=256, t_final=2.5)
        assert trace.t_final == pytest.approx(2.5, abs=1e-12)

    def test_family_order_matches_input(self):
        pts = [FLAGSHIP, ModelParams(V=0.7, muB=0.3, omega=1.1, beta=2.0)]
        traces = model_traces(pts, steps=256)
        for p, trace in zip(pts, traces):
            assert trace.t_final == pytest.approx(period_tau(p), abs=1e-12)

    def test_points_differing_only_in_beta_share_one_trace(self):
        hot = ModelParams(V=1.0, muB=0.5, omega=0.6, beta=0.0)
        traces = model_traces([hot, FLAGSHIP, ModelParams(V=0.7, muB=0.5, omega=0.6)], 256)
        assert traces[0] is traces[1]
        assert traces[2] is not traces[0]
        alone = model_trace(FLAGSHIP, steps=256)
        np.testing.assert_array_equal(traces[1].U, alone.U)
        np.testing.assert_array_equal(traces[1].delta, alone.delta)

    def test_basis_is_frozen_initial_eigenbasis(self):
        trace = model_trace(FLAGSHIP, steps=256)
        from spinphase.model import eigenbasis_matrix, eigensystem

        np.testing.assert_array_equal(
            trace.basis, eigenbasis_matrix(eigensystem(FLAGSHIP, 0.0))
        )


class TestStreaming:
    """Endpoint traces and point chunks change no value, not even in the last bit."""

    @pytest.mark.parametrize("steps", [2, 65, 128, 1025])
    def test_endpoint_is_last_row_of_full_grid(self, steps):
        pts = [FLAGSHIP, ModelParams(V=0.7, muB=0.3, omega=1.1, beta=2.0)]
        ends = model_traces(pts, steps, t_final=0.1)
        fulls = model_traces(pts, steps, t_final=0.1, full_grid=True)
        for end, full in zip(ends, fulls):
            assert full.U.shape[0] == steps + 1
            assert end.U.shape[0] == 2
            for name in ("grid", "U", "delta"):
                rows = getattr(full, name)[[0, -1]]
                assert getattr(end, name).tobytes() == rows.tobytes(), name
            assert end.basis.tobytes() == full.basis.tobytes()

    def test_family_wider_than_a_chunk_matches_single_points(self):
        n = CHUNK_POINTS + 3
        pts = [ModelParams(V=1.0, muB=0.5, omega=0.1 + 1.9 * i / n, beta=1.0) for i in range(n)]
        family = model_traces(pts, 64)
        for p, member in zip(pts, family):
            alone = model_traces([p], 64)[0]
            assert member.U.tobytes() == alone.U.tobytes()
            assert member.delta.tobytes() == alone.delta.tobytes()


class TestMemory:
    def test_peak_does_not_grow_with_points(self):
        def peak(points):
            spec = SweepSpec(
                axis="omega", start=0.1, stop=2.0, points=points, fixed=FLAGSHIP, steps=64
            )
            tracemalloc.start()
            try:
                run_sweep(spec)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(1000), peak(4000)
        assert large < 1.2 * small, (small, large)


class TestPhasePoint:
    def test_matches_family_of_one(self):
        single = phase_point(FLAGSHIP, steps=512)
        family = phase_points([FLAGSHIP], steps=512)[0]
        assert single == family

    def test_carries_weights_and_frequencies(self):
        point = phase_point(FLAGSHIP, steps=512)
        assert point.lambda1 == pytest.approx(0.195570317493, abs=1e-12)
        assert point.omega_eff == pytest.approx(1.077032961427, abs=1e-12)
        assert point.tau == pytest.approx(5.833791102229, abs=1e-12)
        assert point.undefined == ()

    def test_undefined_phase_reported_not_raised(self):
        p = ModelParams(V=0.0, muB=math.sqrt(3) / 2, omega=1.0, beta=1.0)
        point = phase_point(p, steps=2048)
        assert point.diag is None
        assert "diagonal" in point.undefined
        assert abs(point.diag_raw) <= 1e-12
        assert point.offdiag is not None

    def test_equal_weights_at_infinite_temperature(self):
        point = phase_point(
            ModelParams(V=1.0, muB=0.5, omega=0.6, beta=0.0), steps=512
        )
        assert point.lambda1 == 0.5
        assert point.offdiag is not None


    def test_batch_assembly_matches_per_trace_functions(self):
        from spinphase.engine import diagonal_phase_argument, offdiagonal_trace

        pts = [FLAGSHIP, ModelParams(V=0.7, muB=0.3, omega=1.1, beta=2.0)]
        for p, point, trace in zip(pts, phase_points(pts, steps=512), model_traces(pts, 512)):
            companions = thermal_companions(p, trace.basis)
            assert point.diag_raw == diagonal_phase_argument(trace, companions[0])
            assert point.offdiag_raw == offdiagonal_trace(trace, companions, 2)


class TestThermalEnsemble:
    def test_weights_and_basis(self):
        basis = model_trace(FLAGSHIP, steps=256).basis
        e, companion = thermal_companions(FLAGSHIP, basis)
        assert e.weights[0] == pytest.approx(0.195570317493, abs=1e-12)
        assert e.weights.sum() == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_array_equal(companion.weights, e.weights[::-1])
        np.testing.assert_array_equal(e.basis, basis)
        gram = e.basis.conj().T @ e.basis
        assert np.linalg.norm(gram - np.eye(2)) <= 1e-12


class TestSweepSpec:
    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            SweepSpec(axis="gamma", start=0, stop=1, points=3, fixed=FLAGSHIP)

    def test_rejects_reversed_range(self):
        with pytest.raises(ValueError):
            SweepSpec(axis="beta", start=1, stop=0, points=3, fixed=FLAGSHIP)

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            SweepSpec(axis="beta", start=0, stop=1, points=1, fixed=FLAGSHIP)

    @pytest.mark.parametrize("start, stop", [(0.0, math.inf), (math.nan, 1.0), (-math.inf, 1.0)])
    def test_rejects_non_finite_bounds(self, start, stop):
        with pytest.raises(ValueError, match="start and stop must be finite"):
            SweepSpec(axis="V", start=start, stop=stop, points=3, fixed=FLAGSHIP)

    def test_params_at_overrides_only_axis(self):
        spec = SweepSpec(axis="omega", start=0.1, stop=2.0, points=5, fixed=FLAGSHIP)
        p = spec.params_at(1.7)
        assert p.omega == 1.7
        assert (p.V, p.muB, p.beta) == (FLAGSHIP.V, FLAGSHIP.muB, FLAGSHIP.beta)

    def test_grid_is_strictly_increasing(self):
        spec = SweepSpec(axis="V", start=0.5, stop=2.0, points=7, fixed=FLAGSHIP)
        assert np.all(np.diff(spec.grid()) > 0)


class TestRunSweep:
    def test_row_count_and_order(self):
        spec = SweepSpec(
            axis="beta", start=0.0, stop=2.0, points=5, fixed=FLAGSHIP, steps=512
        )
        rows = run_sweep(spec)
        assert [r.axis_value for r in rows] == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_rows_match_single_point_pipeline(self):
        spec = SweepSpec(
            axis="beta", start=0.5, stop=1.5, points=3, fixed=FLAGSHIP, steps=512
        )
        rows = run_sweep(spec)
        for row in rows:
            point = phase_point(spec.params_at(row.axis_value), steps=512)
            assert row.lambda1 == point.lambda1
            assert row.delta1 == point.delta1
            assert row.diag_phase == point.diag.arg

    def test_family_matches_params_at(self):
        spec = SweepSpec(axis="muB", start=0.0, stop=2.0, points=7, fixed=FLAGSHIP)
        family = spec.family()
        for i, value in enumerate(spec.grid()):
            p = spec.params_at(value)
            assert (family.V[i], family.muB[i], family.omega[i], family.beta[i]) == (
                p.V, p.muB, p.omega, p.beta
            )


class TestRefusedPoints:
    """Points past RK4's stability bound get their own verdict, as degenerate ones do."""

    SPEC = dict(axis="muB", start=0.1, stop=100.0, points=5, fixed=FLAGSHIP, steps=64, t_final=10.0)

    def test_refused_rows_are_empty_and_the_others_computed(self):
        rows = run_sweep(SweepSpec(**self.SPEC))
        assert rows[0].error is None
        alone = phase_point(ModelParams(V=1.0, muB=0.1, omega=0.6, beta=1.0), 64, 10.0)
        assert rows[0].delta1 == alone.delta1
        assert rows[0].diag_arg_re == alone.diag_raw.real
        for row in rows[1:]:
            assert row.error.startswith("UnitarityLoss: dt*|H| = ")
            assert row.lambda1 is None and row.diag_phase is None

    def test_every_point_refused_raises_the_first(self):
        spec = SweepSpec(**{**self.SPEC, "start": 30.0})
        with pytest.raises(UnitarityLoss, match="needs at least 107 steps"):
            run_sweep(spec)

    def test_phase_points_return_the_refusal_in_place(self):
        ok = ModelParams(V=1.0, muB=0.1, omega=0.6, beta=1.0)
        refused = ModelParams(V=1.0, muB=50.0, omega=0.6, beta=1.0)
        mixed = phase_points([ok, refused], 64, 10.0)
        assert isinstance(mixed[1], UnitarityLoss)
        assert mixed[0] == phase_point(ok, 64, 10.0)
        with pytest.raises(UnitarityLoss):
            phase_point(refused, 64, 10.0)
        with pytest.raises(UnitarityLoss):
            model_trace(refused, 64, 10.0)
