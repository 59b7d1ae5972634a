import math
import tracemalloc
import warnings

import numpy as np
import pytest

from support import (
    Ensemble,
    diagonal_phase_argument,
    model_family_traces,
    offdiagonal_trace,
    period_tau,
    shift_ensembles,
)

from spinphase import pipeline
from spinphase.engine import PropagatorTrace, parallel_transported
from spinphase.errors import DegenerateFrame, UndefinedPhase, UnitarityLoss
from spinphase.linalg import phase_functional
from spinphase.model import ModelParams, PointFamily
from spinphase.pipeline import (
    CHUNK_POINTS,
    SweepSpec,
    model_trace,
    model_traces,
    phase_point,
    phase_points,
    run_sweep,
)
from spinphase.verify import random_generic_params

FLAGSHIP = ModelParams(V=1.0, muB=0.5, omega=0.6, beta=1.0)


def point_at(spec: SweepSpec, value: float) -> ModelParams:
    """The sweep's point at one axis value."""
    return ModelParams(**{**vars(spec.fixed), spec.axis: float(value)})


def assert_same_row(table, i, other, j=0):
    """Row ``i`` of ``table`` and row ``j`` of ``other`` hold the same error and the same bits."""
    assert repr(table.errors[i]) == repr(other.errors[j])
    for name, column in vars(table).items():
        if name != "errors":
            assert column[i].tobytes() == getattr(other, name)[j].tobytes(), name


class TestModelTraces:
    def test_default_final_time_is_tau(self):
        trace = model_trace(FLAGSHIP, steps=256)
        assert trace.grid[-1] == pytest.approx(period_tau(FLAGSHIP), abs=1e-12)

    def test_explicit_final_time(self):
        trace = model_trace(FLAGSHIP, steps=256, t_final=2.5)
        assert trace.grid[-1] == pytest.approx(2.5, abs=1e-12)

    def test_family_order_matches_input(self):
        pts = [FLAGSHIP, ModelParams(V=0.7, muB=0.3, omega=1.1, beta=2.0)]
        traces = model_traces(PointFamily.of(pts), steps=256)
        for p, trace in zip(pts, traces):
            assert trace.grid[-1] == pytest.approx(period_tau(p), abs=1e-12)

    def test_points_differing_only_in_beta_share_one_trace(self):
        hot = ModelParams(V=1.0, muB=0.5, omega=0.6, beta=0.0)
        traces = model_traces(
            PointFamily.of([hot, FLAGSHIP, ModelParams(V=0.7, muB=0.5, omega=0.6)]), 256
        )
        assert traces[0] is traces[1]
        assert traces[2] is not traces[0]
        alone = model_trace(FLAGSHIP, steps=256)
        np.testing.assert_array_equal(traces[1].U, alone.U)
        np.testing.assert_array_equal(traces[1].delta, alone.delta)

    def test_basis_is_frozen_initial_eigenbasis(self):
        trace = model_trace(FLAGSHIP, steps=256)
        np.testing.assert_array_equal(trace.basis, PointFamily.of([FLAGSHIP]).eigenbasis(0.0)[0])


class TestStreaming:
    """Endpoint traces and point chunks change no value, not even in the last bit."""

    # A trajectory's grid of rows is taken at chosen times, as the endpoint traces of
    # one family with one member per time.

    @pytest.mark.parametrize("steps", [2, 65, 128, 1025, 513, 640, 1536, 4097])
    def test_endpoint_is_last_row_of_full_grid(self, steps):
        # The V = 1e307 point runs over a time short enough for RK4's bound.
        pts = [FLAGSHIP, ModelParams(V=0.7, muB=0.3, omega=1.1, beta=2.0),
               ModelParams(V=1e307, muB=1.0, omega=0.6, beta=1.0)]
        t_final = np.array([0.1, 0.1, 2e-308])
        ends = model_traces(PointFamily.of(pts), steps, t_final)
        fractions = [0.25, 0.5, 1.0]  # the rows at T / 4, T / 2 and T
        rows = model_family_traces([p for p in pts for _ in fractions], steps, np.outer(t_final, fractions).ravel())
        assert all(isinstance(trace, PropagatorTrace) for trace in ends + rows)
        # delta_1 = -E1 t with E1 = V/2, which an unscaled Simpson sum overflows; at
        # 2 steps RK4 shrinks |U|^2 by (dt E1)^6 / 72 = 2e-10.
        assert ends[2].delta[-1, 0] == pytest.approx(-0.5e307 * 2e-308, rel=1e-9)
        for end, last in zip(ends, rows[len(fractions) - 1 :: len(fractions)], strict=True):
            assert end.U.shape[0] == 2
            np.testing.assert_array_equal(end.U[0], np.eye(2))
            np.testing.assert_array_equal(end.delta[0], np.zeros(2))
            for name in ("grid", "U", "delta", "basis"):
                assert getattr(end, name).tobytes() == getattr(last, name).tobytes(), name

    @pytest.mark.parametrize("steps", [2, 65, 4097])
    def test_full_grid_rows_stay_finite_near_the_float_maximum(self, steps):
        # |H| = 8.5e307: G itself is finite, three unscaled Simpson samples are not.
        point = ModelParams(V=1.7e308, muB=1.0, omega=0.6, beta=1.0)
        rows = model_family_traces([point] * 4, steps, 2e-309 * np.arange(1, 5) / 4)
        assert all(isinstance(row, PropagatorTrace) for row in rows)
        delta = np.stack([row.delta[-1] for row in rows])
        assert np.all(np.isfinite(delta))
        # delta_1 = -E1 t; at 2 steps RK4 shrinks |U|^2 by (dt E1)^6 / 72 = 5e-9.
        np.testing.assert_allclose(delta[:, 0], -0.85e308 * np.array([row.grid[-1] for row in rows]), rtol=1e-8)

    def test_family_wider_than_a_chunk_matches_single_points(self):
        n = CHUNK_POINTS + 3
        pts = [ModelParams(V=1.0, muB=0.5, omega=0.1 + 1.9 * i / n, beta=1.0) for i in range(n)]
        table = phase_points(PointFamily.of(pts), 64)
        for i, p in enumerate(pts):
            assert_same_row(table, i, phase_point(p, 64))


class TestPlan:
    """``phase_points`` triages once: its chunks get final times and no degenerate point."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("t_final", [None, 2.5])
    def test_chunks_get_the_planned_final_times(self, monkeypatch, cpus, t_final):
        pts = [ModelParams(V=1.0, muB=0.5, omega=w, beta=1.0) for w in np.linspace(0.1, 2.0, 200)]
        pts[50:50] = [ModelParams(V=1.0, muB=0.5, omega=0.6, beta=b) for b in (0.0, 1.0, 2.0)]
        pts[100:100] = [ModelParams(V=1.0, muB=0.0, omega=1.0)]  # no period
        pts[150:150] = [ModelParams(V=0.0, muB=0.0, omega=0.5)]  # no eigenbasis
        family = PointFamily.of(pts)
        calls = []

        def spy(chunk, steps, finals):
            calls.append((chunk, finals))
            return model_traces(chunk, steps, finals)

        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(pipeline, "model_traces", spy)
        table = phase_points(family, 64, t_final)
        assert len(calls) == cpus
        for chunk, finals in calls:
            assert isinstance(finals, np.ndarray)
            expected = chunk.tau if t_final is None else np.full(len(chunk.V), t_final)
            assert finals.tobytes() == expected.tobytes()
            assert not np.any(chunk.spectrum_degenerate | chunk.frame_degenerate)
        degenerate = [100, 150]
        assert sum(len(chunk.V) for chunk, _ in calls) == len(pts) - len(degenerate)
        assert [i for i, error in enumerate(table.errors) if error is not None] == degenerate

    @pytest.mark.parametrize("n, workers", [(63, 1), (64, 1), (127, 1), (128, 2)])
    def test_a_worker_thread_gets_at_least_64_trajectories(self, monkeypatch, n, workers):
        family = PointFamily.of([ModelParams(V=1.0, muB=0.5, omega=w, beta=1.0) for w in np.linspace(0.1, 2.0, n)])
        calls = []

        def spy(chunk, steps, finals):
            calls.append(len(chunk.V))
            return model_traces(chunk, steps, finals)

        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(pipeline, "model_traces", spy)
        phase_points(family, 64)
        assert len(calls) == workers  # at most 512 trajectories: one chunk per worker
        assert sum(calls) == n


class TestMemory:
    def test_peak_does_not_grow_with_points(self, monkeypatch):
        def peak(points, cpus):
            monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
            spec = SweepSpec(
                axis="omega", start=0.1, stop=2.0, points=points, fixed=FLAGSHIP, steps=64
            )
            tracemalloc.start()
            try:
                run_sweep(spec)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # The reference is the serial peak.  Split across threads, a chunk's parts
        # hold their temporaries at times that vary from run to run, so a threaded
        # peak lies anywhere from about half the serial one to all of it.
        small = peak(1000, 1)
        for cpus in (1, 2):
            large = peak(4000, cpus)
            assert large < 1.2 * small, (cpus, small, large)

    def test_peak_of_long_trajectories_stays_small(self):
        # 25 points x 16384 steps: 32 segments each, in waves of 10 segments (250 members)
        # that step in 8-step sub-blocks, then one wave of 2 segments (50 members).
        points = PointFamily.of(random_generic_params(25, 4))
        model_traces(points[:1], 1024)  # leave one-time allocations out of the peak
        tracemalloc.start()
        try:
            model_traces(points, 16384)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak


class TestPhasePoint:
    def test_matches_family_of_one(self):
        single = phase_point(FLAGSHIP, steps=512)
        family = phase_points(PointFamily.of([FLAGSHIP]), steps=512)
        assert_same_row(single, 0, family)

    def test_carries_weights_and_frequencies(self):
        point = phase_point(FLAGSHIP, steps=512)
        assert point.weights[0, 0] == pytest.approx(0.195570317493, abs=1e-12)
        assert point.omega_eff[0] == pytest.approx(1.077032961427, abs=1e-12)
        assert point.tau[0] == pytest.approx(5.833791102229, abs=1e-12)
        phase_functional(point.diag_raw[0])  # both phases defined
        phase_functional(point.offdiag_raw[0])

    def test_undefined_phase_reported_not_raised(self):
        p = ModelParams(V=0.0, muB=math.sqrt(3) / 2, omega=1.0, beta=1.0)
        point = phase_point(p, steps=2048)
        with pytest.raises(UndefinedPhase):
            phase_functional(point.diag_raw[0])
        assert abs(point.diag_raw[0]) <= 1e-12
        phase_functional(point.offdiag_raw[0])

    def test_equal_weights_at_infinite_temperature(self):
        point = phase_point(
            ModelParams(V=1.0, muB=0.5, omega=0.6, beta=0.0), steps=512
        )
        assert point.weights[0, 0] == 0.5
        phase_functional(point.offdiag_raw[0])

    def test_u_par_is_the_transport_of_its_own_trace(self):
        point = phase_point(FLAGSHIP, steps=512)
        trace = model_trace(FLAGSHIP, 512)
        assert point.u_final[0].tobytes() == trace.U[-1].tobytes()
        assert point.basis[0].tobytes() == trace.basis.tobytes()
        np.testing.assert_array_equal(
            point.u_par[0], parallel_transported(trace.U[-1], trace.delta[-1], trace.basis)
        )

    def test_batch_assembly_matches_per_trace_functions(self):
        # Pins the per-trace functions the acceptance suite uses to the one batched path.
        pts = PointFamily.of([FLAGSHIP, ModelParams(V=0.7, muB=0.3, omega=1.1, beta=2.0)])
        table, traces = phase_points(pts, steps=512), model_traces(pts, 512)
        for i, (w, trace) in enumerate(zip(pts.weights, traces)):
            companions = shift_ensembles(Ensemble(basis=trace.basis, weights=w))
            assert table.diag_raw[i] == diagonal_phase_argument(trace, companions[0])
            assert table.offdiag_raw[i] == offdiagonal_trace(trace, companions, 2)


class TestThermalEnsemble:
    def test_weights_and_basis(self):
        basis = model_trace(FLAGSHIP, steps=256).basis
        weights = PointFamily.of([FLAGSHIP]).weights[0]
        e, companion = shift_ensembles(Ensemble(basis=basis, weights=weights))
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

    def test_rejects_a_grid_point_whose_omega_overflows(self):
        # Only the last point, muB = 1e308, has 2 muB past the float range.
        with pytest.raises(ValueError, match=r"^Omega or E1 is not finite at V = 1, muB = 1e\+308"):
            SweepSpec(axis="muB", start=1.0, stop=1e308, points=3, fixed=FLAGSHIP)

    @pytest.mark.parametrize("axis", ["beta", "muB"])
    def test_rejects_a_negative_grid_point(self, axis):
        # The grid is -1, 0, 1: only its first point is invalid.
        with pytest.raises(ValueError, match=rf"^{axis} must be >= 0, got -1\.0$"):
            SweepSpec(axis=axis, start=-1.0, stop=1.0, points=3, fixed=FLAGSHIP)

    @pytest.mark.parametrize("axis", ["omega", "muB"])
    def test_family_overrides_only_the_axis(self, axis):
        spec = SweepSpec(axis=axis, start=0.0, stop=2.0, points=7, fixed=FLAGSHIP)
        family = spec.family()
        assert getattr(family, axis).tobytes() == spec.grid().tobytes()
        for name in {"V", "muB", "omega", "beta"} - {axis}:
            assert getattr(family, name).tolist() == [getattr(FLAGSHIP, name)] * 7, name

    def test_grid_is_strictly_increasing(self):
        spec = SweepSpec(axis="V", start=0.5, stop=2.0, points=7, fixed=FLAGSHIP)
        assert np.all(np.diff(spec.grid()) > 0)

    def test_rejects_a_range_that_overflows(self):
        # Both bounds are finite, but stop - start is not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^stop - start must be finite"):
                SweepSpec(axis="V", start=-1.7e308, stop=1.7e308, points=3, fixed=FLAGSHIP)

    def test_rejects_a_grid_that_rounds_to_repeated_points(self):
        # np.linspace rounds the middle point of [0, 5e-324] to 0.
        with pytest.raises(ValueError, match="do not make a strictly increasing grid"):
            SweepSpec(axis="V", start=0.0, stop=5e-324, points=3, fixed=FLAGSHIP)


class TestRunSweep:
    def test_row_count_and_order(self):
        spec = SweepSpec(
            axis="beta", start=0.0, stop=2.0, points=5, fixed=FLAGSHIP, steps=512
        )
        table = run_sweep(spec)
        assert len(table.errors) == 5
        expected = PointFamily.of([point_at(spec, v) for v in [0.0, 0.5, 1.0, 1.5, 2.0]])
        assert table.weights.tobytes() == expected.weights.tobytes()

    def test_rows_match_single_point_pipeline(self):
        spec = SweepSpec(
            axis="beta", start=0.5, stop=1.5, points=3, fixed=FLAGSHIP, steps=512
        )
        table = run_sweep(spec)
        for i, value in enumerate(spec.grid()):
            point = phase_point(point_at(spec, value), steps=512)
            assert table.weights[i, 0] == point.weights[0, 0]
            assert table.delta[i, 0] == point.delta[0, 0]
            assert table.diag_raw[i] == point.diag_raw[0]

    def test_rows_across_a_chunk_edge_match_their_own_points(self):
        # muB = 0 at V = omega = 0 is degenerate, so every chunk's members sit
        # one place off the grid.
        fixed = ModelParams(V=0.0, muB=0.5, omega=0.0, beta=1.0)
        spec = SweepSpec(axis="muB", start=0.0, stop=1.0, points=CHUNK_POINTS + 3, fixed=fixed,
                         steps=64)
        table = run_sweep(spec)
        assert isinstance(table.errors[0], DegenerateFrame)
        assert np.isnan(table.diag_raw[0])
        for i, value in enumerate(spec.grid()[1:], start=1):
            assert_same_row(table, i, phase_point(point_at(spec, value), 64))


class TestRefusedPoints:
    """Points past RK4's stability bound get their own verdict, as degenerate ones do."""

    SPEC = dict(axis="muB", start=0.1, stop=100.0, points=5, fixed=FLAGSHIP, steps=64, t_final=10.0)

    def test_refused_rows_are_empty_and_the_others_computed(self):
        table = run_sweep(SweepSpec(**self.SPEC))
        assert table.errors[0] is None
        alone = phase_point(ModelParams(V=1.0, muB=0.1, omega=0.6, beta=1.0), 64, 10.0)
        assert table.delta[0, 0] == alone.delta[0, 0]
        assert table.diag_raw[0].real == alone.diag_raw[0].real
        for i in range(1, 5):
            assert isinstance(table.errors[i], UnitarityLoss)
            assert str(table.errors[i]).startswith("dt*|H| = ")
            assert np.isnan(table.weights[i, 0]) and np.isnan(table.diag_raw[i])

    def test_every_point_refused_raises_the_largest_count(self):
        # muB = 30, 65 and 100 need 107, 231 and 354 steps.
        spec = SweepSpec(**{**self.SPEC, "start": 30.0})
        with pytest.raises(UnitarityLoss, match="needs at least 354 steps"):
            run_sweep(spec)

    def test_phase_points_return_the_refusal_in_place(self):
        ok = ModelParams(V=1.0, muB=0.1, omega=0.6, beta=1.0)
        refused = ModelParams(V=1.0, muB=50.0, omega=0.6, beta=1.0)
        mixed = phase_points(PointFamily.of([ok, refused]), 64, 10.0)
        assert isinstance(mixed.errors[1], UnitarityLoss)
        assert_same_row(mixed, 0, phase_point(ok, 64, 10.0))
        with pytest.raises(UnitarityLoss):
            phase_point(refused, 64, 10.0)
        with pytest.raises(UnitarityLoss):
            model_trace(refused, 64, 10.0)
