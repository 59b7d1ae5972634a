import math
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest

from support import (
    Ensemble,
    circular_distance,
    diagonal_mixed_phase,
    diagonal_phase_argument,
    distinct_weights,
    exact_delta1,
    identity_bases,
    integrate_propagator,
    model_family_traces,
    offdiag_trace_expansion,
    offdiagonal_mixed_phase,
    offdiagonal_trace,
    parallel_transport_residual,
    parallel_transported,
    period_tau,
    piecewise_constant_h,
    point_hamiltonian,
    random_hermitian,
    random_unitary,
    rk4_reference,
    shift_ensembles,
    shift_operator,
    smooth_random_family,
)

from spinphase import engine
from spinphase.engine import PropagatorTrace, cumulative_simpson, integrate_sampled_family
from spinphase.errors import UndefinedPhase, UnitarityLoss
from spinphase.linalg import su2_exponential
from spinphase.model import (
    Convention,
    ModelParams,
    PointFamily,
    closed_form_propagator,
    hamiltonian,
)
from spinphase.pipeline import model_trace, model_traces
from spinphase.verify import random_generic_params

FLAGSHIP = ModelParams(V=1.0, muB=0.5, omega=0.6, beta=1.0)

# frozen from 40-digit evaluation of the derived closed forms
FLAGSHIP_DELTA1 = -3.485009468485880118
FLAGSHIP_DIAG_RAW = 0.066303320213127464 + 0.435457389852753100j
FLAGSHIP_DIAG_ARG = 1.419695549041162181
FLAGSHIP_OFFDIAG_RAW = -0.886375454070251690


def thermal_ensemble(p):
    family = PointFamily.of([p])
    return Ensemble(basis=family.eigenbasis()[0], weights=family.weights[0])


def constant_h(matrix):
    def h_of_t(times):
        return np.broadcast_to(matrix, (len(times),) + matrix.shape).copy()

    return h_of_t


def analytic_delta1(p):
    """Closed form for delta1 over one full period.

    The Heisenberg image of the lab generator precesses about the rotating
    frame axis; over a full period only its component along that axis
    survives the time average.
    """
    family = PointFamily.of([p])
    d = family.gap[1][0]
    n2 = d * d + p.muB * p.muB
    b = p.muB
    sx = -2.0 * b * d / n2
    sz = (b * b - d * d) / n2
    omega_eff = family.omega_eff[0]
    tau = period_tau(p)
    h_rot = b * sx + 0.5 * (p.V - p.omega) * sz
    axis_z = (p.V - p.omega) / omega_eff
    axis_exp = (2.0 * b * sx + (p.V - p.omega) * sz) / omega_eff
    return -tau * (h_rot + 0.5 * p.omega * axis_z * axis_exp)


class TestIntegrator:
    def test_constant_generator_matches_exponential(self):
        h = constant_h(np.diag([0.5, -0.5]).astype(complex))
        trace = integrate_propagator(h, math.pi, 1000)
        exact = su2_exponential((0, 0, 0.5), math.pi)
        assert np.linalg.norm(trace.U[-1] - exact) <= 1e-12

    def test_fourth_order_convergence(self):
        h = constant_h(np.diag([0.25, -0.25]).astype(complex))
        exact = su2_exponential((0, 0, 0.25), math.pi)
        errors = {
            steps: np.linalg.norm(integrate_propagator(h, math.pi, steps).U[-1] - exact)
            for steps in (128, 256)
        }
        assert errors[128] / errors[256] >= 12.0

    def test_matches_closed_form_model_propagator(self):
        trace = model_trace(FLAGSHIP, steps=2048)
        tau = period_tau(FLAGSHIP)
        closed = closed_form_propagator(FLAGSHIP, tau, Convention.ODE)
        assert np.linalg.norm(trace.U[-1] - closed) <= 1e-6

    def test_trace_invariants(self):
        # The trajectory at 16 times up to tau, one endpoint trace each.
        times = period_tau(FLAGSHIP) * np.arange(1, 17) / 16
        for t_final, trace in zip(times, model_family_traces([FLAGSHIP] * 16, 1024, times)):
            np.testing.assert_array_equal(trace.U[0], np.eye(2))
            np.testing.assert_array_equal(trace.delta[0], np.zeros(2))
            assert trace.grid[0] == 0.0 and trace.grid[1] == pytest.approx(t_final, rel=1e-15)
            gram = np.einsum("mji,mjk->mik", trace.U.conj(), trace.U) - np.eye(2)
            assert np.linalg.norm(gram, axis=(1, 2)).max() <= 1e-9
            assert np.abs(trace.delta.sum(axis=1)).max() <= 1e-9

    def test_unitarity_loss_on_undersampling(self):
        h = constant_h(50.0 * np.array([[0, 1], [1, 0]], dtype=complex))
        with pytest.raises(UnitarityLoss):
            integrate_propagator(h, 10.0, 64)

    def test_rejects_bad_arguments(self):
        h = constant_h(np.eye(2, dtype=complex))
        with pytest.raises(ValueError):
            integrate_propagator(h, 1.0, 1)
        with pytest.raises(ValueError):
            integrate_propagator(h, 0.0, 16)

    def test_family_matches_single_runs(self):
        points = [FLAGSHIP, ModelParams(V=0.7, muB=0.3, omega=1.1, beta=2.0)]
        taus = [period_tau(p) for p in points]
        singles = [model_family_traces([p], 512)[0] for p in points]

        def per_point_h(times):
            return np.stack([point_hamiltonian(p, row) for p, row in zip(points, times)])

        bases = np.stack([s.basis for s in singles])
        family = integrate_sampled_family(per_point_h, taus, 512, bases)
        for single, member in zip(singles, family):
            np.testing.assert_array_equal(single.U, member.U)
            np.testing.assert_array_equal(single.delta, member.delta)


    def test_three_level_family_matches_single_runs(self):
        rng = np.random.default_rng(33)
        h = smooth_random_family(3, 5, rng)
        bases = np.stack([random_unitary(3, rng) for _ in range(5)])
        t_final = np.linspace(1.0, 3.0, 5)
        family = integrate_sampled_family(h, t_final, 256, bases)
        for j, member in enumerate(family):
            single = integrate_sampled_family(h[j : j + 1], t_final[j : j + 1], 256, bases[j : j + 1])[0]
            np.testing.assert_array_equal(single.U, member.U)
            np.testing.assert_array_equal(single.delta, member.delta)

    def test_three_level_family_matches_single_runs_in_segments(self):
        # 1500 steps: three segments of 500, one wave for the family and alone.
        rng = np.random.default_rng(34)
        h = smooth_random_family(3, 5, rng)
        bases = np.stack([random_unitary(3, rng) for _ in range(5)])
        t_final = np.linspace(1.0, 3.0, 5)
        family = integrate_sampled_family(h, t_final, 1500, bases)
        for j, member in enumerate(family):
            single = integrate_sampled_family(h[j : j + 1], t_final[j : j + 1], 1500, bases[j : j + 1])[0]
            np.testing.assert_array_equal(single.U, member.U)
            np.testing.assert_array_equal(single.delta, member.delta)

    def test_model_member_independent_of_batch_width(self):
        points = [
            ModelParams(V=0.5 + 0.01 * i, muB=0.5, omega=0.1 + 0.015 * i, beta=0.05 * i)
            for i in range(101)
        ]
        family = model_traces(PointFamily.of(points), 256)
        for j in (0, 57, 100):
            single = model_trace(points[j], 256)
            np.testing.assert_array_equal(single.U, family[j].U)
            np.testing.assert_array_equal(single.delta, family[j].delta)

    @pytest.mark.parametrize("steps", [-1, 0, 1])
    def test_family_rejects_fewer_than_two_steps(self, steps):
        h = constant_h(np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="steps must be >= 2"):
            integrate_sampled_family(h, [0.1, 0.1], steps, identity_bases(2, 2))


class TestPerMemberVerdict:
    """A refused member gets its own verdict and leaves the others bit-identical."""

    def check_others_unchanged(self, h, t_final, refused):
        steps, n = 128, h.a.shape[-1]
        family = integrate_sampled_family(h, t_final, steps, identity_bases(len(t_final), n))
        for j, member in enumerate(family):
            if j in refused:
                assert isinstance(member, UnitarityLoss)
                continue
            assert isinstance(member, PropagatorTrace)
            alone = integrate_sampled_family(h[[j]], t_final[[j]], steps, identity_bases(1, n))[0]
            assert member.U.tobytes() == alone.U.tobytes()
            assert member.delta.tobytes() == alone.delta.tobytes()
        return family

    def test_member_past_the_stability_bound(self):
        rng = np.random.default_rng(7)
        h = smooth_random_family(2, 4, rng)
        h.a[2] *= 1e3  # dt |H| far past 2 sqrt(2)
        family = self.check_others_unchanged(h, np.full(4, 2.0), refused={2})
        assert re.search(r"stability bound .*; needs at least \d+ steps", str(family[2]))

    def test_member_that_drifts(self):
        # dt |H| = 2 is under the bound, but RK4 shrinks |U| by far more than 1e-6.
        h = smooth_random_family(3, 3, np.random.default_rng(8))
        h.a[1], h.c[1], h.s[1] = np.diag([2.0, 0.0, -2.0]) * 64, 0.0, 0.0
        family = self.check_others_unchanged(h, np.full(3, 2.0), refused={1})
        assert "unitarity drift" in str(family[1])

    def test_member_that_overflows(self):
        # One of 16 levels carries |H|: dt |H|_F / 4 = 2.8 is under the bound,
        # but |S| is about 640, so the run overflows and its drift is NaN.
        n = 16
        spectra = np.zeros((2, n))
        spectra[0, 0] = 11.2
        spectra[1] = np.linspace(-0.01, 0.01, n)
        generators = np.stack([np.diag(s) for s in spectra]).astype(complex)

        def sampler(members):
            return lambda times: np.broadcast_to(generators[members, None], times.shape + (n, n))

        family = integrate_sampled_family(sampler([0, 1]), [64.0, 64.0], 64, identity_bases(2, n))
        assert isinstance(family[0], UnitarityLoss)
        assert str(family[0]) == "unitarity drift nan > 1e-06"
        alone = integrate_sampled_family(sampler([1]), [64.0], 64, identity_bases(1, n))[0]
        assert isinstance(family[1], PropagatorTrace)
        assert family[1].U.tobytes() == alone.U.tobytes()
        assert family[1].delta.tobytes() == alone.delta.tobytes()

    def test_single_runs_still_raise(self):
        h = constant_h(np.diag([128.0, -128.0]).astype(complex))
        with pytest.raises(UnitarityLoss, match="unitarity drift"):
            integrate_propagator(h, 2.0, 128)

    @pytest.mark.parametrize("t_final", [math.inf, math.nan, 0.0])
    def test_final_time_must_be_positive_and_finite(self, t_final):
        h = constant_h(np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="t_final must be positive and finite"):
            integrate_sampled_family(h, [1.0, t_final], 64, identity_bases(2, 2))

    def test_time_step_must_not_round_to_zero(self):
        # 1e-320 / 8192 underflows to 0.0, so no step would move the time.
        h = constant_h(np.eye(2, dtype=complex))
        message = "t_final = 1e-320 over 8192 steps rounds the time step to zero"
        with pytest.raises(ValueError, match=f"^{message}$"):
            integrate_sampled_family(h, [1.0, 1e-320], 8192, identity_bases(2, 2))


class TestTimeSegments:
    """Long trajectories run as time segments side by side, and the endpoints compose."""

    POINTS = random_generic_params(33, 4)

    def assert_same_bytes(self, a, b):
        assert a.U.tobytes() == b.U.tobytes()
        assert a.delta.tobytes() == b.delta.tobytes()

    @pytest.mark.parametrize(
        "steps, expected",
        [
            (2, [2]), (511, [511]), (512, [512]), (513, [256, 257]), (640, [320, 320]),
            (1025, [342, 342, 341]), (8192, [512] * 16), (4097, [456] * 5 + [454] * 3 + [455]),
        ],
    )
    def test_layout_depends_on_steps_alone(self, steps, expected):
        assert [length for _, length in engine._waves(steps, 1)] == expected

    @staticmethod
    def plan_cases():
        """Seeded step counts of every residue mod 1024, and MAX_STEPS, each with three widths in [1, 256]."""
        rng = np.random.default_rng(1024)
        counts = [2, 3] + [r + 1024 * int(rng.integers(1 if r < 2 else 0, 48)) for r in range(1024)]
        cases = [(steps, width) for steps in counts for width in (1, 256, int(rng.integers(1, 257)))]
        return cases + [(engine.MAX_STEPS, 256), (engine.MAX_STEPS, 229)]

    def test_waves_tile_the_trajectory(self):
        for steps, width in self.plan_cases():
            count = -(-steps // engine.SEGMENT_STEPS)
            end, seen = 0, 0  # the next segment's first half-step index, and the segments so far
            for origins, length in engine._waves(steps, width):
                assert type(length) is int and 1 <= len(origins) <= width, (steps, width)
                assert np.array_equal(origins, end + 2 * length * np.arange(len(origins))), (steps, width)
                assert length >= (256 if count > 1 else 2), (steps, width)
                end, seen = end + 2 * length * len(origins), seen + len(origins)
                odd = length % 2 == 1
                assert not odd or (seen == count and len(origins) == 1), (steps, width)
            assert (end, seen, odd) == (2 * steps, count, steps % 2 == 1), (steps, width)

    def test_planning_the_longest_run_holds_no_list_of_segments(self, monkeypatch):
        # MAX_STEPS is 4194304 segments of 512 steps: a per-segment plan held 128 MiB.
        class FirstCall(Exception):
            pass

        def first_call(*args):
            raise FirstCall

        monkeypatch.setattr(engine, "_integrate_segments", first_call)
        h = constant_h(np.eye(2, dtype=complex))
        tracemalloc.start()
        try:
            with pytest.raises(FirstCall):
                integrate_sampled_family(h, [1.0], engine.MAX_STEPS, identity_bases(1, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    def test_point_alone_equals_point_in_a_family(self):
        steps = 16384  # 32 segments; 25 points run in waves of 10 segments
        family = model_traces(PointFamily.of(self.POINTS[:25]), steps)
        for j in (0, 13, 24):
            self.assert_same_bytes(model_trace(self.POINTS[j], steps), family[j])

    def test_point_next_to_a_refused_member(self):
        steps = 4096
        point = self.POINTS[3]
        refused = ModelParams(V=1.0, muB=1e3, omega=0.6, beta=1.0)
        pair = model_traces(
            PointFamily.of([point, refused]), steps, t_final=[period_tau(point), 100.0]
        )
        assert isinstance(pair[0], PropagatorTrace)
        assert isinstance(pair[1], UnitarityLoss)
        self.assert_same_bytes(model_trace(point, steps), pair[0])

    def test_across_a_wave_edge(self):
        # 33 points x 16 segments run in two waves of 8 segments (264 members, in 8-step
        # sub-blocks); alone, in one 16-member wave.
        steps = 8192
        family = model_traces(PointFamily.of(self.POINTS), steps)
        for j in (0, 32):
            self.assert_same_bytes(model_trace(self.POINTS[j], steps), family[j])

    def test_matches_closed_forms_at_16384_steps(self):
        tau = period_tau(FLAGSHIP)
        end = model_trace(FLAGSHIP, steps=16384)
        closed = closed_form_propagator(FLAGSHIP, tau, Convention.ODE)
        assert np.linalg.norm(end.U[-1] - closed) <= 1e-10
        exact = exact_delta1(FLAGSHIP)
        assert np.abs(end.delta[-1] - (exact, -exact)).max() <= 1e-9

    def test_late_refusal_names_the_largest_ratio(self):
        # |H| grows as t^8: dt |H| passes 2 sqrt(2) only in the last of four segments.
        steps, t_final = 2048, 2.0

        def ramps(*slopes):
            def h_of_t(times):
                scale = 10.0 + np.array(slopes)[:, None] * (times / t_final) ** 8
                return scale[..., None, None] * np.diag([1.0, -1.0]).astype(complex)

            return h_of_t

        family = integrate_sampled_family(ramps(0.0, 3990.0), [t_final, t_final], steps, identity_bases(2, 2))
        assert isinstance(family[0], PropagatorTrace)
        assert isinstance(family[1], UnitarityLoss)
        # The largest ratio is at t = T: dt |H|_F / sqrt(2) = (2 / 2048) * 4000.
        needed = math.ceil(steps * (t_final / steps * 4000.0) / (2 * math.sqrt(2)))
        assert needed == 2829
        assert f"needs at least {needed} steps" in str(family[1])
        alone = integrate_sampled_family(ramps(0.0), [t_final], steps, identity_bases(1, 2))[0]
        self.assert_same_bytes(alone, family[0])

    def test_contractions_per_trajectory(self, monkeypatch):
        calls = []
        contract = engine._contract

        def counting(a, b, out=None):
            calls.append(1)
            return contract(a, b, out)

        monkeypatch.setattr(engine, "_contract", counting)
        steps = 8192
        model_trace(FLAGSHIP, steps)
        segments, waves = steps // engine.SEGMENT_STEPS, 1  # 16 segments of one point fill one wave
        blocks = engine.SEGMENT_STEPS // engine.PROJECTION_INTERVAL
        assert len(calls) <= engine.SEGMENT_STEPS + 5 * blocks * waves + 2 * segments


class TestWaveLayout:
    """Budget-sized waves in cache-sized sub-blocks give the bytes of whole 64-step blocks."""

    @staticmethod
    def model_family(count, seed=4):
        family = PointFamily.of(random_generic_params(count, seed))
        return partial(hamiltonian, family), family.tau, family.eigenbasis()

    @staticmethod
    def kernel_calls(monkeypatch, *args):
        """A family's outcomes, and (trajectories, members, sub-block, length) of each kernel call."""
        calls = []
        kernel = engine._integrate_segments

        def spy(h_of_t, dt, origins, length):
            rows = []

            def sampled(times):
                rows.append(times.shape[1] // len(origins))  # 2 k + 1 samples per segment
                return h_of_t(times)

            result = kernel(sampled, dt, origins, length)
            calls.append((len(dt), len(dt) * len(origins), (max(rows) - 1) // 2, length))
            return result

        with monkeypatch.context() as m:
            m.setattr(engine, "_integrate_segments", spy)
            return integrate_sampled_family(*args), calls

    @classmethod
    def both_layouts(cls, monkeypatch, *args):
        """The family in its own layout and in the reference one; returns both outcomes and the own layout.

        The reference budget holds 1024 members: one wave per run of segments, in
        whole 64-step blocks.  The two layouts must differ, or a test is vacuous.
        """
        wide, layout = cls.kernel_calls(monkeypatch, *args)
        with monkeypatch.context() as m:
            m.setattr(engine, "BLOCK_MEMBERS", 1024)
            whole, reference = cls.kernel_calls(monkeypatch, *args)
        assert {sub_block for _, _, sub_block, _ in reference} == {64}
        assert [call[1:3] for call in layout] != [call[1:3] for call in reference]
        return wide, whole, layout

    @staticmethod
    def assert_same_outcomes(wide, whole):
        for a, b in zip(wide, whole, strict=True):
            assert type(a) is type(b)
            if isinstance(a, UnitarityLoss):
                assert str(a) == str(b)
                continue
            for name in ("grid", "U", "delta", "basis"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    @pytest.mark.parametrize(
        "count, steps, spread",
        [
            (25, 16384, False),  # waves of 10 segments in 8-step sub-blocks, then one of 2 in 32-step ones
            (33, 2048, True),  # one wave of 4 segments, 16-step sub-blocks
            (9, 4097, True),  # segments of 456, 454 and 455 steps: waves of 5, 3 and 1
            (40, 1025, True),  # segments of 342, 342 and 341 steps: 32-step sub-blocks, then 64
            (3, 16385, False),  # 33 segments of three lengths
        ],
    )
    def test_model_families_match_the_64_member_layout(self, monkeypatch, count, steps, spread):
        # With ``spread``, the members end at final times from 0.1 tau to tau.
        h, t_final, bases = self.model_family(count)
        if spread:
            t_final = t_final * np.linspace(0.1, 1.0, count)
        wide, whole, _ = self.both_layouts(monkeypatch, h, t_final, steps, bases)
        assert all(isinstance(trace, PropagatorTrace) for trace in wide)
        self.assert_same_outcomes(wide, whole)

    def test_three_level_family_matches_the_64_member_layout(self, monkeypatch):
        h = smooth_random_family(3, 40, np.random.default_rng(15))  # 3 x 500 steps, 16-step sub-blocks
        wide, whole, _ = self.both_layouts(monkeypatch, h, np.linspace(0.3, 3.0, 40), 1500, identity_bases(40, 3))
        self.assert_same_outcomes(wide, whole)

    @staticmethod
    def diagonal_family(scale):
        """Members with H = scale(times) diag(1, -1), one row of times per member."""
        return lambda times: scale(times)[..., None, None] * np.diag([1.0, -1.0]).astype(complex)

    @staticmethod
    def first_unstable_step(scale, dt, steps):
        """The step whose samples first put a member of this ``scale`` past RK4's stability bound."""
        ratio = dt * scale(0.5 * dt * np.arange(2 * steps + 1))
        return (np.argmax(ratio > engine.RK4_STABILITY) - 1) // 2

    def test_refusal_in_the_third_sub_block(self, monkeypatch):
        # 40 members x 4 segments run in 16-step sub-blocks.  The last member's dt |H|
        # first passes 2 sqrt(2) at step 1575, step 39 of the last segment's first
        # 64-step block: the wide layout refuses it two sub-blocks later than the
        # reference, which refuses the whole block.
        steps, t_final = 2048, 2.0
        dt = t_final / steps
        ramp = (engine.RK4_STABILITY / dt - 10.0) / (1575.25 * dt / t_final) ** 8
        slopes = np.append(np.linspace(0.0, 100.0, 39), ramp)
        first_step = self.first_unstable_step(lambda t: 10.0 + ramp * (t / t_final) ** 8, dt, steps)
        assert (first_step, first_step % 64 // 16) == (1575, 2)
        h_of_t = self.diagonal_family(lambda times: 10.0 + slopes[:, None] * (times / t_final) ** 8)
        wide, whole, layout = self.both_layouts(monkeypatch, h_of_t, np.full(40, t_final), steps, identity_bases(40, 2))
        assert layout == [(40, 160, 16, 512)]
        assert isinstance(wide[-1], UnitarityLoss)
        assert "stability bound" in str(wide[-1])
        self.assert_same_outcomes(wide, whole)

    def test_stability_refusal_inside_an_8_step_sub_block(self, monkeypatch):
        # 20 members x 8 segments make one 160-member wave in 8-step sub-blocks; the
        # reference runs it in whole 64-step blocks.  The last member's dt |H| first
        # passes 2 sqrt(2) at step 3573, in the seventh 8-step sub-block of segment 6's
        # last 64-step block.
        steps, t_final = 4096, 2.0
        dt = t_final / steps
        ramp = (engine.RK4_STABILITY / dt - 10.0) / (3573.25 * dt / t_final) ** 8
        slopes = np.append(np.linspace(0.0, 100.0, 19), ramp)
        first_step = self.first_unstable_step(lambda t: 10.0 + ramp * (t / t_final) ** 8, dt, steps)
        assert (first_step // 512, first_step % 512 // 64, first_step % 64 // 8) == (6, 7, 6)
        h_of_t = self.diagonal_family(lambda times: 10.0 + slopes[:, None] * (times / t_final) ** 8)
        wide, whole, layout = self.both_layouts(monkeypatch, h_of_t, np.full(20, t_final), steps, identity_bases(20, 2))
        assert layout == [(20, 160, 8, 512)]
        assert isinstance(wide[-1], UnitarityLoss)
        assert "stability bound" in str(wide[-1])
        assert all(isinstance(trace, PropagatorTrace) for trace in wide[:-1])
        self.assert_same_outcomes(wide, whole)

    def test_drift_refusal_at_a_checkpoint_after_8_step_sub_blocks(self, monkeypatch):
        # The layouts of the test above.  From step 2600, in the sixth 8-step sub-block of
        # segment 5's first 64-step block, the last member steps at dt |H| = 0.5: within
        # the stability bound, but its drift passes 1e-6 by the checkpoint at step 2624.
        steps, t_final = 4096, 2.0
        dt = t_final / steps
        jump = np.append(np.zeros(19), 0.5 / dt - 10.0)
        onset = 2600.25 * dt
        assert (2600 // 512, 2600 % 512 // 64, 2600 % 64 // 8) == (5, 0, 5)
        h_of_t = self.diagonal_family(lambda times: 10.0 + jump[:, None] * (times >= onset))
        wide, whole, layout = self.both_layouts(monkeypatch, h_of_t, np.full(20, t_final), steps, identity_bases(20, 2))
        assert layout == [(20, 160, 8, 512)]
        assert isinstance(wide[-1], UnitarityLoss)
        assert str(wide[-1]).startswith("unitarity drift")
        assert all(isinstance(trace, PropagatorTrace) for trace in wide[:-1])
        self.assert_same_outcomes(wide, whole)

    @pytest.mark.parametrize(
        "count, steps, lengths",
        [(1, 8192, {64}), (2, 16384, {32}), (25, 16384, {8, 32}), (100, 8192, {8}), (256, 512, {64}),
         (20, 4096, {8}), (1, 32768, {32})],
    )
    def test_kernel_calls_keep_a_32_member_working_set(self, monkeypatch, count, steps, lengths):
        h, t_final, bases = self.model_family(count)
        _, calls = self.kernel_calls(monkeypatch, h, t_final, steps, bases)
        for trajectories, members, sub_block, _ in calls:
            budget = max(trajectories, 32) * 64
            assert members * sub_block <= budget
            assert sub_block == 64 or 2 * members * sub_block > budget  # the longest that fits
            assert members <= budget // 8  # a wave is as wide as 8-step sub-blocks hold
        assert {sub_block for _, _, sub_block, _ in calls} == lengths

    @pytest.mark.parametrize(
        "count, steps, calls",
        [
            (1, 8192, [(1, 16, 64, 512)]),
            (25, 16384, [(25, 250, 8, 512)] * 3 + [(25, 50, 32, 512)]),
            (250, 512, [(250, 250, 64, 512)]),
            (2, 16384, [(2, 64, 32, 512)]),
            (20, 4096, [(20, 160, 8, 512)]),
            (1, 32768, [(1, 64, 32, 512)]),
            # Past 32 trajectories a wave holds 8 segments: 2 kernel calls, not 16 or 8.
            (250, 8192, [(250, 2000, 8, 512)] * 2),
            (100, 8192, [(100, 800, 8, 512)] * 2),
        ],
    )
    def test_kernel_calls_in_time_order(self, monkeypatch, count, steps, calls):
        h, t_final, bases = self.model_family(count)
        assert self.kernel_calls(monkeypatch, h, t_final, steps, bases)[1] == calls


class TestComposedStep:
    """One RK4 step is one step matrix S = P(A) for constant A = -i dt H."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("k", [2, 3, 5, 17])
    def test_constant_generator_is_a_power_of_the_step_polynomial(self, n, k):
        h = random_hermitian(n, np.random.default_rng(10 * n + k))
        dt = 0.02
        a = -1j * dt * h
        p = np.eye(n) + a + a @ a / 2 + a @ a @ a / 6 + a @ a @ a @ a / 24
        trace = integrate_propagator(constant_h(h), k * dt, k)
        assert np.linalg.norm(trace.U[-1] - np.linalg.matrix_power(p, k)) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("steps", [2, 3, 4, 5])
    def test_matches_four_stage_reference_in_a_rotated_basis(self, n, steps):
        rng = np.random.default_rng(100 * n + steps)
        family = smooth_random_family(n, 1, rng)
        basis = random_unitary(n, rng)
        dt = 0.1 / steps
        reference = rk4_reference(lambda t: family(np.array([[t]]))[0, 0], steps * dt, steps)
        # The phases from the reference rows, by the same quadrature.
        ub = reference @ basis
        h_grid = family(dt * np.arange(steps + 1)[np.newaxis])[0]
        integrand = -np.real(np.einsum("mik,mik->mk", ub.conj(), h_grid @ ub))
        for k in range(2, steps + 1):  # row k of the reference is the endpoint of k steps
            trace = integrate_propagator(lambda times: family(times[np.newaxis])[0], k * dt, k, basis)
            np.testing.assert_array_equal(trace.U[0], np.eye(n))
            assert np.abs(trace.U[-1] - reference[k]).max() <= 1e-14
            delta = cumulative_simpson(integrand[: k + 1], dt)[-1]
            assert np.abs(trace.delta[-1] - delta).max() <= 1e-14

    def test_one_contraction_per_step(self, monkeypatch):
        calls = []
        contract = engine._contract

        def counting(a, b, out=None):
            calls.append(1)
            return contract(a, b, out)

        monkeypatch.setattr(engine, "_contract", counting)
        steps = 640
        model_trace(FLAGSHIP, steps)
        blocks = steps // engine.PROJECTION_INTERVAL
        assert len(calls) <= steps + 5 * blocks


class TestCumulativeSimpson:
    # Same operations in the same order as scipy, so the results agree bit for bit.
    @pytest.mark.parametrize("m", [2, 7, 8, 64, 65])
    def test_matches_scipy_with_per_member_dx(self, m):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        rng = np.random.default_rng(m)
        y = rng.normal(size=(m + 1, 2, 5))
        dx = rng.uniform(0.01, 0.5, size=5)
        expected = scipy_integrate.cumulative_simpson(
            y, dx=np.broadcast_to(dx, (1, 2, 5)), axis=0, initial=0.0
        )
        np.testing.assert_array_equal(cumulative_simpson(y, dx), expected)

    @pytest.mark.parametrize("m", [4, 9])
    def test_matches_scipy_with_scalar_dx(self, m):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        y = np.sin(np.linspace(0.0, 3.0, m + 1))
        expected = scipy_integrate.cumulative_simpson(y, dx=0.3, initial=0.0)
        np.testing.assert_array_equal(cumulative_simpson(y, 0.3), expected)

    def test_exact_for_cubics_over_even_intervals(self):
        x = np.linspace(0.0, 2.0, 9)
        integral = cumulative_simpson(x**3 - x, 0.25)
        np.testing.assert_allclose(integral[::2], (x**4 / 4 - x**2 / 2)[::2], atol=1e-14)

    @staticmethod
    def composite_pattern(steps):
        """1, 4, 2, ..., 2, 4, 1 over the even panels; an odd last panel adds -1/4, 2, 5/4."""
        even = steps - steps % 2
        c = np.zeros(steps + 1)
        c[1:even:2] = 4.0
        c[2:even:2] = 2.0
        c[0] = c[even] = 1.0
        if steps % 2:
            c[even - 1 :] += (-0.25, 2.0, 1.25)
        return c

    def test_kernel_weights_are_the_composite_pattern(self):
        lengths = {length for steps in (4097, 16385, 33333) for _, length in engine._waves(steps, 1)}
        for steps in sorted(set(range(2, 4101)) | lengths):
            expected = self.composite_pattern(steps)
            assert engine._simpson_weights(steps).tobytes() == expected.tobytes(), steps


class TestDynamicalPhase:
    def test_decoupled_levels(self):
        p = ModelParams(V=1.3, muB=0.0, omega=0.7, beta=0.0)
        times = np.array([0.5, 1.0, 2.0])
        for t_final, trace in zip(times, model_family_traces([p] * 3, 1024, times)):
            np.testing.assert_allclose(trace.delta[-1], (-0.5 * p.V * t_final, 0.5 * p.V * t_final), atol=1e-9)

    def test_traceless_sum(self):
        times = period_tau(FLAGSHIP) * np.array([0.25, 0.5, 1.0])
        for trace in model_family_traces([FLAGSHIP] * 3, 1024, times):
            assert abs(trace.delta[-1].sum()) <= 1e-9

    def test_agrees_with_running_delta(self):
        trace = model_trace(FLAGSHIP, 8192)
        exact = exact_delta1(FLAGSHIP)
        assert np.abs(trace.delta[-1] - (exact, -exact)).max() <= 1e-12

    def test_exact_delta1_matches_gauss_legendre_quadrature(self):
        # delta_1(tau) = -int_0^tau <psi_1| U^dag H U |psi_1> dt over the closed-form U(t).
        nodes, weights = np.polynomial.legendre.leggauss(64)
        for p in random_generic_params(8, 41):
            tau = period_tau(p)
            times = 0.5 * tau * (nodes + 1.0)
            psi = PointFamily.of([p]).eigenbasis()[0][:, 0]
            u_psi = np.stack([closed_form_propagator(p, t, Convention.ODE) @ psi for t in times])
            h_u_psi = np.einsum("tij,tj->ti", point_hamiltonian(p, times), u_psi)
            integrand = np.real(np.einsum("ti,ti->t", u_psi.conj(), h_u_psi))
            quadrature = -0.5 * tau * float(weights @ integrand)
            assert exact_delta1(p) == pytest.approx(quadrature, rel=1e-13)

    def test_oracle_converges_to_exact_delta1_at_fourth_order(self):
        p = ModelParams(V=0.05, muB=0.001, omega=0.05, beta=1.0)
        exact = exact_delta1(p)
        errors = [abs(float(model_trace(p, steps).delta[-1, 0]) - exact) for steps in (4096, 8192)]
        assert errors[0] / errors[1] == pytest.approx(16.0, abs=1.0)

    def test_against_independent_closed_form(self):
        rng = np.random.default_rng(99)
        for _ in range(6):
            p = ModelParams(
                V=float(rng.uniform(0.3, 2)),
                muB=float(rng.uniform(0.15, 1)),
                omega=float(rng.uniform(0.1, 2)),
                beta=1.0,
            )
            trace = model_trace(p, 4096)
            assert float(trace.delta[-1, 0]) == pytest.approx(
                analytic_delta1(p), abs=1e-9
            )

    def test_flagship_frozen(self):
        trace = model_trace(FLAGSHIP, 8192)
        assert float(trace.delta[-1, 0]) == pytest.approx(FLAGSHIP_DELTA1, abs=1e-9)


class TestParallelTransport:
    def test_zero_phases_leave_trace_unchanged(self):
        trace = model_trace(FLAGSHIP, 512)
        zeroed = PropagatorTrace(
            grid=trace.grid,
            U=trace.U,
            delta=np.zeros_like(trace.delta),
            basis=trace.basis,
        )
        np.testing.assert_allclose(parallel_transported(zeroed).U, trace.U, atol=1e-15)

    def test_decoupled_model_transports_to_identity(self):
        p = ModelParams(V=1.3, muB=0.0, omega=0.7, beta=0.0)
        times = 3.0 * np.arange(1, 17) / 16
        for trace in model_family_traces([p] * 16, 1024, times):
            defect = np.linalg.norm(parallel_transported(trace).U - np.eye(2), axis=(1, 2)).max()
            assert defect <= 1e-9

    def test_matrix_elements_factorize(self):
        trace = model_trace(FLAGSHIP, 1024)
        par = parallel_transported(trace)
        b = trace.basis
        m = b.conj().T @ trace.U[-1] @ b
        expected = m * np.exp(-1j * trace.delta[-1])[np.newaxis, :]
        actual = b.conj().T @ par.U[-1] @ b
        assert np.linalg.norm(actual - expected) <= 1e-8

    def test_interior_residual(self):
        tau = period_tau(FLAGSHIP)
        centers = tau * np.arange(1, 16) / 16
        assert parallel_transport_residual(FLAGSHIP, 4096, centers, tau / 4096) <= 1e-7


def identity_trace(basis, n=2):
    grid = np.linspace(0.0, 1.0, 5)
    u = np.broadcast_to(np.eye(n, dtype=complex), (5, n, n)).copy()
    return PropagatorTrace(grid=grid, U=u, delta=np.zeros((5, n)), basis=basis)


class TestDiagonalPhase:
    def test_identity_evolution(self):
        e = Ensemble(basis=np.eye(2, dtype=complex), weights=np.array([0.3, 0.7]))
        pf = diagonal_mixed_phase(identity_trace(np.eye(2, dtype=complex)), e)
        assert pf.unit == 1.0
        assert pf.arg == 0.0

    def test_pure_state_reduction(self):
        trace = model_trace(FLAGSHIP, 1024)
        eps = 1e-14
        e = Ensemble(basis=trace.basis, weights=np.array([eps, 1.0 - eps]))
        pf = diagonal_mixed_phase(trace, e)
        b = trace.basis
        m22 = complex(b[:, 1].conj() @ trace.U[-1] @ b[:, 1])
        expected = np.angle(m22 * np.exp(-1j * trace.delta[-1, 1]))
        assert pf.arg == pytest.approx(expected, abs=1e-10)

    def test_flagship_frozen(self):
        trace = model_trace(FLAGSHIP, 8192)
        pf = diagonal_mixed_phase(trace, thermal_ensemble(FLAGSHIP))
        assert pf.raw == pytest.approx(FLAGSHIP_DIAG_RAW, abs=1e-9)
        assert pf.arg == pytest.approx(FLAGSHIP_DIAG_ARG, abs=1e-9)

    def test_visibility_collapse(self):
        h = constant_h(0.5 * math.pi * np.array([[0, 1], [1, 0]], dtype=complex))
        trace = integrate_propagator(h, 1.0, 1024)
        e = Ensemble(basis=np.eye(2, dtype=complex), weights=np.array([0.3, 0.7]))
        with pytest.raises(UndefinedPhase):
            diagonal_mixed_phase(trace, e)

    def test_basis_mismatch_rejected(self):
        trace = model_trace(FLAGSHIP, 256)
        e = Ensemble(basis=np.eye(2, dtype=complex), weights=np.array([0.3, 0.7]))
        with pytest.raises(ValueError):
            diagonal_phase_argument(trace, e)


class TestShiftEnsembles:
    def test_two_level_swap(self):
        e = thermal_ensemble(FLAGSHIP)
        companions = shift_ensembles(e)
        assert len(companions) == 2
        np.testing.assert_array_equal(companions[0].weights, e.weights)
        np.testing.assert_array_equal(companions[1].weights, e.weights[::-1])

    def test_uniform_weights_admitted(self):
        e = Ensemble(basis=np.eye(2, dtype=complex), weights=np.array([0.5, 0.5]))
        companions = shift_ensembles(e)
        assert len(companions) == 2

    def test_three_level_cycle_matches_conjugation(self):
        # oracle: conjugate diag(a, b, c) by the explicit shift matrix
        rng = np.random.default_rng(7)
        basis = random_unitary(3, rng)
        weights = np.array([0.5, 0.3, 0.2])
        e = Ensemble(basis=basis, weights=weights)
        companions = shift_ensembles(e)
        w_op = shift_operator(basis)
        rho = (basis * weights) @ basis.conj().T
        conjugated = w_op @ rho @ w_op.conj().T
        diag = np.real(basis.conj().T @ conjugated @ basis).diagonal()
        np.testing.assert_allclose(companions[1].weights, diag, atol=1e-12)
        np.testing.assert_array_equal(companions[1].weights, [0.2, 0.5, 0.3])

    def test_shift_operator_is_cyclic_permutation(self):
        w_op = shift_operator(np.eye(3, dtype=complex))
        expected = np.zeros((3, 3))
        expected[1, 0] = expected[2, 1] = expected[0, 2] = 1.0
        np.testing.assert_array_equal(w_op.real, expected)


class TestOffDiagonalPhase:
    def test_single_ensemble_reduces_to_diagonal_argument(self):
        trace = model_trace(FLAGSHIP, 1024)
        e = thermal_ensemble(FLAGSHIP)
        z = offdiagonal_trace(trace, [e], 1)
        assert abs(z - diagonal_phase_argument(trace, e)) <= 1e-12

    def test_decoupled_model_gives_unit_phase(self):
        p = ModelParams(V=1.3, muB=0.0, omega=0.7, beta=1.0)
        trace = model_trace(p, 1024, t_final=3.0)
        e = thermal_ensemble(p)
        pf = offdiagonal_mixed_phase(trace, shift_ensembles(e), 2)
        expected = 2.0 * math.sqrt(e.weights[0] * e.weights[1])
        assert pf.raw == pytest.approx(expected, abs=1e-9)
        assert pf.arg == pytest.approx(0.0, abs=1e-9)

    def test_flagship_frozen(self):
        trace = model_trace(FLAGSHIP, 8192)
        pf = offdiagonal_mixed_phase(trace, shift_ensembles(thermal_ensemble(FLAGSHIP)), 2)
        assert pf.raw.real == pytest.approx(FLAGSHIP_OFFDIAG_RAW, abs=1e-9)
        assert abs(pf.raw.imag) <= 1e-9
        # +pi and -pi are the same phase factor; the sign of a rounding-level
        # imaginary part picks between them.
        assert circular_distance(pf.arg, math.pi) <= 1e-6

    def test_length_mismatch_rejected(self):
        trace = model_trace(FLAGSHIP, 256)
        e = thermal_ensemble(FLAGSHIP)
        with pytest.raises(ValueError):
            offdiagonal_trace(trace, [e, e], 3)

    @pytest.mark.parametrize("n,l", [(2, 2), (3, 2), (3, 3)])
    def test_operator_route_equals_scalar_expansion(self, n, l):
        rng = np.random.default_rng(50 + 10 * n + l)
        for _ in range(10):
            segments = [random_hermitian(n, rng, 0.35) for _ in range(3)]
            trace = integrate_propagator(
                piecewise_constant_h(segments, 1.0),
                3.0,
                4104,
                basis=random_unitary(n, rng),
            )
            e = Ensemble(basis=trace.basis, weights=distinct_weights(n, rng))
            companions = shift_ensembles(e)[:l]
            z_op = offdiagonal_trace(trace, companions, l)
            z_exp = offdiag_trace_expansion(trace, companions, l)
            assert abs(z_op - z_exp) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3])
    def test_batch_shares_one_basis_per_point(self, n):
        # One (B, N, N) basis per point serves all of its (B, l, N) companions' weights.
        rng = np.random.default_rng(60 + n)
        count = 4
        bases = np.stack([random_unitary(n, rng) for _ in range(count)])
        weights = np.stack([distinct_weights(n, rng) for _ in range(count)])
        traces = integrate_sampled_family(smooth_random_family(n, count, rng), np.full(count, 3.0), 512, bases)
        u_par = engine.parallel_transported(
            np.stack([t.U[-1] for t in traces]), np.stack([t.delta[-1] for t in traces]), bases
        )
        batch = engine.offdiagonal_trace(u_par, bases, engine.shift_ensembles(weights))
        assert batch.shape == (count,)
        for z, trace, w in zip(batch, traces, weights):
            companions = shift_ensembles(Ensemble(basis=trace.basis, weights=w))
            assert abs(z - offdiagonal_trace(trace, companions)) <= 1e-12


class TestInvariances:
    def test_gauge_invariance_sample(self):
        rng = np.random.default_rng(21)
        for n in (2, 3):
            h = smooth_random_family(n, 4, rng)
            bases = np.stack([random_unitary(n, rng) for _ in range(4)])
            weights = np.stack([distinct_weights(n, rng) for _ in range(4)])
            thetas = rng.uniform(-math.pi, math.pi, size=(4, n))
            rotated = bases * np.exp(1j * thetas)[:, None, :]
            for b_set in (bases, rotated):
                traces = integrate_sampled_family(h, np.full(4, 3.0), 512, b_set)
                args = []
                for trace, basis, w in zip(traces, b_set, weights):
                    e = Ensemble(basis=basis, weights=w)
                    args.append(
                        (
                            np.angle(diagonal_phase_argument(trace, e)),
                            np.angle(offdiagonal_trace(trace, shift_ensembles(e))),
                        )
                    )
                if b_set is bases:
                    reference = np.array(args)
                else:
                    deviation = np.abs(
                        np.angle(np.exp(1j * (np.array(args) - reference)))
                    ).max()
                    assert deviation <= 1e-9

    def test_identity_shift_invariance_sample(self):
        rng = np.random.default_rng(22)
        n, count, steps = 2, 4, 1024
        h = smooth_random_family(n, count, rng)
        bases = np.stack([random_unitary(n, rng) for _ in range(count)])
        weights = np.stack([distinct_weights(n, rng) for _ in range(count)])
        c0 = rng.uniform(-1, 1, size=count)
        c1 = rng.uniform(-1, 1, size=count)
        nu = rng.uniform(0.3, 2.0, size=count)

        def shifted(times):
            scalar = c0[:, None] + c1[:, None] * np.cos(nu[:, None] * times)
            return h(times) + scalar[..., None, None] * np.eye(n)

        for h_set, store in ((h, "ref"), (shifted, "cmp")):
            traces = integrate_sampled_family(h_set, np.full(count, 3.0), steps, bases)
            args = np.array(
                [
                    (
                        np.angle(diagonal_phase_argument(t, Ensemble(basis=b, weights=w))),
                        np.angle(
                            offdiagonal_trace(
                                t, shift_ensembles(Ensemble(basis=b, weights=w))
                            )
                        ),
                    )
                    for t, b, w in zip(traces, bases, weights)
                ]
            )
            if store == "ref":
                reference = args
        deviation = np.abs(np.angle(np.exp(1j * (args - reference)))).max()
        assert deviation <= 1e-8


class TestEnsembleValidation:
    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(ValueError):
            Ensemble(basis=np.ones((2, 2), dtype=complex), weights=np.array([0.5, 0.5]))

    def test_rejects_non_normalized_weights(self):
        with pytest.raises(ValueError):
            Ensemble(basis=np.eye(2, dtype=complex), weights=np.array([0.5, 0.6]))

    def test_rejects_non_positive_weights(self):
        with pytest.raises(ValueError, match="non-negative"):
            Ensemble(basis=np.eye(2, dtype=complex), weights=np.array([1.1, -0.1]))

    def test_accepts_an_empty_level(self):
        e = Ensemble(basis=np.eye(2, dtype=complex), weights=np.array([1.0, 0.0]))
        np.testing.assert_array_equal(e.weights, [1.0, 0.0])
