import math
import tracemalloc

import numpy as np
import pytest

from ymspec import dynamics
from ymspec.algebra import AlgebraElement, bracket, build_algebra
from ymspec.dynamics import (
    CauchyState,
    EvolutionReport,
    FieldPool,
    cfl_bound,
    curvature_magnetic,
    energy,
    evolve,
    rk4_step,
)
from ymspec.errors import (
    ConfigurationError,
    DimensionMismatchError,
    DivergenceError,
    ResourceError,
    StabilityError,
)
from ymspec.lattice import (
    LatticeSpec,
    ScalarAlgebraField,
    VectorAlgebraField,
    constraint_residual,
    field_norm,
    gauged_div,
    gauged_grad,
    random_vector_field,
    transversal_project,
)

from oracles import (
    abelian_wave,
    adjoint_transform,
    allocating_evolve,
    allocating_rk4_step,
    einsum_bracket,
    exp_gauge,
    expand_pairs,
    gauge_transform,
    maxwell_energy,
    random_scalar_field,
    reference_force,
    reference_rk4_step,
    roll_diff,
)


def zero_state(lat, basis):
    return CauchyState(
        VectorAlgebraField.zeros(lat, basis), VectorAlgebraField.zeros(lat, basis)
    )


def smooth_profile(lat, basis, amplitude, shift=0.0):
    theta = 2 * np.pi * np.arange(lat.n) / lat.n
    tx = theta[:, None, None]
    ty = theta[None, :, None]
    tz = theta[None, None, :]
    data = np.zeros((3, basis.dim_g, lat.n, lat.n, lat.n))
    for k in range(3):
        for c in range(basis.dim_g):
            data[k, c] = amplitude * (
                np.sin(tx + 0.4 * k + 0.2 * c + shift)
                + 0.5 * np.cos(ty + 0.3 * c) * np.sin(tz - 0.5 * k + shift)
            )
    return VectorAlgebraField(lat, basis, data)


class TestCurvature:
    def test_zero(self, su2, lat8):
        a = VectorAlgebraField.zeros(lat8, su2)
        assert np.abs(expand_pairs(curvature_magnetic(a))).max() == 0.0

    def test_constant_aligned(self, su2, lat8):
        data = np.zeros((3, 3, 8, 8, 8))
        for k in range(3):
            data[k, 0] = 0.5 * (k + 1)  # all spatial components along b_1
        a = VectorAlgebraField(lat8, su2, data)
        assert np.abs(expand_pairs(curvature_magnetic(a))).max() < 1e-14

    def test_constant_su2_pair(self, su2, lat8):
        data = np.zeros((3, 3, 8, 8, 8))
        data[0, 0] = 1.0  # a_1 = b_1
        data[1, 1] = 1.0  # a_2 = b_2
        a = VectorAlgebraField(lat8, su2, data)
        f = expand_pairs(curvature_magnetic(a))
        expected = -bracket(
            AlgebraElement(su2, np.eye(3)[0]), AlgebraElement(su2, np.eye(3)[1])
        ).coeffs
        assert np.abs(f[0, 1] - expected[:, None, None, None]).max() < 1e-14
        assert np.abs(f[1, 0] + f[0, 1]).max() == 0.0

    def test_antisymmetry(self, su2, lat8, rng):
        a = random_vector_field(rng, lat8, su2)
        f = expand_pairs(curvature_magnetic(a))
        for j in range(3):
            for k in range(3):
                assert np.abs(f[j, k] + f[k, j]).max() == 0.0

    def test_pairs_match_definition(self, su2, lat8, rng):
        # one block per pair j < k, in the order (0, 1), (0, 2), (1, 2)
        a = random_vector_field(rng, lat8, su2)
        f = curvature_magnetic(a)
        assert f.shape == (3, 3, 8, 8, 8)
        h = lat8.spacing
        for p, (j, k) in enumerate(((0, 1), (0, 2), (1, 2))):
            ref = (roll_diff(a.data[k], 1 + j, h)
                   - roll_diff(a.data[j], 1 + k, h)
                   - einsum_bracket(su2, a.data[j], a.data[k]))
            assert np.abs(f[p] - ref).max() < 1e-13


def _strided(data):
    """The same values in a view of stride 16 bytes: the real part of a
    complex array."""
    wide = np.zeros(data.shape, dtype=complex)
    wide.real = data
    return wide.real


def _sites_major(data):
    """The same values in a view with the site axes leading in memory, as
    in the field file payload."""
    lead = data.ndim - 3
    order = tuple(range(lead, data.ndim)) + tuple(range(lead))
    back = tuple(np.argsort(order))
    return np.ascontiguousarray(data.transpose(order)).transpose(back)


class TestInPlaceKernels:
    @pytest.mark.parametrize("layout", [_strided, _sites_major])
    @pytest.mark.parametrize("name", ["su2", "su3", "so4"])
    def test_strided_fields_match_oracles(self, name, layout, rng):
        # the kernels fill their own contiguous scratch and output arrays,
        # whatever the layout of the fields they read
        basis = build_algebra(name)
        lat = LatticeSpec(n=5, spacing=0.7)
        h = lat.spacing
        a = random_vector_field(rng, lat, basis, amplitude=0.8)
        e = random_vector_field(rng, lat, basis)
        u = random_scalar_field(rng, lat, basis)
        sa, se = (VectorAlgebraField(lat, basis, layout(x.data)) for x in (a, e))
        su = ScalarAlgebraField(lat, basis, layout(u.data))
        assert not (sa.data.flags.c_contiguous or su.data.flags.c_contiguous)

        def close(got, want):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

        close(gauged_grad(sa, su).data,
              np.array([roll_diff(u.data, 1 + k, h)
                        - einsum_bracket(basis, a.data[k], u.data)
                        for k in range(3)]))
        close(gauged_div(sa, se).data,
              sum(roll_diff(e.data[k], 1 + k, h)
                  - einsum_bracket(basis, a.data[k], e.data[k])
                  for k in range(3)))
        f = curvature_magnetic(sa)
        close(f, np.array([roll_diff(a.data[k], 1 + j, h)
                           - roll_diff(a.data[j], 1 + k, h)
                           - einsum_bracket(basis, a.data[j], a.data[k])
                           for j, k in ((0, 1), (0, 2), (1, 2))]))
        close(dynamics._force(sa, layout(f)),
              reference_force(basis, h, a.data))


class TestCauchyState:
    def test_mismatched_geometry_refused(self, su2, su3, lat4, lat8):
        a = VectorAlgebraField.zeros(lat8, su2)
        for e in (VectorAlgebraField.zeros(lat4, su2),
                  VectorAlgebraField.zeros(lat8, su3)):
            with pytest.raises(DimensionMismatchError, match="different lattices"):
                CauchyState(a, e)


class TestEnergy:
    def test_zero(self, su2, lat8):
        assert energy(zero_state(lat8, su2)) == 0.0

    def test_electric_only(self, su2, lat8, rng):
        e = random_vector_field(rng, lat8, su2)
        st = CauchyState(VectorAlgebraField.zeros(lat8, su2), e)
        assert abs(energy(st) - 0.5 * field_norm(e) ** 2) < 1e-12 * energy(st)

    def test_abelian_matches_maxwell(self, su2, rng):
        n = 12
        lat = LatticeSpec(n=n, spacing=0.5)
        a_data = np.zeros((3, 3, n, n, n))
        e_data = np.zeros((3, 3, n, n, n))
        theta = 2 * np.pi * np.arange(n) / n
        a_data[1, 0] = 0.7 * np.cos(theta)[:, None, None]
        a_data[2, 0] = 0.4 * np.sin(theta)[None, :, None]
        e_data[0, 0] = 0.2 * np.cos(theta)[None, None, :]
        st = CauchyState(
            VectorAlgebraField(lat, su2, a_data), VectorAlgebraField(lat, su2, e_data)
        )
        oracle = maxwell_energy(lat, a_data[:, 0], e_data[:, 0])
        assert abs(energy(st) - oracle) < 1e-12 * oracle
        assert energy(st, curvature_magnetic(st.a)) == energy(st)

    def test_gauge_invariance_order(self, su2):
        errs = []
        for n in (8, 16):
            lat = LatticeSpec(n=n, spacing=8.0 / n)
            a = smooth_profile(lat, su2, 0.4)
            e = smooth_profile(lat, su2, 0.4, shift=1.3)
            theta = 2 * np.pi * np.arange(n) / n
            phi_data = np.zeros((3, n, n, n))
            phi_data[0] = 0.3 * np.sin(theta)[:, None, None]
            phi_data[1] = 0.2 * np.cos(theta)[None, :, None]
            g = exp_gauge(ScalarAlgebraField(lat, su2, phi_data))
            e1 = energy(CauchyState(a, e))
            e2 = energy(CauchyState(gauge_transform(g, a), adjoint_transform(g, e)))
            errs.append(abs(e1 - e2) / e1)
        assert errs[1] < errs[0] / 2.5
        assert errs[0] < 0.1


class TestRK4:
    def test_zero_fixed_point(self, su2, lat8):
        st = zero_state(lat8, su2)
        out = rk4_step(st, 0.1)
        assert np.abs(out.a.data).max() == 0.0
        assert np.abs(out.e.data).max() == 0.0
        assert out.t == 0.1

    @pytest.mark.parametrize("name", ["su2", "su3"])
    def test_matches_reference_step(self, name, rng):
        basis = build_algebra(name)
        lat = LatticeSpec(n=6, spacing=0.7)
        a = random_vector_field(rng, lat, basis, amplitude=0.5)
        e = random_vector_field(rng, lat, basis, amplitude=0.5)
        st, h = CauchyState(a, e), 0.2
        a_ref, e_ref = reference_rk4_step(basis, lat.spacing, a.data, e.data, h)
        scale = max(np.abs(a_ref).max(), np.abs(e_ref).max())
        out = rk4_step(st, h)
        assert np.abs(out.a.data - a_ref).max() <= 1e-13 * scale
        assert np.abs(out.e.data - e_ref).max() <= 1e-13 * scale
        # a supplied first-stage curvature changes nothing
        again = rk4_step(st, h, curvature_magnetic(a))
        assert np.array_equal(again.a.data, out.a.data)
        assert np.array_equal(again.e.data, out.e.data)

    def test_cfl_rejection(self, su2, lat8):
        with pytest.raises(StabilityError):
            rk4_step(zero_state(lat8, su2), lat8.spacing)
        with pytest.raises(ConfigurationError):
            rk4_step(zero_state(lat8, su2), 0.0)

    def test_forward_backward_reversibility(self, su2, lat8, rng):
        a = random_vector_field(rng, lat8, su2, amplitude=0.2)
        e = random_vector_field(rng, lat8, su2, amplitude=0.2)
        st = CauchyState(a, e)
        h = 0.2
        back = rk4_step(rk4_step(st, h), -h)
        scale = field_norm(a) + field_norm(e)
        err = (
            np.sqrt(np.sum((back.a.data - a.data) ** 2))
            + np.sqrt(np.sum((back.e.data - e.data) ** 2))
        )
        # the local defect of one forward-backward pair is O(h^5)
        assert err < 10 * h ** 5 * scale
        assert abs(back.t) < 1e-15

    def test_abelian_wave_single_step_order(self, su2):
        lat = LatticeSpec(n=16, spacing=1.0)
        errs = []
        for h in (0.2, 0.1):
            a0, e0 = abelian_wave(lat, 3, amplitude=0.3, t=0.0)
            st = CauchyState(
                VectorAlgebraField(lat, su2, a0), VectorAlgebraField(lat, su2, e0)
            )
            out = rk4_step(st, h)
            a1, e1 = abelian_wave(lat, 3, amplitude=0.3, t=h)
            errs.append(
                np.sqrt(np.sum((out.a.data - a1) ** 2) + np.sum((out.e.data - e1) ** 2))
            )
        assert errs[1] < errs[0] / 16.0  # local error O(h^5)


class TestEvolve:
    def test_zero_data(self, su2, lat8):
        final, report = evolve(zero_state(lat8, su2), 0.5, 0.05)
        assert all(en == 0.0 for en in report.energy)
        assert np.abs(final.a.data).max() == 0.0

    def test_final_step_shortened_to_land_on_T(self, su2, lat8):
        final, report = evolve(zero_state(lat8, su2), 1.0, 0.3)
        assert report.times == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0], abs=1e-15)
        assert final.t == pytest.approx(1.0, abs=1e-15)

    def test_abelian_wave_closed_form(self, su2):
        lat = LatticeSpec(n=16, spacing=1.0)
        amp, T = 0.3, 1.0
        a0, e0 = abelian_wave(lat, 3, amp, 0.0)
        st = CauchyState(
            VectorAlgebraField(lat, su2, a0), VectorAlgebraField(lat, su2, e0)
        )
        final, report = evolve(st, T, lat.spacing / 10)
        a_ex, e_ex = abelian_wave(lat, 3, amp, T)
        num = np.sqrt(np.sum((final.a.data - a_ex) ** 2) + np.sum((final.e.data - e_ex) ** 2))
        den = np.sqrt(np.sum(a_ex ** 2) + np.sum(e_ex ** 2))
        assert num / den < 1e-4
        assert report.energy_drift < 1e-6

    def test_unprojected_data_rejected(self, su2, lat8, rng):
        a = random_vector_field(rng, lat8, su2, amplitude=0.5)
        e = random_vector_field(rng, lat8, su2, amplitude=0.5)
        with pytest.raises(ConfigurationError):
            evolve(CauchyState(a, e), 0.5, 0.05, constraint_tol=1e-6)

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_start_gate_bound(self, su2, lat8, rng, scale):
        # the start passes when r0 <= constraint_tol * max(|e|, 1): an
        # absolute bound for |e| < 1, a relative one for |e| >= 1
        a = random_vector_field(rng, lat8, su2, amplitude=0.5)
        e = random_vector_field(rng, lat8, su2, amplitude=scale)
        r0, e_norm = constraint_residual(a, e), field_norm(e)
        assert (e_norm < 1) == (scale < 1) and r0 > 0
        bound = r0 / max(e_norm, 1.0)
        if e_norm < 1:
            # a bound relative to |e| would refuse this start
            assert 1.5 * bound * e_norm < r0
        st = CauchyState(a, e)
        _, report = evolve(st, 0.05, 0.05, constraint_tol=1.5 * bound)
        assert report.constraint[0] == r0
        with pytest.raises(ConfigurationError, match=r"times max\(\|e\|, 1\)"):
            evolve(st, 0.05, 0.05, constraint_tol=0.5 * bound)

    def test_constraint_propagation_small_data(self, su2, rng):
        n = 12
        lat = LatticeSpec(n=n, spacing=2 * np.pi / n)
        amp = 1e-7
        a = random_vector_field(rng, lat, su2, amplitude=amp, max_mode=1)
        e = transversal_project(
            a, random_vector_field(rng, lat, su2, amplitude=amp, max_mode=1), 1e-13
        )
        st = CauchyState(a, e)
        steps = 200
        h = lat.spacing / 10
        final, report = evolve(st, steps * h, h, constraint_tol=1e-4)
        e_scale = field_norm(e)
        # residual growth bounded by 1e-6 * t * |state| along the run
        for t, r in zip(report.times, report.constraint):
            assert r <= report.constraint[0] + 1e-6 * (t + 1e-9) * e_scale

    def test_constraint_anomaly_scales_with_h_squared(self, su2):
        growths = []
        for n in (8, 16):
            lat = LatticeSpec(n=n, spacing=2 * np.pi / n)
            rng = np.random.default_rng(5)
            a = random_vector_field(rng, lat, su2, amplitude=0.05, max_mode=1)
            e = transversal_project(
                a, random_vector_field(rng, lat, su2, amplitude=0.05, max_mode=1),
                1e-12,
            )
            final, report = evolve(CauchyState(a, e), 2.0, lat.spacing / 10,
                                   constraint_tol=1e-4)
            growths.append(report.constraint_growth / field_norm(e))
        assert growths[1] < growths[0] / 2.0

    @staticmethod
    def check_divergence(lat, basis, a_data, step):
        # the last finite state is the oracle's, bit for bit
        st = CauchyState(
            VectorAlgebraField(lat, basis, a_data),
            VectorAlgebraField.zeros(lat, basis),
        )
        with pytest.raises(DivergenceError) as info:
            evolve(st, 0.5, 0.05, constraint_tol=np.inf)
        with pytest.raises(DivergenceError) as oracle:
            allocating_evolve(st, 0.5, 0.05)
        assert info.value.step == oracle.value.step == step
        got, want = info.value.last_state, oracle.value.last_state
        assert got.t == want.t
        for x, y in ((got.a.data, want.a.data), (got.e.data, want.e.data)):
            assert np.isfinite(x).all()
            assert np.array_equal(x, y)

    def test_divergence_detected(self, su2, lat8):
        # overflows in the first step: the last finite state is the start
        self.check_divergence(lat8, su2, np.full((3, 3, 8, 8, 8), 1e170), 1)

    def test_divergence_after_pooled_steps(self, su2, lat8):
        # overflows in the fourth step: the last finite state is in pool
        # arrays, which the steps after it must not have reused
        rng = np.random.default_rng(0)
        a = random_vector_field(rng, lat8, su2, amplitude=30.0)
        self.check_divergence(lat8, su2, a.data, 4)

    def test_finite_propagation_speed(self, su2):
        # compactly supported smooth slab (inside a half-torus); after T < L/4
        # the energy beyond the light-expanded region, allowing a resolution
        # skin of 2.5 length units for the stencil tails, stays below 1e-8
        n, L = 32, 16.0
        lat = LatticeSpec(n=n, spacing=L / n)
        x = np.arange(n, dtype=float) * lat.spacing
        center, half_width = 8.0, 3.0
        s = np.clip(np.abs(x - center) / half_width, 0.0, 1.0)
        window = np.where(s < 1.0, np.exp(1.0 - 1.0 / np.maximum(1e-12, 1.0 - s ** 2)), 0.0)
        a_data = np.zeros((3, 3, n, n, n))
        a_data[1, 0] = 0.1 * window[:, None, None]
        st = CauchyState(
            VectorAlgebraField(lat, su2, a_data), VectorAlgebraField.zeros(lat, su2)
        )
        T = 2.0
        final, _ = evolve(st, T, lat.spacing / 10)
        f_final = expand_pairs(curvature_magnetic(final.a))
        dens = 0.5 * (
            np.sum(final.e.data ** 2, axis=(0, 1))
            + 0.5 * np.sum(f_final ** 2, axis=(0, 1, 2))
        )
        dist = np.minimum(np.abs(x - center), L - np.abs(x - center))
        outside = dist > half_width + T + 2.5
        assert outside.sum() > 0
        frac = dens[outside].sum() / dens.sum()
        assert frac < 1e-8

    def test_cfl_bound_value(self, lat8):
        assert cfl_bound(lat8) == lat8.spacing / 2

    def test_step_cap_refused_before_stepping(self, su2, monkeypatch):
        # 2e6 steps on 2^3 sites: far under the cost cap, over the step cap
        def no_step(*args, **kwargs):
            raise AssertionError("a step was started")

        monkeypatch.setattr(dynamics, "rk4_step", no_step)
        lat = LatticeSpec(n=2, spacing=1.0)
        with pytest.raises(ResourceError, match="2000000 steps"):
            evolve(zero_state(lat, su2), 2e4, 0.01)

    def test_step_cap_is_inclusive(self, su2, monkeypatch):
        monkeypatch.setattr(dynamics, "EVOLVE_STEP_CAP", 3)
        lat = LatticeSpec(n=2, spacing=1.0)
        _, report = evolve(zero_state(lat, su2), 0.3, 0.1)
        assert len(report.times) == 4
        with pytest.raises(ResourceError):
            evolve(zero_state(lat, su2), 0.35, 0.1)  # 3 steps + a short one


def random_state(rng, lat, basis, amplitude=0.5):
    return CauchyState(
        random_vector_field(rng, lat, basis, amplitude=amplitude),
        random_vector_field(rng, lat, basis, amplitude=amplitude),
    )


class TestFieldPool:
    """The pooled RK4 step and evolve against their allocating oracles,
    bit for bit, and the arrays the pool may write and hand out."""

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("name", ["su2", "su3", "so4"])
    def test_rk4_step_bits(self, name, n, rng):
        basis = build_algebra(name)
        st = random_state(rng, LatticeSpec(n=n, spacing=0.7), basis)
        for h in (0.2, -0.2):
            want = allocating_rk4_step(st, h)
            pool = FieldPool(st.a.data.shape)
            for got in (rk4_step(st, h),
                        rk4_step(st, h, curvature_magnetic(st.a), pool)):
                assert np.array_equal(got.a.data, want.a.data)
                assert np.array_equal(got.e.data, want.e.data)
                assert got.t == want.t

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("name", ["su2", "su3", "so4"])
    def test_evolve_bits(self, name, n, rng):
        basis = build_algebra(name)
        st = random_state(rng, LatticeSpec(n=n, spacing=0.7), basis)
        h = 0.05
        # 19 steps of h and a last one of h / 2
        final, report = evolve(st, 19.5 * h, h, constraint_tol=np.inf)
        want, want_report = allocating_evolve(st, 19.5 * h, h)
        assert len(report.times) == 21
        assert report.times[-1] - report.times[-2] == pytest.approx(h / 2)
        assert np.array_equal(final.a.data, want.a.data)
        assert np.array_equal(final.e.data, want.e.data)
        assert final.t == want.t
        assert report.times == want_report.times
        assert report.energy == want_report.energy
        assert report.constraint == want_report.constraint

    def test_start_state_read_only_and_unshared(self, su2, lat8, rng):
        st = random_state(rng, lat8, su2)
        a0, e0 = st.a.data.copy(), st.e.data.copy()
        final, _ = evolve(st, 0.5, 0.05, constraint_tol=np.inf)
        assert np.array_equal(st.a.data, a0)
        assert np.array_equal(st.e.data, e0)
        for x in (final.a.data, final.e.data):
            for y in (st.a.data, st.e.data):
                assert not np.shares_memory(x, y)
        assert not np.shares_memory(final.a.data, final.e.data)

    def test_steps_reuse_pool_arrays(self, su2, lat8, rng, monkeypatch):
        # one array for the start's records, taken back by the first step
        # with three more, and two more in the second step, whose input,
        # the first step's output, is still held; none after that, since
        # freed arrays would go back to the system and be faulted in again
        # on every step.  Later records use a free array without taking it,
        # and no force output sits beside the four stage arrays
        fresh = []
        take = FieldPool.take

        def counted(pool):
            fresh.append(not pool.free)
            return take(pool)

        monkeypatch.setattr(FieldPool, "take", counted)
        st = random_state(rng, lat8, su2)
        evolve(st, 10 * 0.05, 0.05, constraint_tol=np.inf)
        assert len(fresh) == 1 + 4 * 10
        assert sum(fresh) == 6
        assert not hasattr(FieldPool(st.a.data.shape), "force")

    def test_evolve_memory(self, su2, monkeypatch):
        # in units of one su2 vector field on 12^3 sites: the run holds
        # six pool arrays, the curvature and a component of scratch, and
        # the records square and form the Gauss residual in a free pool
        # array; a force output and allocating records peaked at 9.28, the
        # allocating loop at 11
        lat = LatticeSpec(n=12, spacing=0.7)
        st = random_state(np.random.default_rng(1), lat, su2, 0.3)
        field = st.a.data.nbytes
        current = []

        def step(*args, **kwargs):
            current.append(tracemalloc.get_traced_memory()[0])
            return rk4_step(*args, **kwargs)

        monkeypatch.setattr(dynamics, "rk4_step", step)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            evolve(st, 10 * 0.05, 0.05, constraint_tol=np.inf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(current) == 10
        assert (peak - held) / field <= 7.75
        # from the third step on, a step leaves nothing field-sized behind
        assert current[9] - current[2] < 0.05 * field


class TestEvolutionReport:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_record_gives_nan(self, bad):
        report = EvolutionReport()
        for t, value in enumerate([1.0, bad, 1.0]):
            report.record(float(t), value, value)
        assert math.isnan(report.energy_drift)
        assert math.isnan(report.constraint_growth)

    def test_finite_records(self):
        report = EvolutionReport()
        for t, value in enumerate([2.0, 2.5, 1.0]):
            report.record(float(t), value, value)
        assert report.energy_drift == 0.5
        assert report.constraint_growth == 0.5

    def test_empty_report(self):
        report = EvolutionReport()
        assert report.energy_drift == 0.0
        assert report.constraint_growth == 0.0
