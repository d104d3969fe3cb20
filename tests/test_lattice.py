import numpy as np
import pytest

from ymspec.algebra import build_algebra
from ymspec.errors import (
    ConfigurationError,
    ConsistencyError,
    DimensionMismatchError,
)
from ymspec.lattice import (
    LatticeSpec,
    ScalarAlgebraField,
    VectorAlgebraField,
    _bracket,
    _diff,
    constraint_residual,
    field_norm,
    gauged_div,
    gauged_grad,
    gauged_laplacian,
    invert_laplacian,
    load_field,
    longitudinal_project,
    random_vector_field,
    save_field,
    transversal_project,
)

from oracles import (
    GaugeGroupField,
    adjoint_transform,
    einsum_bracket,
    exp_gauge,
    fft_longitudinal,
    field_dot,
    gauge_transform,
    random_scalar_field,
    roll_diff,
    stencil_eigenvalue,
)

TOL = 1e-10


def diff_norm(x, y):
    return field_norm(type(x)(x.lattice, x.basis, x.data - y.data))


def _angles(lat):
    theta = 2 * np.pi * np.arange(lat.n) / lat.n
    return (
        theta[:, None, None] * np.ones((lat.n,) * 3),
        theta[None, :, None] * np.ones((lat.n,) * 3),
        theta[None, None, :] * np.ones((lat.n,) * 3),
    )


def _smooth_scalar(lat, basis, amplitude, shift=0.0):
    """Fixed smooth continuum profile sampled on the lattice; identical
    continuum content at every resolution, for convergence-order tests."""
    tx, ty, tz = _angles(lat)
    data = np.zeros((basis.dim_g,) + tx.shape)
    for c in range(basis.dim_g):
        data[c] = amplitude * (
            np.cos(tx + 0.7 * c + shift) * np.sin(ty - 0.4 * c)
            + 0.5 * np.sin(tz + 0.2 * c + shift)
        )
    return ScalarAlgebraField(lat, basis, data)


def _smooth_vector(lat, basis, amplitude, shift=0.0):
    tx, ty, tz = _angles(lat)
    data = np.zeros((3, basis.dim_g) + tx.shape)
    for k in range(3):
        for c in range(basis.dim_g):
            data[k, c] = amplitude * (
                np.sin(tx + 0.5 * k + 0.3 * c + shift)
                + 0.6 * np.cos(ty - 0.2 * k + shift) * np.cos(tz + 0.4 * c)
            )
    return VectorAlgebraField(lat, basis, data)


class TestLatticeSpec:
    def test_volume_factor(self):
        lat = LatticeSpec(n=4, spacing=0.5)
        assert lat.volume_factor == 0.125
        assert lat.extent == 2.0

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            LatticeSpec(n=1, spacing=1.0)
        with pytest.raises(ConfigurationError):
            LatticeSpec(n=4, spacing=0.0)


class TestKernelsMatchOracles:
    @pytest.mark.parametrize("name", ["su2", "su3", "so4", "so5"])
    def test_bracket(self, name, rng):
        basis = build_algebra(name)
        lat = LatticeSpec(n=5, spacing=0.7)
        a = random_vector_field(rng, lat, basis)
        u = random_scalar_field(rng, lat, basis)
        # gauged_grad brackets a_k with a scalar field, _force a_j with a
        # curvature component: both (dim_g, n, n, n)
        for x, y in ((a.data[0], u.data), (a.data[1], a.data[2])):
            want = einsum_bracket(basis, x, y)
            got = _bracket(basis, x, y)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_diff_every_axis(self, n, rng):
        # scalar, vector and gauge-group (n, n, n, d, d) layouts, and a
        # non-contiguous view
        arrays = [rng.normal(size=(3, n, n, n)),
                  rng.normal(size=(3, 3, n, n, n)),
                  rng.normal(size=(n, n, n, 4, 4)),
                  rng.normal(size=(n, n, n, 3)).transpose(3, 0, 1, 2)]
        for arr in arrays:
            for axis in range(arr.ndim):
                np.testing.assert_allclose(
                    _diff(arr, axis, 0.7), roll_diff(arr, axis, 0.7),
                    rtol=1e-15, atol=0,
                )


class TestGaugedCalculus:
    def test_grad_of_constant(self, su2, lat8):
        a = VectorAlgebraField.zeros(lat8, su2)
        u = ScalarAlgebraField(lat8, su2, np.ones((3, 8, 8, 8)))
        assert field_norm(gauged_grad(a, u)) == 0.0

    def test_grad_of_zero(self, su2, lat8, rng):
        a = random_vector_field(rng, lat8, su2)
        u = ScalarAlgebraField.zeros(lat8, su2)
        assert field_norm(gauged_grad(a, u)) == 0.0

    def test_grad_sine_mode(self, su2):
        n = 16
        lat = LatticeSpec(n=n, spacing=0.5)
        L = lat.extent
        x = np.arange(n) * lat.spacing
        u_data = np.zeros((3, n, n, n))
        u_data[0] = np.sin(2 * np.pi * x / L)[:, None, None]
        u = ScalarAlgebraField(lat, su2, u_data)
        g = gauged_grad(VectorAlgebraField.zeros(lat, su2), u)
        # central difference of a sampled sine is the discrete symbol times cosine
        k_discrete = np.sin(2 * np.pi / n) / lat.spacing
        expected = k_discrete * np.cos(2 * np.pi * x / L)[:, None, None]
        assert np.abs(g.data[0, 0] - expected).max() < 1e-13
        assert np.abs(g.data[1]).max() == 0.0
        assert np.abs(g.data[2]).max() == 0.0
        # and the discrete symbol is within O(h^2) of the analytic wavenumber
        assert abs(k_discrete - 2 * np.pi / L) < (2 * np.pi / L) ** 3 * lat.spacing ** 2

    def test_div_of_constant(self, su2, lat8):
        a = VectorAlgebraField.zeros(lat8, su2)
        e = VectorAlgebraField(lat8, su2, np.ones((3, 3, 8, 8, 8)))
        assert field_norm(gauged_div(a, e)) == 0.0

    def test_div_brackets_cancel_for_equal_fields(self, su2, lat8, rng):
        a = random_vector_field(rng, lat8, su2)
        div_full = gauged_div(a, a)
        div_plain = ScalarAlgebraField(
            lat8, su2, sum(roll_diff(a.data[k], 1 + k, lat8.spacing) for k in range(3))
        )
        assert diff_norm(div_full, div_plain) < 1e-13

    def test_adjointness(self, su2, lat8, rng):
        for _ in range(10):
            a = random_vector_field(rng, lat8, su2, amplitude=rng.uniform(0.1, 2))
            u = random_scalar_field(rng, lat8, su2)
            e = random_vector_field(rng, lat8, su2)
            lhs = -field_dot(gauged_grad(a, u), e)
            rhs = field_dot(u, gauged_div(a, e))
            assert abs(lhs - rhs) < 1e-11 * max(abs(lhs), abs(rhs), 1.0)

    def test_laplacian_mode_eigenvalue(self, su2):
        lat = LatticeSpec(n=8, spacing=0.7)
        mode = (2, 1, 3)
        x = np.arange(8)
        phase = 2 * np.pi * (
            mode[0] * x[:, None, None]
            + mode[1] * x[None, :, None]
            + mode[2] * x[None, None, :]
        ) / 8
        u_data = np.zeros((3, 8, 8, 8))
        u_data[1] = np.cos(phase)
        u = ScalarAlgebraField(lat, su2, u_data)
        lap = gauged_laplacian(VectorAlgebraField.zeros(lat, su2), u)
        lam = -sum(np.sin(2 * np.pi * m / 8) ** 2 for m in mode) / 0.7 ** 2
        assert abs(lam - stencil_eigenvalue(lat, mode)) < 1e-15
        assert np.abs(lap.data - lam * u.data).max() < 1e-12

    def test_laplacian_negative(self, su2, lat8, rng):
        a = random_vector_field(rng, lat8, su2)
        u = random_scalar_field(rng, lat8, su2)
        assert field_dot(u, gauged_laplacian(a, u)) <= 0.0

    def test_lattice_mismatch(self, su2, lat8, lat4):
        a = VectorAlgebraField.zeros(lat8, su2)
        u = ScalarAlgebraField.zeros(lat4, su2)
        with pytest.raises(DimensionMismatchError):
            gauged_grad(a, u)


class TestInvertLaplacian:
    def test_round_trip(self, su2, lat8, rng):
        a = random_vector_field(rng, lat8, su2, amplitude=0.8)
        u = random_scalar_field(rng, lat8, su2)
        f = gauged_laplacian(a, u)
        out = invert_laplacian(a, f, tol=1e-12)
        assert diff_norm(out, u) < 1e-9 * field_norm(u)

    def test_fourier_mode_division(self, su2, lat8):
        n = lat8.n
        x = np.arange(n)
        mode = (1, 2, 0)
        phase = 2 * np.pi * (
            mode[0] * x[:, None, None]
            + mode[1] * x[None, :, None]
            + mode[2] * x[None, None, :]
        ) / n
        f_data = np.zeros((3, n, n, n))
        f_data[0] = np.cos(phase)
        f = ScalarAlgebraField(lat8, su2, f_data)
        a0 = VectorAlgebraField.zeros(lat8, su2)
        u = invert_laplacian(a0, f, tol=1e-12)
        lam = -sum(np.sin(2 * np.pi * m / n) ** 2 for m in mode) / lat8.spacing ** 2
        assert np.abs(u.data - f.data / lam).max() < 1e-9

    def test_constant_rhs_rejected(self, su2, lat8):
        a0 = VectorAlgebraField.zeros(lat8, su2)
        f = ScalarAlgebraField(lat8, su2, np.ones((3, 8, 8, 8)))
        with pytest.raises(ConsistencyError):
            invert_laplacian(a0, f, tol=1e-10)

    def test_checkerboard_rhs_rejected(self, su2, lat8):
        a0 = VectorAlgebraField.zeros(lat8, su2)
        pattern = (-1.0) ** np.arange(8)
        f_data = np.zeros((3, 8, 8, 8))
        f_data[0] = pattern[:, None, None] * pattern[None, :, None] * pattern[None, None, :]
        with pytest.raises(ConsistencyError):
            invert_laplacian(a0, ScalarAlgebraField(lat8, su2, f_data), tol=1e-10)


class TestProjector:
    def test_reproduces_gradients(self, su2, lat8, rng):
        a = random_vector_field(rng, lat8, su2, amplitude=0.6)
        u = random_scalar_field(rng, lat8, su2)
        grad = gauged_grad(a, u)
        proj = longitudinal_project(a, grad, TOL)
        assert diff_norm(proj, grad) < 10 * TOL * field_norm(grad) + 1e-9

    def test_constant_field_is_transversal(self, su2, lat8):
        a0 = VectorAlgebraField.zeros(lat8, su2)
        e = VectorAlgebraField(lat8, su2, np.ones((3, 3, 8, 8, 8)))
        proj = longitudinal_project(a0, e, TOL)
        assert field_norm(proj) < 1e-9

    def test_idempotency_symmetry_annihilation(self, su2, lat8, rng):
        a = random_vector_field(rng, lat8, su2, amplitude=0.7)
        e = random_vector_field(rng, lat8, su2)
        f = random_vector_field(rng, lat8, su2)
        pe = longitudinal_project(a, e, TOL)
        ppe = longitudinal_project(a, pe, TOL)
        assert diff_norm(ppe, pe) <= 10 * TOL * field_norm(e)
        s1 = field_dot(pe, f)
        s2 = field_dot(e, longitudinal_project(a, f, TOL))
        scale = field_norm(e) * field_norm(f)
        assert abs(s1 - s2) <= 10 * TOL * scale
        t = transversal_project(a, e, TOL)
        assert field_norm(gauged_div(a, t)) <= 10 * TOL * field_norm(e)

    def test_transversal_fixed_point(self, su2, lat8, rng):
        a = random_vector_field(rng, lat8, su2, amplitude=0.5)
        e = random_vector_field(rng, lat8, su2)
        t = transversal_project(a, e, TOL)
        t2 = transversal_project(a, t, TOL)
        assert diff_norm(t2, t) < 10 * TOL * field_norm(e)

    def test_gradient_annihilated(self, su2, lat8, rng):
        a = random_vector_field(rng, lat8, su2, amplitude=0.5)
        u = random_scalar_field(rng, lat8, su2)
        grad = gauged_grad(a, u)
        t = transversal_project(a, grad, TOL)
        assert field_norm(t) < 10 * TOL * field_norm(grad) + 1e-9

    def test_matches_fourier_helmholtz(self, su2, lat4, rng):
        a0 = VectorAlgebraField.zeros(lat4, su2)
        for _ in range(5):
            e = random_vector_field(rng, lat4, su2, max_mode=2)
            cg = longitudinal_project(a0, e, tol=1e-12)
            oracle = fft_longitudinal(lat4, e.data)
            assert np.abs(cg.data - oracle).max() < 1e-8

    def test_mixture_split(self, su2, lat8, rng):
        # gradient mode plus a curl-type transverse mode: projector keeps
        # exactly the gradient part
        a0 = VectorAlgebraField.zeros(lat8, su2)
        u = random_scalar_field(rng, lat8, su2)
        grad = gauged_grad(a0, u)
        n = lat8.n
        x = np.arange(n)
        trans = np.zeros((3, 3, n, n, n))
        trans[1, 0] = np.cos(2 * np.pi * x / n)[:, None, None]  # div-free
        e = VectorAlgebraField(lat8, su2, grad.data + trans)
        proj = longitudinal_project(a0, e, TOL)
        assert diff_norm(proj, grad) < 1e-8 * max(1.0, field_norm(e))


class TestConstraintResidual:
    def test_zero_field(self, su2, lat8):
        a = VectorAlgebraField.zeros(lat8, su2)
        assert constraint_residual(a, a) == 0.0

    def test_projected_is_small_gradient_is_positive(self, su2, lat8, rng):
        a = random_vector_field(rng, lat8, su2, amplitude=0.5)
        e = random_vector_field(rng, lat8, su2)
        t = transversal_project(a, e, TOL)
        assert constraint_residual(a, t) < 10 * TOL * field_norm(e)
        u = random_scalar_field(rng, lat8, su2)
        grad = gauged_grad(a, u)
        assert constraint_residual(a, grad) > 1e-3 * field_norm(grad)


class TestGaugeTransform:
    def test_identity(self, su2, lat8, rng):
        a = random_vector_field(rng, lat8, su2)
        g = GaugeGroupField.identity(lat8, su2)
        out = gauge_transform(g, a)
        assert np.abs(out.data - a.data).max() < 1e-14

    def test_constant_rotation_preserves_norm(self, su2, lat8, rng):
        a = random_vector_field(rng, lat8, su2)
        phi_data = np.broadcast_to(
            rng.normal(size=3)[:, None, None, None], (3, 8, 8, 8)
        ).copy()
        g = exp_gauge(ScalarAlgebraField(lat8, su2, 0.4 * phi_data))
        out = gauge_transform(g, a)
        assert abs(field_norm(out) - field_norm(a)) < 1e-10 * field_norm(a)

    def test_pure_gauge_from_zero(self, su2, lat8, rng):
        phi = random_scalar_field(rng, lat8, su2, amplitude=0.3, max_mode=1)
        g = exp_gauge(phi)
        zero = VectorAlgebraField.zeros(lat8, su2)
        pure = gauge_transform(g, zero)
        assert field_norm(pure) > 0.0
        # undoing with g^-1 recovers zero up to the discrete product rule
        back = gauge_transform(g.inverse(), pure)
        assert field_norm(back) < 0.05 * field_norm(pure)

    def test_composition_law_within_discretization(self, su2):
        errs = []
        for n in (8, 16):
            lat = LatticeSpec(n=n, spacing=8.0 / n)
            phi1 = _smooth_scalar(lat, su2, 0.3, shift=0.0)
            phi2 = _smooth_scalar(lat, su2, 0.3, shift=1.0)
            g1, g2 = exp_gauge(phi1), exp_gauge(phi2)
            a = _smooth_vector(lat, su2, 0.5)
            one = gauge_transform(g1.compose(g2), a)
            two = gauge_transform(g1, gauge_transform(g2, a))
            errs.append(diff_norm(one, two) / field_norm(a))
        assert errs[1] < errs[0] / 2.5  # second-order stencils
        assert errs[0] < 0.2

    def test_invalid_gauge_field_rejected(self, su2, lat8):
        bad = GaugeGroupField.identity(lat8, su2)
        bad.data[0, 0, 0] *= 2.0
        a = VectorAlgebraField.zeros(lat8, su2)
        with pytest.raises(ConfigurationError):
            gauge_transform(bad, a)

    def test_residual_gauge_covariance(self, su2):
        errs = []
        for n in (8, 16):
            lat = LatticeSpec(n=n, spacing=8.0 / n)
            a = _smooth_vector(lat, su2, 0.5)
            e = _smooth_vector(lat, su2, 0.5, shift=2.0)
            phi = _smooth_scalar(lat, su2, 0.3)
            g = exp_gauge(phi)
            r1 = constraint_residual(a, e)
            r2 = constraint_residual(gauge_transform(g, a), adjoint_transform(g, e))
            errs.append(abs(r1 - r2) / r1)
        assert errs[1] < errs[0] / 2.0
        assert errs[0] < 0.2


class TestFieldSerialization:
    def test_vector_round_trip(self, su2, lat4, rng, tmp_path):
        a = random_vector_field(rng, lat4, su2)
        path = tmp_path / "a.field"
        save_field(path, a)
        back = load_field(path)
        assert isinstance(back, VectorAlgebraField)
        assert back.lattice == a.lattice
        assert back.basis.name == "su2"
        assert np.array_equal(back.data, a.data)

    def test_scalar_round_trip(self, su2, lat4, rng, tmp_path):
        u = random_scalar_field(rng, lat4, su2)
        path = tmp_path / "u.field"
        save_field(path, u)
        back = load_field(path)
        assert isinstance(back, ScalarAlgebraField)
        assert np.array_equal(back.data, u.data)
