import json
import math
import tracemalloc

import numpy as np
import pytest

from ymspec import lattice
from ymspec.algebra import build_algebra
from ymspec.cli import _seeded_fields, parse_config
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
    plain_cg_invert,
    plain_cg_transversal,
    random_scalar_field,
    roll_diff,
    stencil_eigenvalue,
    whole_array_random_vector_field,
    zero_gauge_null_patterns,
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
            got = _bracket(basis, x, y, np.zeros(x.shape), 1.0)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
            # -[x, y] added in place into a caller's array
            start = rng.normal(size=x.shape)
            out = start.copy()
            assert _bracket(basis, x, y, out, -1.0) is out
            assert np.abs(out - (start - want)).max() <= 1e-14 * np.abs(want).max()

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
                # the raw difference, which roll_diff gives at spacing 1/2
                out = np.empty(arr.shape)
                assert _diff(arr, axis, out) is out
                assert np.array_equal(out, roll_diff(arr, axis, 0.5))

    def test_diff_rejects_strided_out(self, rng):
        # reshaping a strided out copies it: the copy would get the result
        arr = rng.normal(size=(3, 4, 4, 4))
        out = np.empty((3, 4, 4, 4, 2))[..., 0]
        with pytest.raises(ValueError, match="C-contiguous"):
            _diff(arr, 1, out)


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
        L = lat.n * lat.spacing
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


def _counting_laplacian(monkeypatch):
    """Count the gauged Laplacians applied from here on: the CG matvecs."""
    calls = []
    real = lattice.gauged_laplacian

    def counted(a, u):
        calls.append(1)
        return real(a, u)

    monkeypatch.setattr(lattice, "gauged_laplacian", counted)
    return calls


class TestPreconditionedCG:
    @pytest.mark.parametrize("name", ["su2", "su3"])
    @pytest.mark.parametrize("amplitude", [1e-7, 0.05, 0.5])
    def test_against_plain_cg(self, name, amplitude, rng):
        basis = build_algebra(name)
        lat = LatticeSpec(n=8, spacing=1.0)
        a = random_vector_field(rng, lat, basis, amplitude)
        e = random_vector_field(rng, lat, basis)
        tol = 1e-12
        got = transversal_project(a, e, tol)
        want = plain_cg_transversal(a, e, tol)
        before = constraint_residual(a, e)
        after, want_after = constraint_residual(a, got), constraint_residual(a, want)
        if amplitude > 1e-7:
            assert diff_norm(got, want) <= 1e-8 * field_norm(e)
            assert after <= 10 * tol * before
        else:
            # near a = 0 the global colour rotations are a near-kernel of
            # Laplacian_a (eigenvalues about sigma = 3e-14), so u carries
            # about |div e| / sigma = 1e6 along them: two solves that both
            # meet tol differ by about tol |div e| / sqrt(sigma) in grad u,
            # and roundoff in grad_a u, about 1e-16 |u|, sets the Gauss
            # residual for plain CG as well
            assert diff_norm(got, want) <= 1e-5 * field_norm(e)
            assert after <= max(10 * tol * before, 2 * want_after)
        # sigma = 3 kappa amplitude^2 (kappa = 1 for both) against
        # lambda_1 = sin(pi / 4)^2 = 0.5: only 0.5 takes plain CG, which
        # is then the oracle's iteration on the same kernels, bit for bit
        plain = lattice._flat_preconditioner(a) is None
        assert plain == (amplitude == 0.5)
        if plain:
            f = gauged_div(a, e)
            assert np.array_equal(invert_laplacian(a, f, tol).data,
                                  plain_cg_invert(a, f, tol).data)

    @pytest.mark.parametrize("name,kappa", [
        ("su2", 1), ("su3", 1), ("so4", 2), ("so5", 3),
    ])
    def test_plain_cg_from_lambda_1(self, name, kappa):
        # a_0 = t in every algebra direction: sum |a|^2 = dim_g n^3 t^2,
        # so sigma = kappa t^2, against lambda_1 = (sin(2 pi / 6) / 0.5)^2 = 3
        basis = build_algebra(name)
        lat = LatticeSpec(n=6, spacing=0.5)
        edge = math.sqrt(3.0 / kappa)
        for t, plain in ((0.999 * edge, False), (1.001 * edge, True)):
            a = VectorAlgebraField.zeros(lat, basis)
            a.data[0] = t
            assert (lattice._flat_preconditioner(a) is None) == plain

    def test_one_step_at_zero_background(self, su2, lat8, rng, monkeypatch):
        # at a = 0 the preconditioner is the pseudo-inverse of the operator
        calls = _counting_laplacian(monkeypatch)
        a0 = VectorAlgebraField.zeros(lat8, su2)
        u = random_scalar_field(rng, lat8, su2)
        f = gauged_laplacian(a0, u)
        calls.clear()
        out = invert_laplacian(a0, f, tol=1e-12)
        assert len(calls) == 1
        back = gauged_laplacian(a0, out)
        assert diff_norm(back, f) <= 1e-12 * field_norm(f)

    @pytest.mark.parametrize("name", ["su2", "su3"])
    @pytest.mark.parametrize("n", [8, 7])
    def test_zero_background_against_null_patterns(self, name, n, rng):
        # the null modes are the constant and, for even n, the seven
        # checkerboards; the oracle removes them as real-space sign
        # patterns around plain CG, which the flat spectrum's few distinct
        # eigenvalues end in a few steps.  u excites every Fourier mode
        basis = build_algebra(name)
        lat = LatticeSpec(n=n, spacing=0.7)
        a0 = VectorAlgebraField.zeros(lat, basis)
        f = gauged_laplacian(a0, random_scalar_field(rng, lat, basis,
                                                     max_mode=n // 2))
        got = invert_laplacian(a0, f, 1e-12)
        want = plain_cg_invert(a0, f, 1e-12)
        assert diff_norm(got, want) <= 1e-12 * field_norm(want)

    def test_two_sites_at_zero_background(self, su2, rng):
        # at n = 2 every central difference vanishes: the Laplacian is 0,
        # all of f is null and the flat preconditioner is the identity
        lat = LatticeSpec(n=2, spacing=1.0)
        a0 = VectorAlgebraField.zeros(lat, su2)
        assert lattice._flat_preconditioner(a0) is None
        f = random_scalar_field(rng, lat, su2)
        with pytest.raises(ConsistencyError, match=r"relative size 1\.000e\+00"):
            invert_laplacian(a0, f, TOL)
        out = invert_laplacian(a0, ScalarAlgebraField.zeros(lat, su2), TOL)
        assert np.array_equal(out.data, np.zeros_like(out.data))

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_null_part_threshold(self, su2, lat8, rng, factor):
        # f = g + c P with g = Laplacian u and P a random mix of the null
        # patterns, so g and P are orthogonal; the threshold on |c P| is
        # max(1e-8, 10 tol) |f| = 1e-8 |f|, met with equality by
        # |c P| = 1e-8 |g| / sqrt(1 - 1e-16)
        tol, rel = 1e-10, factor * 1e-8
        a0 = VectorAlgebraField.zeros(lat8, su2)
        g = gauged_laplacian(a0, random_scalar_field(rng, lat8, su2))
        patterns = zero_gauge_null_patterns(lat8.n)
        null = np.tensordot(rng.normal(size=(su2.dim_g, len(patterns))),
                            patterns, axes=1)
        null *= rel / math.sqrt(1 - rel ** 2) * (np.linalg.norm(g.data)
                                                  / np.linalg.norm(null))
        f = ScalarAlgebraField(lat8, su2, g.data + null)
        if factor > 1:
            with pytest.raises(ConsistencyError, match=f"relative size {rel:.3e}"):
                invert_laplacian(a0, f, tol)
        else:
            got, want = invert_laplacian(a0, f, tol), plain_cg_invert(a0, f, tol)
            assert diff_norm(got, want) <= 1e-12 * field_norm(want)

    def test_zero_rhs_takes_no_step(self, su2, lat8, rng, monkeypatch):
        # |f| = 0 meets the stopping test before the first matvec
        calls = _counting_laplacian(monkeypatch)
        a = random_vector_field(rng, lat8, su2, amplitude=0.3)
        out = invert_laplacian(a, ScalarAlgebraField.zeros(lat8, su2), TOL)
        assert not calls and not np.any(out.data)

    def test_iteration_counts(self, monkeypatch):
        # deterministic guards, no wall clock: the matvecs of the start-up
        # projection of the evolve-su2-20 benchmark case (plain CG: 138)
        calls = _counting_laplacian(monkeypatch)
        a, e = _seeded_fields(parse_config(json.dumps({
            "command": "evolve", "algebra": "su2",
            "lattice": {"n": 20, "spacing": math.pi / 10},
            "random": {"amplitude": 1e-7, "max_mode": 1}, "seed": 1})))
        transversal_project(a, e, 1e-12)
        assert len(calls) <= 12
        # and of the project-su3-20 case (sigma = 0.75 >= lambda_1 = 0.096),
        # which keeps plain CG and so the oracle's count
        a, e = _seeded_fields(parse_config(json.dumps({
            "command": "project", "algebra": "su3",
            "lattice": {"n": 20, "spacing": 1.0},
            "random": {"amplitude": 0.5, "max_mode": 2}, "seed": 1})))
        calls.clear()
        transversal_project(a, e, 1e-10)
        got = len(calls)
        calls.clear()
        plain_cg_transversal(a, e, 1e-10)
        assert got == len(calls) == 70


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


    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("name", ["su2", "su3", "so4"])
    def test_caller_buffers_match_allocating_path(self, name, n, rng):
        # evolve forms each record's residual in a free vector-field array
        basis = build_algebra(name)
        lat = LatticeSpec(n=n, spacing=0.7)
        a = random_vector_field(rng, lat, basis, amplitude=0.5)
        e = random_vector_field(rng, lat, basis)
        a0, e0 = a.data.copy(), e.data.copy()
        buf = np.full(e.data.shape, np.nan)
        want_div = gauged_div(a, e)
        div = gauged_div(a, e, buf[0], buf[1])
        assert np.shares_memory(div.data, buf[0])
        assert np.array_equal(div.data, want_div.data)
        buf[:] = np.nan
        results, peaks = [], []
        for scratch in (None, buf):
            tracemalloc.start()
            try:
                results.append(constraint_residual(a, e, scratch))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert results[1] == results[0]
        assert np.array_equal(buf[0], want_div.data)
        # the allocating path holds three scalar fields at once, the
        # buffered one only the bracket kernel's two (n, n, n) rows
        assert peaks[1] < 0.5 * peaks[0]
        assert np.array_equal(a.data, a0)
        assert np.array_equal(e.data, e0)


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

    @staticmethod
    def _payload(field, path):
        save_field(path, field)
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            return header, np.frombuffer(fh.read(), dtype="<f8")

    def test_vector_payload_order(self, su2, rng, tmp_path):
        # read the bytes, not a round trip, which a change made alike on
        # write and read would pass: axes (x, y, z, component, algebra)
        lat = LatticeSpec(n=3, spacing=0.5)
        a = random_vector_field(rng, lat, su2)
        header, payload = self._payload(a, tmp_path / "a.field")
        assert header["field_kind"] == "vector"
        payload = payload.reshape(3, 3, 3, 3, su2.dim_g)
        for x, y, z, k, g in np.ndindex(payload.shape):
            assert payload[x, y, z, k, g] == a.data[k, g, x, y, z]

    def test_scalar_payload_order(self, su2, rng, tmp_path):
        lat = LatticeSpec(n=3, spacing=0.5)
        u = random_scalar_field(rng, lat, su2)
        header, payload = self._payload(u, tmp_path / "u.field")
        assert header["field_kind"] == "scalar"
        payload = payload.reshape(3, 3, 3, su2.dim_g)
        for x, y, z, g in np.ndindex(payload.shape):
            assert payload[x, y, z, g] == u.data[g, x, y, z]

    def test_truncated_payload_refused(self, su2, rng, tmp_path):
        # a su2 3^3 vector field holds 243 values; the last one is cut off
        path = tmp_path / "a.field"
        save_field(path, random_vector_field(rng, LatticeSpec(n=3, spacing=0.5), su2))
        with open(path, "r+b") as fh:
            fh.truncate(path.stat().st_size - 8)
        with pytest.raises(DimensionMismatchError) as info:
            load_field(path)
        message = str(info.value)
        assert str(path) in message
        assert "242 values" in message and "243" in message


class TestSeededFields:
    def test_contiguous_and_bit_identical_to_strided(self, su2, lat4, rng):
        # the real part of each component's transform is written back into
        # the noise, so every kernel reads contiguous data; the projection
        # and the evolution of
        # the pair are those of the stride-16 view the fields once were,
        # bit for bit, so the evolve CSVs keep their bytes
        from ymspec.dynamics import CauchyState, evolve

        a = random_vector_field(rng, lat4, su2, amplitude=0.6, max_mode=1)
        e = random_vector_field(rng, lat4, su2, max_mode=1)
        assert a.data.flags.c_contiguous and e.data.flags.c_contiguous

        def strided(f):
            wide = np.zeros(f.data.shape, dtype=complex)
            wide.real = f.data
            return VectorAlgebraField(f.lattice, f.basis, wide.real)

        sa, se = strided(a), strided(e)
        assert not sa.data.flags.c_contiguous
        got = transversal_project(a, e, 1e-12)
        want = transversal_project(sa, se, 1e-12)
        assert np.array_equal(got.data, want.data)
        runs = [evolve(CauchyState(x, y), 0.2, 0.1)
                for x, y in ((a, got), (sa, want))]
        (fa, ra), (fb, rb) = runs
        assert np.array_equal(fa.a.data, fb.a.data)
        assert np.array_equal(fa.e.data, fb.e.data)
        assert ra.to_csv() == rb.to_csv()

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("name", ["su2", "su3", "so3", "so4", "so5"])
    def test_componentwise_transform_bits(self, name, n):
        basis = build_algebra(name)
        lat = LatticeSpec(n=n, spacing=0.7)
        got = random_vector_field(np.random.default_rng(3), lat, basis, 0.7)
        want = whole_array_random_vector_field(
            np.random.default_rng(3), lat, basis, 0.7)
        assert np.array_equal(got.data, want.data)

    def test_memory(self, su2):
        # in units of the su2 vector field on 12^3 sites it returns: the
        # noise, its square for the RMS and one component's transforms;
        # the whole-array transform peaked at 7
        lat = LatticeSpec(n=12, spacing=0.7)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            field = random_vector_field(rng, lat, su2).data.nbytes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / field <= 3.5
