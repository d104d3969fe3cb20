"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its runtime (run pytest with -s to see them).  Numeric
tolerances are pinned here and match the shipped criterion configs."""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy.linalg as la

from ymspec.algebra import (
    SpatialAlgebraVector,
    build_algebra,
    check_structure,
    quartic_contraction,
    quartic_contraction_via_brackets,
)
from ymspec.cli import main, parse_config, seeded_random_state
from ymspec.dynamics import CauchyState, evolve
from ymspec.fock import build_basis, quantize
from ymspec.lattice import (
    LatticeSpec,
    VectorAlgebraField,
    field_norm,
    gauged_div,
    gauged_grad,
    longitudinal_project,
    random_vector_field,
)
from ymspec.spectrum import (
    ModelSpec,
    bosonic_spectrum,
    gap_analysis,
    n_boson_block,
    number_shift_bound,
)
from ymspec.symbols import (
    ModeMap,
    PolynomialSymbol,
    convert,
    energy_symbol,
    weierstrass_flow,
)

from oracles import (
    abelian_wave,
    convergence_per_cutoff,
    evaluate,
    fft_projector_dense,
    field_dot,
    is_zero,
    max_coefficient_diff,
    random_scalar_field,
    random_symbol,
    safe_block_indices,
    smoothed_value_fd,
    to_csr,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@contextmanager
def criterion(num: int, budget_s: float, label: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"\nCRITERION {num}: FAIL ({time.time() - start:.1f}s) {label}")
        raise
    elapsed = time.time() - start
    assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s budget"
    print(f"\nCRITERION {num}: PASS ({elapsed:.1f}s) {label}")


def load_config(name: str):
    return parse_config((CONFIG_DIR / name).read_text())


def test_criterion_1_algebra_laws():
    with criterion(1, 1.0, "algebra laws su2/su3/so4 + quartic double route"):
        rng = np.random.default_rng(1)
        names = ["su2", "su3", "so4"]
        for name in names:
            basis = build_algebra(name)
            report = check_structure(basis)
            assert report.total_antisymmetry < 1e-10
            assert report.jacobi < 1e-10
            assert report.orthonormality < 1e-10
            c = basis.structure_constants
            for _ in range(10):
                x, y, z = rng.normal(size=(3, basis.dim_g))
                zx = np.einsum("kij,i,j->k", c, z, x)
                zy = np.einsum("kij,i,j->k", c, z, y)
                assert abs(zx @ y + x @ zy) < 1e-10
        # 100 random quartic inputs across the three algebras
        count = 0
        while count < 100:
            basis = build_algebra(names[count % 3])
            a = SpatialAlgebraVector(basis, rng.normal(size=(3, basis.dim_g)))
            q1 = quartic_contraction(a)
            q2 = quartic_contraction_via_brackets(a)
            assert abs(q1 - q2) < 1e-10 * max(1.0, abs(q1))
            count += 1


def test_criterion_2_gauged_calculus(su2, lat4):
    with criterion(2, 30.0, "adjointness, projector laws, Fourier Helmholtz"):
        tol = 1e-10
        lat = LatticeSpec(n=8, spacing=1.0)
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = random_vector_field(rng, lat, su2, amplitude=rng.uniform(0.2, 1.0))
            u = random_scalar_field(rng, lat, su2)
            e = random_vector_field(rng, lat, su2)
            lhs = -field_dot(gauged_grad(a, u), e)
            rhs = field_dot(u, gauged_div(a, e))
            assert abs(lhs - rhs) < 1e-11 * max(abs(lhs), abs(rhs))

            pe = longitudinal_project(a, e, tol)
            ppe = longitudinal_project(a, pe, tol)
            e_norm = field_norm(e)
            assert field_norm(
                VectorAlgebraField(lat, su2, ppe.data - pe.data)
            ) <= 10 * tol * e_norm
            f = random_vector_field(rng, lat, su2)
            s1 = field_dot(pe, f)
            s2 = field_dot(e, longitudinal_project(a, f, tol))
            assert abs(s1 - s2) <= 10 * tol * e_norm * field_norm(f)
            resid = gauged_div(
                a, VectorAlgebraField(lat, su2, e.data - pe.data)
            )
            assert field_norm(resid) <= 10 * tol * e_norm

        # dense comparison with the Fourier-space Helmholtz projector on 4^3
        dofs = 3 * su2.dim_g * lat4.sites()
        oracle = fft_projector_dense(lat4, su2.dim_g)
        a0 = VectorAlgebraField.zeros(lat4, su2)
        cg_matrix = np.zeros((dofs, dofs))
        for col in range(dofs):
            unit = np.zeros(dofs)
            unit[col] = 1.0
            field = VectorAlgebraField(
                lat4, su2, unit.reshape(3, su2.dim_g, 4, 4, 4)
            )
            cg_matrix[:, col] = longitudinal_project(a0, field, 1e-12).data.reshape(dofs)
        assert np.abs(cg_matrix - oracle).max() < 1e-8


def test_criterion_3_classical_dynamics(su2):
    with criterion(3, 120.0, "abelian closed form + conservation over 1e3 steps"):
        # abelian standing wave against the discrete-dispersion closed form
        cfg = load_config("criterion3_abelian_wave.json")
        lat = LatticeSpec(n=cfg.lattice.n, spacing=cfg.lattice.spacing)
        a0, e0 = abelian_wave(lat, su2.dim_g, cfg.random.amplitude, 0.0)
        state = CauchyState(
            VectorAlgebraField(lat, su2, a0), VectorAlgebraField(lat, su2, e0)
        )
        final, report = evolve(state, cfg.evolution.T, cfg.evolution.h)
        a_ex, e_ex = abelian_wave(lat, su2.dim_g, cfg.random.amplitude, cfg.evolution.T)
        num = np.sqrt(
            np.sum((final.a.data - a_ex) ** 2) + np.sum((final.e.data - e_ex) ** 2)
        )
        den = np.sqrt(np.sum(a_ex ** 2) + np.sum(e_ex ** 2))
        assert num / den < 1e-4
        assert report.energy_drift < 1e-6

        # random projected non-abelian data over 10^3 steps
        cfg = load_config("criterion3_nonabelian.json")
        state = seeded_random_state(cfg)
        e_scale = field_norm(state.e)
        final, report = evolve(
            state, cfg.evolution.T, cfg.evolution.h,
            constraint_tol=cfg.tolerances.constraint_tol,
        )
        assert len(report.times) - 1 == 1000
        assert report.energy_drift < 1e-6
        assert report.constraint_growth / e_scale < 1e-6


def test_criterion_4_symbol_transforms(su2):
    with criterion(4, 10.0, "flow identities + Weyl number constant + mass term"):
        rng = np.random.default_rng(4)
        for i in range(100):
            D = 1 + (i % 4)
            s = random_symbol(rng, D, 6)
            t1, t2 = rng.uniform(-1, 1, 2)
            two_step = weierstrass_flow(weierstrass_flow(s, t1), t2)
            one_step = weierstrass_flow(s, t1 + t2)
            assert max_coefficient_diff(two_step, one_step) < 1e-12
            back = convert(convert(s, "normal", "antinormal"), "antinormal", "normal")
            assert max_coefficient_diff(back, s) < 1e-12

        # printed Weyl constant of the quadratic number symbol, by smoothing
        # the anti-normal quadratic (the ordering fixed by the Fock oracle)
        for D in (1, 3):
            quad = PolynomialSymbol.zero(D)
            for m in range(D):
                quad = quad + PolynomialSymbol.zstar(D, m) * PolynomialSymbol.z(D, m)
            weyl = convert(quad, "antinormal", "weyl")
            assert abs(weyl.coefficient((0,) * D, (0,) * D) - D / 2.0) < 1e-14

        # emergent mass term of the smoothed su(2) quartic
        mm = ModeMap.zero_momentum(su2.dim_g)
        quartic = energy_symbol(su2, mm) - energy_symbol(
            su2, mm, include_magnetic=False
        )
        diff = convert(quartic, "antinormal", "weyl") - quartic
        assert diff.degree <= 2
        D = mm.num_modes
        kappa = np.zeros((D, D))
        for m in range(D):
            for mp in range(D):
                alpha = tuple(1 if i == m else 0 for i in range(D))
                beta = tuple(1 if i == mp else 0 for i in range(D))
                kappa[m, mp] = diff.coefficient(alpha, beta).real
        assert np.linalg.eigvalsh(kappa)[0] > 1e-12
        smoothed = convert(quartic, "antinormal", "weyl")
        for _ in range(3):
            z = rng.normal(size=D) + 1j * rng.normal(size=D)
            engine = evaluate(smoothed, z)
            oracle = smoothed_value_fd(quartic, z, t=0.5)
            assert abs(engine - oracle) < 1e-6 * max(1.0, abs(oracle))


def test_criterion_5_quantization_oracle():
    with criterion(5, 30.0, "anti-normal route agreement on the safe block"):
        rng = np.random.default_rng(5)
        basis = build_basis(2, 8)
        for _ in range(50):
            s = random_symbol(rng, 2, 4, n_terms=8)
            direct = to_csr(quantize(s, "antinormal", basis))
            via = to_csr(quantize(convert(s, "antinormal", "normal"), "normal", basis))
            safe = safe_block_indices(basis, 4)
            diff = (direct - via)[np.ix_(safe, safe)]
            worst = np.abs(diff.data).max() if diff.nnz else 0.0
            assert worst < 1e-10

        zz = PolynomialSymbol.zstar(2, 0) * PolynomialSymbol.z(2, 0)
        q = quantize(zz, "antinormal", basis)
        safe = safe_block_indices(basis, 2)
        occupation = basis.states[:, 0].astype(float)
        expected = np.diag(occupation + 1.0)
        block = q.matrix.toarray()[np.ix_(safe, safe)]
        assert np.abs(block - expected[np.ix_(safe, safe)]).max() < 1e-12


def test_criterion_6_spectrum_theorem_desk_check(
    su2_model_nmax8, su2_hamiltonian_nmax8, su2_hamiltonian_nmax10
):
    with criterion(6, 600.0, "mass gap, arithmetic growth, truncation stability"):
        cfg = load_config("criterion6_spectrum.json")
        model = cfg.model_spec()
        assert model.N_max == su2_model_nmax8.N_max

        h8, h10 = su2_hamiltonian_nmax8, su2_hamiltonian_nmax10
        lams8, lams10 = [], []
        mults = []
        for n in range(6):
            for h, out in ((h8, lams8), (h10, lams10)):
                vals = la.eigh(n_boson_block(h, n), eigvals_only=True)
                out.append(float(vals[0]))
                if h is h8:
                    mults.append(int(np.sum(vals <= vals[0] + 1e-8)))

        # strictly increasing with a positive gap
        assert all(b > a for a, b in zip(lams8, lams8[1:]))
        gap = lams8[1] - lams8[0]
        assert gap > 0
        assert all(m >= 1 for m in mults)

        # growth certificate: positive fitted slope, and the levels against
        # the number-shift bound, margin min_n (lambda_n - n) - C* >= -1e-8
        ns = np.arange(6, dtype=float)
        slope = np.polyfit(ns, lams8, 1)[0]
        assert slope > 0
        cstar = number_shift_bound(h8)
        assert np.isfinite(cstar)
        margin = min(l - n for n, l in zip(ns, lams8)) - cstar
        assert margin >= -1e-8

        # every level changes < 1% under truncation refinement:
        # interior levels via the 6 -> 8 study, all levels via 8 -> 10.
        # convergence_study solves once and reports 0 by construction, so
        # the 6 -> 8 study rebuilds and solves at each cutoff
        study = convergence_per_cutoff(
            ModelSpec(algebra="su2", N_max=6, n_max=4), [6, 8]
        )
        assert study.max_rel_change() < 0.01
        for l8, l10 in zip(lams8, lams10):
            assert abs(l10 - l8) < 0.01 * abs(l8)

        # expectation inequality <H> >= <N> + C* on 10^3 random safe states
        rng = np.random.default_rng(6)
        basis = h8.basis
        safe = np.flatnonzero(basis.degrees <= basis.N_max - 2)
        n_diag = basis.degrees.astype(float)
        for chunk in range(10):
            block = rng.normal(size=(100, safe.size)) + 1j * rng.normal(
                size=(100, safe.size)
            )
            vecs = np.zeros((100, basis.size), dtype=complex)
            vecs[:, safe] = block
            norms = np.einsum("si,si->s", vecs.conj(), vecs).real
            h_exp = np.einsum("si,si->s", vecs.conj(), (to_csr(h8) @ vecs.T).T).real
            n_exp = np.einsum("si,i,si->s", vecs.conj(), n_diag, vecs).real
            assert np.all(h_exp / norms >= n_exp / norms + cstar - 1e-9)


def test_criterion_7_abelian_control(su2):
    with criterion(7, 60.0, "abelian oscillator linearity, no quartic term"):
        cfg = load_config("criterion7_abelian_control.json")
        model = cfg.model_spec()
        report = bosonic_spectrum(model)
        D = model.mode_map().num_modes
        for n, lam in zip(report.ns, report.lambdas):
            assert abs(lam - (n + D) / 2.0) < 1e-6
        fit = gap_analysis(report, number_shift_bound(report.hamiltonian))
        assert abs(fit.slope - 0.5) < 1e-6
        mm = ModeMap.abelian(su2.dim_g)
        quartic = energy_symbol(su2, mm) - energy_symbol(
            su2, mm, include_magnetic=False
        )
        assert is_zero(quartic, 0.0)


def test_criterion_8_determinism(tmp_path):
    with criterion(8, 600.0, "named configs, byte-identical CSV bodies"):
        config_files = sorted(CONFIG_DIR.glob("criterion*.json"))
        assert len(config_files) >= 11
        for path in config_files:
            cfg = load_config(path.name)  # every config parses strictly
            assert cfg.command in (
                "check-algebra", "project", "evolve", "transform",
                "spectrum", "converge",
            )
        for path in config_files:
            cfg = load_config(path.name)
            bodies = []
            for tag in ("one", "two"):
                outdir = tmp_path / f"{path.stem}_{tag}"
                outdir.mkdir()
                code = main([
                    cfg.command, "--config", str(path), "--out", str(outdir)
                ])
                assert code == 0, f"{path.name} exited {code}"
                csvs = sorted(outdir.glob("*.csv"))
                assert csvs, f"{path.name} produced no CSV"
                bodies.append([(c.name, c.read_bytes()) for c in csvs])
            assert bodies[0] == bodies[1], f"{path.name} CSV bodies differ"
