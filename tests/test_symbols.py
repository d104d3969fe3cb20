import numpy as np
import pytest

from ymspec.algebra import SpatialAlgebraVector, build_algebra, quartic_contraction
from ymspec.errors import ConfigurationError, DimensionMismatchError
from ymspec.symbols import (
    ModeMap,
    PolynomialSymbol,
    cartan_modes,
    convert,
    energy_symbol,
    number_symbol,
    weierstrass_flow,
)

from oracles import (
    allclose,
    evaluate,
    is_hermitian_symmetric,
    is_zero,
    max_coefficient_diff,
    mode_matrix,
    random_symbol,
    ring_energy_symbol,
    smoothed_value_fd,
    substituted_symbol,
    symbol_from_json,
    symbol_to_json,
)


def zz(D=1, mode=0):
    return PolynomialSymbol.zstar(D, mode) * PolynomialSymbol.z(D, mode)


class TestWeierstrassFlow:
    def test_single_contraction(self):
        out = weierstrass_flow(zz(), 0.7)
        assert out.coefficient((1,), (1,)) == 1.0
        assert out.coefficient((0,), (0,)) == 0.7

    def test_quartic_frozen(self):
        # (z*)^2 z^2 -> (z*)^2 z^2 + 4t z*z + 2t^2
        s = zz() * zz()
        t = 0.3
        out = weierstrass_flow(s, t)
        assert abs(out.coefficient((1,), (1,)) - 4 * t) < 1e-15
        assert abs(out.coefficient((0,), (0,)) - 2 * t * t) < 1e-15

    def test_constant_fixed(self):
        s = PolynomialSymbol.constant(2, 3.5 - 1j)
        out = weierstrass_flow(s, 2.0)
        assert allclose(out, s)

    def test_flow_additivity(self, rng):
        for _ in range(20):
            s = random_symbol(rng, 3, 6)
            a = weierstrass_flow(weierstrass_flow(s, 0.4), -1.1)
            b = weierstrass_flow(s, -0.7)
            assert max_coefficient_diff(a, b) < 1e-12

    def test_top_degree_preserved(self, rng):
        s = random_symbol(rng, 2, 5)
        out = weierstrass_flow(s, 1.0)
        top = s.degree
        for (a, b), coeff in s.terms.items():
            if sum(a) + sum(b) == top:
                assert abs(out.coefficient(a, b) - coeff) < 1e-15

    def test_reality_preservation(self, rng):
        s = random_symbol(rng, 2, 4, hermitian=True)
        assert is_hermitian_symmetric(s)
        assert is_hermitian_symmetric(weierstrass_flow(s, 0.5), 1e-13)


class TestConvert:
    def test_antinormal_to_weyl_of_quadratic(self):
        out = convert(zz(), "antinormal", "weyl")
        assert out.coefficient((0,), (0,)) == 0.5
        assert out.coefficient((1,), (1,)) == 1.0

    def test_cycle_identity(self, rng):
        for _ in range(10):
            s = random_symbol(rng, 2, 6)
            out = convert(convert(s, "normal", "antinormal"), "antinormal", "normal")
            assert max_coefficient_diff(s, out) < 1e-12
            cyc = convert(
                convert(convert(s, "normal", "weyl"), "weyl", "antinormal"),
                "antinormal", "normal",
            )
            assert max_coefficient_diff(s, cyc) < 1e-12

    def test_unknown_convention(self):
        with pytest.raises(ConfigurationError):
            convert(zz(), "normal", "wick")


class TestNumberSymbol:
    def test_normal(self):
        s = number_symbol(3, "normal")
        for m in range(3):
            alpha = tuple(1 if i == m else 0 for i in range(3))
            assert s.coefficient(alpha, alpha) == 1.0
        assert s.coefficient((0, 0, 0), (0, 0, 0)) == 0.0

    def test_resolved_constants(self):
        # ordering-oracle-resolved table for the operator with eigenvalues n
        assert number_symbol(1, "weyl").coefficient((0,), (0,)) == -0.5
        assert number_symbol(1, "antinormal").coefficient((0,), (0,)) == -1.0
        assert number_symbol(4, "weyl").coefficient((0,) * 4, (0,) * 4) == -2.0

    def test_requires_mode(self):
        with pytest.raises(ConfigurationError):
            number_symbol(0, "normal")


class TestEnergySymbol:
    def test_su2_full_model(self, su2, rng):
        mm = ModeMap.zero_momentum(3)
        h = energy_symbol(su2, mm)
        assert h.num_modes == 9
        assert h.degree == 4
        assert is_hermitian_symmetric(h, 1e-12)
        # real points have e = 0, so the value is half the quartic
        for _ in range(5):
            x = rng.normal(size=9)
            a = SpatialAlgebraVector(su2, np.sqrt(2.0) * x.reshape(3, 3))
            val = evaluate(h, x.astype(complex))
            assert abs(val.imag) < 1e-12
            assert abs(val.real - 0.5 * quartic_contraction(a)) < 1e-10

    def test_abelian_sector_is_quadratic(self, su2):
        mm = ModeMap.abelian(3)
        h = energy_symbol(su2, mm)
        assert h.degree == 2
        # no quartic content at all
        quartic = energy_symbol(su2, mm) - energy_symbol(
            su2, mm, include_magnetic=False
        )
        assert is_zero(quartic, 1e-15)

    def test_magnetic_flag(self, su2):
        mm = ModeMap.zero_momentum(3)
        quad = energy_symbol(su2, mm, include_magnetic=False)
        assert quad.degree == 2

    def test_empty_mode_map(self, su2):
        mm = ModeMap(dim_g=3, labels=())
        assert is_zero(energy_symbol(su2, mm))

    def test_mode_map_mismatch(self, su2):
        with pytest.raises(DimensionMismatchError):
            energy_symbol(su2, ModeMap.zero_momentum(8))

    @pytest.mark.parametrize("include_magnetic", [True, False])
    @pytest.mark.parametrize("sector", ["zero", "abelian", "partial", "empty"])
    @pytest.mark.parametrize("name", ["su2", "su3", "so4", "so5"])
    def test_matches_ring_oracle(self, name, sector, include_magnetic):
        basis = build_algebra(name)
        full = ModeMap.zero_momentum(basis.dim_g)
        mode_map = {
            "zero": full,
            "abelian": ModeMap.abelian(basis.dim_g),
            # every other mode dropped: brackets lose some of their terms
            "partial": ModeMap(basis.dim_g, full.labels[::2]),
            "empty": ModeMap(basis.dim_g, ()),
        }[sector]
        new = energy_symbol(basis, mode_map, include_magnetic)
        old = ring_energy_symbol(basis, mode_map, include_magnetic)
        assert new.num_modes == old.num_modes == mode_map.num_modes
        assert set(new.terms) == set(old.terms)
        assert max_coefficient_diff(new, old) <= 1e-15


class TestEmergentMassTerm:
    @pytest.mark.parametrize("name", ["su2", "su3"])
    def test_quadratic_plus_constant(self, name):
        basis = build_algebra(name)
        mm = ModeMap.zero_momentum(basis.dim_g)
        quartic = energy_symbol(basis, mm) - energy_symbol(
            basis, mm, include_magnetic=False
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
        eigs = np.linalg.eigvalsh(kappa)
        assert eigs[0] > 1e-10  # strictly positive on every direction

    def test_su2_unit_mass_coefficient(self, su2):
        # smoothed quartic minus quartic = sum_j |a_j|^2 + 9/4 for su(2)
        mm = ModeMap.zero_momentum(3)
        quartic = energy_symbol(su2, mm) - energy_symbol(
            su2, mm, include_magnetic=False
        )
        diff = convert(quartic, "antinormal", "weyl") - quartic
        const = diff.coefficient((0,) * 9, (0,) * 9)
        assert abs(const - 2.25) < 1e-12
        for m in range(9):
            alpha = tuple(1 if i == m else 0 for i in range(9))
            assert abs(diff.coefficient(alpha, alpha) - 1.0) < 1e-12

    def test_against_fd_oracle(self, su2, rng):
        mm = ModeMap.zero_momentum(3)
        quartic = energy_symbol(su2, mm) - energy_symbol(
            su2, mm, include_magnetic=False
        )
        smoothed = convert(quartic, "antinormal", "weyl")
        for _ in range(3):
            z = rng.normal(size=9) + 1j * rng.normal(size=9)
            engine = evaluate(smoothed, z)
            oracle = smoothed_value_fd(quartic, z, t=0.5)
            assert abs(engine - oracle) < 1e-6 * max(1.0, abs(oracle))


class TestSerialization:
    def test_round_trip(self, rng):
        s = random_symbol(rng, 3, 5)
        out = symbol_from_json(symbol_to_json(s))
        assert max_coefficient_diff(s, out) < 1e-16

    def test_evaluate_shape_check(self):
        with pytest.raises(DimensionMismatchError):
            evaluate(zz(2), np.zeros(3, dtype=complex))


NAMES = ["su2", "su3", "so3", "so4", "so5"]


def cartan_picks(basis, modes):
    """The basis elements whose unit vectors are the weight-0 colour
    columns, the picked Cartan subalgebra."""
    w = modes.weights[:basis.dim_g, :-1]
    kernel = modes.colour[:, ~w.any(axis=1)]
    return tuple(int(np.argmax(np.abs(col))) for col in kernel.T)


def colour_generators(basis, picks):
    return 1j * basis.structure_constants[:, list(picks)].transpose(1, 0, 2)


class TestCartanModes:
    @pytest.mark.parametrize("name,picks", [
        ("su2", (0,)), ("su3", (0, 7)), ("so3", (0,)), ("so4", (0, 5)),
        ("so5", (0, 7)),
    ])
    def test_greedy_cartan_pick(self, name, picks):
        basis = build_algebra(name)
        modes = cartan_modes(basis, ModeMap.zero_momentum(basis.dim_g))
        assert cartan_picks(basis, modes) == picks
        # the weight-0 columns are exactly those unit vectors
        w = modes.weights[:basis.dim_g, :-1]
        assert np.array_equal(modes.colour[:, ~w.any(axis=1)],
                              np.eye(basis.dim_g)[:, list(picks)])
        c = basis.structure_constants
        for i in picks:
            for j in picks:
                assert np.abs(c[:, i, j]).max() == 0.0

    @pytest.mark.parametrize("name", NAMES)
    def test_unitary_paired_joint_eigenvectors(self, name):
        basis = build_algebra(name)
        mm = ModeMap.zero_momentum(basis.dim_g)
        modes = cartan_modes(basis, mm)
        for u, bar in ((modes.spatial, modes.spatial_bar),
                       (modes.colour, modes.colour_bar)):
            n = u.shape[0]
            assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-13
            # column bar[k] is exactly the conjugate of column k
            assert np.array_equal(u.conj(), u[:, bar])
            assert np.array_equal(bar[bar], np.arange(n))
        # i g u_k = w_k u_k for each generator, in units of its smallest
        # nonzero |weight|; the weights of bar(k) are those of k negated
        picks = cartan_picks(basis, modes)
        gens = colour_generators(basis, picks)
        w = modes.weights[:basis.dim_g, :len(picks)]
        for g, wi in zip(gens, w.T):
            unit = np.abs(np.linalg.eigvalsh(g))
            unit = unit[unit > 1e-9].min()
            assert np.abs(g @ modes.colour - unit * modes.colour * wi).max() < 1e-12
        assert np.array_equal(w[modes.colour_bar], -w)
        # the weight-zero colour columns span the Cartan subalgebra
        assert np.count_nonzero(~w.any(axis=1)) == len(picks)

    def test_weights_of_product_modes(self, su2):
        mm = ModeMap.zero_momentum(3)
        modes = cartan_modes(su2, mm)
        # mode (s, g): colour weight of g, then the L_z weight of s
        spatial = modes.weights[::3, 1]
        assert sorted(spatial.tolist()) == [-1, 0, 1]
        assert modes.weights.tolist() == [
            [cw, sw] for sw in spatial for cw in modes.weights[:3, 0]]
        abelian = cartan_modes(su2, ModeMap.abelian(3))
        assert abelian.weights.tolist() == [[sw] for sw in spatial]
        assert np.array_equal(abelian.colour, np.eye(3))

    def test_repeatable(self, so4):
        mm = ModeMap.zero_momentum(6)
        one, two = cartan_modes(so4, mm), cartan_modes(so4, mm)
        assert np.array_equal(one.colour, two.colour)
        assert np.array_equal(one.spatial, two.spatial)

    def test_partial_mode_map_rejected(self, su2):
        full = ModeMap.zero_momentum(3)
        with pytest.raises(ConfigurationError, match="spatial directions"):
            cartan_modes(su2, ModeMap(3, full.labels[::2]))

    @pytest.mark.parametrize("name,sector", [
        ("su2", "zero"), ("so3", "zero"), ("su2", "abelian"), ("so4", "abelian"),
    ])
    @pytest.mark.parametrize("include_magnetic", [True, False])
    def test_matches_substitution_oracle(self, name, sector, include_magnetic):
        # built directly in the Cartan modes, the symbol equals the real
        # symbol with z = U w substituted term by term
        basis = build_algebra(name)
        mm = (ModeMap.zero_momentum(basis.dim_g) if sector == "zero"
              else ModeMap.abelian(basis.dim_g))
        modes = cartan_modes(basis, mm)
        direct = energy_symbol(basis, mm, include_magnetic, modes)
        oracle = substituted_symbol(energy_symbol(basis, mm, include_magnetic),
                                    mode_matrix(modes, mm))
        assert set(direct.terms) == set(oracle.terms)
        assert max_coefficient_diff(direct, oracle) < 1e-13

    @pytest.mark.parametrize("name,terms", [
        ("su2", 269), ("su3", 3520), ("so4", 1434), ("so5", 6342),
    ])
    def test_weight_conserving_terms(self, name, terms):
        basis = build_algebra(name)
        mm = ModeMap.zero_momentum(basis.dim_g)
        modes = cartan_modes(basis, mm)
        s = energy_symbol(basis, mm, True, modes)
        assert len(s.terms) == terms
        for alpha, beta in s.terms:
            assert not ((np.array(alpha) - np.array(beta)) @ modes.weights).any()
        assert is_hermitian_symmetric(s, 1e-13)
