import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sparse
import scipy.sparse.csgraph as csgraph
from hypothesis import given, settings, strategies as st

from ymspec import spectrum
from ymspec.algebra import build_algebra
from ymspec.errors import (
    ConfigurationError,
    InsufficientDataError,
    NumericalError,
    ResourceError,
)
from ymspec.fock import Csr, FockOperator, build_basis, quantize
from ymspec.spectrum import (
    ConvergenceStudy,
    ModelSpec,
    SpectrumReport,
    assemble_hamiltonian,
    bosonic_spectrum,
    convergence_study,
    gap_analysis,
    n_boson_block,
    number_shift_bound,
    spectrum_summary_json,
)
from ymspec.symbols import ModeMap, cartan_modes, energy_symbol

from oracles import (
    FockVector,
    cartan_generators,
    colour_spatial_swap,
    component_block_eigenvalues,
    component_labels,
    convergence_per_cutoff,
    degree_indices,
    dense_lowest_level,
    expectation,
    from_csr,
    generator_symbol,
    hermiticity_defect,
    is_zero,
    ladder_quantize,
    max_coefficient_diff,
    mirror_levels,
    mode_matrix,
    monomial_substituted_symbol,
    number_operator,
    raise_table_quantize,
    random_symbol,
    real_mode_hamiltonian,
    rotation_by_pi_about_x,
    rotation_generators,
    safe_block_indices,
    safe_cartan_model,
    safe_hamiltonian,
    sector_eigenvalues,
    smoothed_value_fd,
    subset_level_operator,
    subset_zero_weight_operator,
    substituted_symbol,
    to_csr,
    unsplit_number_shift_bound,
    weight_action,
)


def block_levels(h, ns, tol):
    """Lowest levels and multiplicities of the degree-n blocks, solved
    sector by sector."""
    levels = [spectrum._lowest_level(h.matrix, *spectrum._degree_rows(h.basis, n),
                                     tol, h.basis.sectors) for n in ns]
    return [lam for lam, _ in levels], [mult for _, mult in levels]


class TestModelSpec:
    def test_lowest_shell_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(algebra="su2", momentum="lowest-shell")

    def test_bad_sector(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(algebra="su2", sector="chiral")

    def test_mode_counts(self):
        assert ModelSpec(algebra="su2").mode_map().num_modes == 9
        assert ModelSpec(algebra="su3").mode_map().num_modes == 24
        assert ModelSpec(algebra="su2", sector="abelian").mode_map().num_modes == 3


class TestAssemble:
    def test_abelian_matches_ladder_oracle(self, su2):
        # H lives on the zero-weight states of the safe basis, the degree
        # <= N_max - 2 prefix of the full basis, on which the oracle
        # multiplies ladder matrices of the Cartan-mode symbol
        model = ModelSpec(algebra="su2", sector="abelian", N_max=6)
        h = assemble_hamiltonian(model)
        mm = ModeMap.abelian(3)
        modes = cartan_modes(su2, mm)
        full = build_basis(3, 6, weights=modes.weights)
        safe = safe_block_indices(full, 2)
        zero = safe[full.sectors[safe] == 0]
        assert np.array_equal(full.states[zero], h.basis.states)
        sym = energy_symbol(su2, mm, True, modes)
        oracle = ladder_quantize(sym, "antinormal", full)[np.ix_(zero, zero)]
        assert (abs(to_csr(h) - oracle)).max() < 1e-12

    @pytest.mark.parametrize("algebra,N_max", [
        ("su2", 8), ("su3", 4), ("so4", 5), ("so5", 4),
    ])
    def test_safe_basis_matches_full_basis(self, algebra, N_max):
        # the spectrum path quantizes only the rows it reads: C*'s operator
        # holds the zero-weight states of the safe basis, and on them H
        # equals the full-basis quantization of the same Cartan-mode symbol
        # entry by entry, bit for bit, since each entry sums its terms in
        # the same order; the levels and multiplicities, read from the rows
        # of weight code >= 0, are those of the full basis
        model = ModelSpec(algebra=algebra, N_max=N_max)
        h = assemble_hamiltonian(model)
        D = model.mode_map().num_modes
        lie, mm = build_algebra(algebra), model.mode_map()
        modes = cartan_modes(lie, mm)
        sym = energy_symbol(lie, mm, True, modes)
        full = quantize(sym, "antinormal",
                        build_basis(D, N_max, weights=modes.weights))
        safe = safe_block_indices(full.basis, 2)
        assert safe.size == math.comb(D + N_max - 2, D)
        zero = safe[full.basis.sectors[safe] == 0]
        assert np.array_equal(full.basis.states[zero], h.basis.states)
        assert (to_csr(h) != to_csr(full)[np.ix_(zero, zero)]).nnz == 0
        rep = bosonic_spectrum(model)
        assert rep.ns == list(range(N_max - 1))
        full_lams, full_mults = block_levels(full, rep.ns, model.level_tol)
        assert rep.lambdas == pytest.approx(full_lams, rel=1e-12, abs=0)
        assert rep.multiplicities == full_mults
        assert number_shift_bound(h) == pytest.approx(
            number_shift_bound(full), rel=1e-12, abs=0)

    def test_oversize_refused_before_symbol(self, monkeypatch):
        # so5 at N_max = 12: the safe basis has C(40, 10) ~ 8.5e8 states
        calls = []
        monkeypatch.setattr(spectrum, "energy_symbol",
                            lambda *args: calls.append(args))
        with pytest.raises(ResourceError):
            assemble_hamiltonian(ModelSpec(algebra="so5", N_max=12))
        assert calls == []

    def test_su2_vacuum_expectation_positive(self, su2_hamiltonian_nmax8):
        h = su2_hamiltonian_nmax8
        vac = FockVector.vacuum(h.basis)
        val = expectation(h, vac)
        assert abs(val.imag) < 1e-12
        assert val.real > 0.0

    def test_su2_vacuum_against_fd_smoothing_oracle(self, su2, su2_hamiltonian_nmax8):
        # anti-normal vacuum expectation equals the fully smoothed symbol at 0
        h = su2_hamiltonian_nmax8
        vac = FockVector.vacuum(h.basis)
        engine = expectation(h, vac).real
        sym = energy_symbol(su2, ModeMap.zero_momentum(3))
        oracle = smoothed_value_fd(sym, np.zeros(9, dtype=complex), t=1.0)
        assert abs(engine - oracle.real) < 1e-8
        assert abs(engine - 13.5) < 1e-10

    def test_zero_mode_model_rejected(self, su2):
        model = ModelSpec(algebra="su2", N_max=4)

        class Empty(ModelSpec):
            def mode_map(self, basis=None):
                return ModeMap(dim_g=3, labels=())

        empty = Empty(algebra="su2", N_max=4)
        with pytest.raises(ConfigurationError):
            assemble_hamiltonian(empty)
        assert assemble_hamiltonian(model) is not None

    def test_hermitian(self, su2_hamiltonian_nmax8):
        assert hermiticity_defect(su2_hamiltonian_nmax8) < 1e-12


class TestBlocks:
    def test_number_operator_blocks(self):
        basis = build_basis(3, 5)
        n_op = number_operator(basis)
        for n in range(4):
            block = n_boson_block(n_op, n)
            dim = len(degree_indices(basis, n))
            assert block.shape == (dim, dim)
            assert np.abs(block - n * np.eye(dim)).max() < 1e-14

    def test_vacuum_block_is_expectation(self, su2_hamiltonian_nmax8):
        h = su2_hamiltonian_nmax8
        block = n_boson_block(h, 0)
        assert block.shape == (1, 1)
        vac = FockVector.vacuum(h.basis)
        assert abs(block[0, 0] - expectation(h, vac)) < 1e-13

    def test_su2_two_boson_block_dimension(self, su2_hamiltonian_nmax8):
        block = n_boson_block(su2_hamiltonian_nmax8, 2)
        assert block.shape == (45, 45)  # binomial(10, 2)
        assert np.abs(block - block.conj().T).max() < 1e-12

    def test_out_of_range(self, su2_hamiltonian_nmax8):
        with pytest.raises(ConfigurationError):
            n_boson_block(su2_hamiltonian_nmax8, 9)

    def test_beyond_depth_refused(self, su2_hamiltonian_nmax8):
        # degrees 7 and 8 lie inside the cutoff but outside the safe basis
        assert su2_hamiltonian_nmax8.basis.depth == 6
        for n in (7, 8):
            with pytest.raises(ConfigurationError, match="outside 0..6"):
                n_boson_block(su2_hamiltonian_nmax8, n)


class TestBosonicSpectrum:
    def test_abelian_closed_form(self):
        model = ModelSpec(algebra="su2", sector="abelian", N_max=8, n_max=6)
        rep = bosonic_spectrum(model)
        D = 3
        for n, lam in zip(rep.ns, rep.lambdas):
            assert abs(lam - (n + D) / 2.0) < 1e-6
        fit = gap_analysis(rep, number_shift_bound(rep.hamiltonian))
        assert abs(fit.slope - 0.5) < 1e-6
        assert abs(fit.intercept - D / 2.0) < 1e-6

    def test_abelian_quartic_is_zero(self, su2):
        mm = ModeMap.abelian(3)
        quartic = energy_symbol(su2, mm) - energy_symbol(su2, mm, include_magnetic=False)
        assert is_zero(quartic, 0.0)

    def test_su2_gap_and_monotonicity(self, su2_model_nmax8, su2_hamiltonian_nmax8):
        lams, mults = block_levels(
            su2_hamiltonian_nmax8, range(6), su2_model_nmax8.level_tol
        )
        assert all(b > a for a, b in zip(lams, lams[1:]))
        assert lams[1] - lams[0] > 0.5
        assert mults[0] == 1

    def test_number_substitute_levels(self):
        basis = build_basis(4, 6)
        n_op = number_operator(basis)
        for n in range(5):
            block = n_boson_block(n_op, n)
            vals = la.eigh(block, eigvals_only=True)
            assert abs(vals[0] - n) < 1e-13
            mult = int(np.sum(vals <= vals[0] + 1e-8))
            assert mult == len(degree_indices(basis, n))

    def test_variational_consistency(self, su2_model_nmax8, su2_hamiltonian_nmax8, rng):
        h = su2_hamiltonian_nmax8
        for n in (1, 3):
            block = n_boson_block(h, n)
            lam = la.eigh(block, eigvals_only=True)[0]
            dim = block.shape[0]
            samples = rng.normal(size=(200, dim)) + 1j * rng.normal(size=(200, dim))
            quotients = np.einsum("si,ij,sj->s", samples.conj(), block, samples).real
            quotients /= np.einsum("si,si->s", samples.conj(), samples).real
            assert quotients.min() >= lam - 1e-8

    def test_n_max_margin_enforced(self):
        with pytest.raises(ConfigurationError, match="'model.n_max'"):
            ModelSpec(algebra="su2", sector="abelian", N_max=4, n_max=3)

    def test_model_n_max_sets_top_level(self):
        model = ModelSpec(algebra="su2", sector="abelian", N_max=8, n_max=3)
        rep = bosonic_spectrum(model)
        assert rep.ns == [0, 1, 2, 3]
        assert len(rep.lambdas) == 4

    def test_every_level_flagged_converged(self):
        model = ModelSpec(algebra="su2", N_max=6, n_max=4)
        rep = bosonic_spectrum(model)
        assert rep.hamiltonian.basis.N_max == 6
        assert rep.to_csv().splitlines()[1:] == [
            f"{n},{lam:.17g},{mult},1"
            for n, lam, mult in zip(rep.ns, rep.lambdas, rep.multiplicities)
        ]
        cstar = number_shift_bound(rep.hamiltonian)
        doc = json.loads(spectrum_summary_json(rep, gap_analysis(rep, cstar),
                                               cstar))
        assert doc["converged"] == [True] * 5
        assert doc["levels_used"] == 5
        assert doc["number_shift_bound"] == cstar


class TestGapAnalysis:
    def test_number_operator_report(self):
        rep = SpectrumReport(
            ns=list(range(5)),
            lambdas=[float(n) for n in range(5)],
            multiplicities=[1] * 5,
            N_max=6,
            D=3,
        )
        ga = gap_analysis(rep, 0.0)  # C* of the number operator
        assert abs(ga.slope - 1.0) < 1e-12
        assert abs(ga.bound_constant) < 1e-12
        assert abs(ga.margin) < 1e-12
        assert ga.arithmetic_growth

    def test_insufficient_levels(self):
        rep = SpectrumReport(
            ns=[0, 1], lambdas=[1.0, 2.0], multiplicities=[1, 1],
            N_max=4, D=2,
        )
        with pytest.raises(InsufficientDataError):
            gap_analysis(rep, 0.0)

    def test_levels_below_number_shift_bound_fail(self):
        # lambda_n = n + 0.5 fits a line exactly, so the fitted-line margin
        # is 0; against C* = 1 every level lies 0.5 below n + C*
        rep = SpectrumReport(
            ns=list(range(4)),
            lambdas=[n + 0.5 for n in range(4)],
            multiplicities=[1] * 4,
            N_max=6, D=3,
        )
        ga = gap_analysis(rep, 1.0)
        assert ga.slope > 0
        assert ga.margin == pytest.approx(-0.5, abs=1e-12)
        assert not ga.arithmetic_growth
        assert gap_analysis(rep, 0.5).arithmetic_growth

    def test_su2_margin_positive(self, su2_model_nmax8, su2_hamiltonian_nmax8):
        lams, mults = block_levels(
            su2_hamiltonian_nmax8, range(6), su2_model_nmax8.level_tol
        )
        rep = SpectrumReport(ns=list(range(6)), lambdas=lams,
                             multiplicities=mults,
                             N_max=8, D=9)
        cstar = number_shift_bound(su2_hamiltonian_nmax8)
        ga = gap_analysis(rep, cstar)
        assert ga.margin == pytest.approx(
            min(lam - n for n, lam in enumerate(lams)) - cstar, abs=1e-12
        )
        assert ga.margin > 1.0  # lambda_0 - C* = 13.5 - 10.536...
        assert ga.arithmetic_growth


class TestNonAbelianGaps:
    @pytest.mark.parametrize("name,n_levels", [("su3", 3), ("so4", 3)])
    def test_gap_positive_for_every_supported_algebra(self, name, n_levels):
        model = ModelSpec(algebra=name, N_max=4)
        h = assemble_hamiltonian(model)
        lams = []
        for n in range(n_levels):
            lams.append(la.eigh(n_boson_block(h, n), eigvals_only=True)[0])
        assert all(b > a for a, b in zip(lams, lams[1:]))
        assert lams[1] - lams[0] > 0.1


def solver_dtypes(monkeypatch):
    """Record the dtype of every dense matrix handed to the eigensolver."""
    seen = []

    def spy(a, *args, **kwargs):
        seen.append(a.dtype)
        return eigvalsh(a, *args, **kwargs)

    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return seen


class TestRealEigensolve:
    def test_real_hamiltonian_solved_real(self, monkeypatch):
        model = ModelSpec(algebra="su2", N_max=6)
        h = safe_hamiltonian(model)
        assert not h.matrix.data.imag.any()
        complex_levels = [
            np.linalg.eigvalsh(n_boson_block(h, n))[0] for n in range(5)
        ]
        seen = solver_dtypes(monkeypatch)
        lams, _ = block_levels(h, range(5), model.level_tol)
        number_shift_bound(h)  # C*: H - N is real
        # at least one sector per block and one for C*, all real
        assert seen.count(np.dtype(float)) == len(seen) >= 5 + 1
        assert lams == pytest.approx(complex_levels, rel=1e-12)

    def test_complex_symbol_takes_complex_path(self, monkeypatch, rng):
        b = build_basis(3, 8)  # the safe block has 35 states
        q = quantize(random_symbol(rng, 3, 4, hermitian=True, n_terms=12),
                     "normal", b)
        idx = safe_block_indices(b, 4)
        block = q.matrix.toarray()[np.ix_(idx, idx)]
        assert np.abs(block.imag).max() > 0.1
        expected = np.linalg.eigvalsh(block)
        scale = np.abs(expected).max()
        seen = solver_dtypes(monkeypatch)
        lam, mult = spectrum._lowest_level(q.matrix, 0, idx.size, 1e-8,
                                           b.sectors)
        # a basis without weights holds one sector: one complex solve
        assert seen == [np.dtype(complex)]
        assert abs(lam - expected[0]) < 1e-12 * scale
        assert mult == dense_lowest_level(to_csr(q), idx, 1e-8)[1]


class TestLowestLevel:
    def test_su2_levels_closed_form_and_dense_multiplicities(
            self, su2_hamiltonian_nmax8):
        # n = 6 is a 3,003-row block, where a capped Lanczos count reported
        # 15 or 19 copies of the 26-fold level; the oracle solves the whole
        # block of the whole H
        rep = bosonic_spectrum(ModelSpec(algebra="su2", N_max=8, n_max=6))
        closed_form = [13.5 + 2.25 * n + 0.25 * (n % 2) for n in rep.ns]
        assert rep.lambdas == pytest.approx(closed_form, rel=1e-12, abs=0)
        h = su2_hamiltonian_nmax8
        oracle = [dense_lowest_level(to_csr(h), degree_indices(h.basis, n), 1e-8)
                  for n in rep.ns]
        assert rep.multiplicities == [mult for _, mult in oracle]
        assert rep.multiplicities == [1, 9, 10, 51, 19, 66, 26]
        assert rep.lambdas == pytest.approx([lam for lam, _ in oracle],
                                            rel=1e-12)

    def test_repeat_solves_bit_identical(self, su2_hamiltonian_nmax8):
        # the levels land in spectrum.csv, so their digits must repeat
        rows = spectrum._degree_rows(su2_hamiltonian_nmax8.basis, 3)
        runs = {spectrum._lowest_level(su2_hamiltonian_nmax8.matrix, *rows, 1e-8,
                                       su2_hamiltonian_nmax8.basis.sectors)
                for _ in range(4)}
        assert len(runs) == 1

    @pytest.mark.parametrize("block", [
        np.array([[2.0, -1.0], [-1.0, 3.0]]),
        np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]]),
    ])
    def test_two_row_blocks_read_densely(self, block):
        # a complex block is split and filled without a cast or a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam, mult = spectrum._lowest_level(from_csr(block), 0, 2, 1e-8,
                                               np.zeros(2, dtype=int))
        assert abs(lam - np.linalg.eigvalsh(block)[0]) < 1e-12
        assert mult == 1

    def test_vacuum_block_read_directly(self, su2_hamiltonian_nmax8):
        h = su2_hamiltonian_nmax8
        lam, mult = spectrum._lowest_level(h.matrix, 0, 1, 1e-8, h.basis.sectors)
        assert (lam, mult) == (to_csr(h)[0, 0].real, 1)

    def test_su2_multiplicities_pinned(self, su2_hamiltonian_nmax10):
        lams, mults = block_levels(su2_hamiltonian_nmax10, range(9), 1e-8)
        closed_form = [13.5 + 2.25 * n + 0.25 * (n % 2) for n in range(9)]
        assert lams == pytest.approx(closed_form, rel=1e-12, abs=0)
        assert mults == [1, 9, 10, 51, 19, 66, 26, 90, 34]


def csgraph_labels(rows, cols, n):
    """The reference labelling: connected components of the undirected
    graph with an edge between rows[k] and cols[k] for each k."""
    graph = sparse.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return csgraph.connected_components(graph, directed=False)[1]


@st.composite
def edge_lists(draw):
    """n vertices and an edge list with one-sided and repeated edges,
    self-loops and vertices with no edge at all."""
    n = draw(st.integers(1, 40))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    rows = np.array([r for r, _ in edges], dtype=np.int64)
    cols = np.array([c for _, c in edges], dtype=np.int64)
    return rows, cols, n


class TestComponentLabels:
    """The real-mode oracle labels each block's components, which were its
    symmetry sectors before the Cartan modes made them closed-form."""

    @settings(database=None, derandomize=True, deadline=None, max_examples=200)
    @given(graph=edge_lists())
    def test_matches_csgraph(self, graph):
        labels = component_labels(*graph)
        assert labels.dtype.kind == "i"
        assert np.array_equal(labels, csgraph_labels(*graph))

    def test_stored_zero_is_not_an_edge(self, monkeypatch):
        # rows 0 and 1 are joined only by stored zeros, so each is its own
        # 1-row component
        seen = solver_dtypes(monkeypatch)
        zeros = Csr(np.array([0, 2, 4]), np.array([0, 1, 0, 1]),
                    np.array([2.0, 0.0, 0.0, 3.0], dtype=complex))
        vals = component_block_eigenvalues(zeros, 0, 2)
        assert vals.tolist() == [2.0, 3.0]
        assert len(seen) == 2

    def test_one_sided_entry_joins_both_rows(self):
        labels = component_labels(np.array([2]), np.array([0]), 3)
        assert labels.tolist() == [0, 1, 0]

    def test_long_path_in_reverse_order(self):
        # a path whose labels must travel its whole length
        n = 200
        order = np.arange(n)[::-1]
        labels = component_labels(order[:-1], order[1:], n)
        assert np.array_equal(labels, np.zeros(n))

    @pytest.mark.parametrize("N_max", [8, 10])
    def test_su2_number_shift_block(self, N_max, su2_model_nmax8):
        # the real-mode safe block splits into the 32 GF(2) parity sectors
        h = real_mode_hamiltonian(su2_model_nmax8, N_max)
        idx = safe_block_indices(h.basis, 2)
        rows, cols, _ = h.matrix.rows(0, idx.size)
        labels = component_labels(rows, cols, idx.size)
        assert labels.max() + 1 == 32
        assert np.array_equal(labels, csgraph_labels(rows, cols, idx.size))


class TestDirectRows:
    """The level and zero-weight rows, enumerated directly, and H on them
    equal, bit for bit, the rows that FockBasis.subset picks from the whole
    stars-and-bars safe basis and H quantized there, and the level rows'
    orbit sizes those of an orbit search; C*, split by N parity, equals the
    unsplit solve to 1e-12 relative."""

    @pytest.mark.parametrize("algebra,N_max,n_max,sector", [
        ("su2", 6, None, "full"), ("su2", 8, None, "full"),
        ("su2", 10, None, "full"), ("su2", 12, 6, "full"),
        ("su2", 14, 5, "full"), ("su3", 4, None, "full"),
        ("su3", 5, None, "full"), ("so4", 4, None, "full"),
        ("so4", 5, None, "full"), ("so5", 4, None, "full"),
        ("su2", 6, None, "abelian"), ("su2", 8, None, "abelian"),
    ])
    def test_rows_and_operators_match_subset(self, algebra, N_max, n_max,
                                             sector):
        model = ModelSpec(algebra=algebra, N_max=N_max, n_max=n_max,
                          sector=sector)
        sym, weights = spectrum._cartan_model(model)
        basis, oracle_sym = safe_cartan_model(model)
        assert sym.terms == oracle_sym.terms
        assert np.array_equal(weights, basis.weights)
        level, copies = spectrum._level_operator(model, sym, weights)
        want_level, want_copies = subset_level_operator(
            sym, model.convention, basis, model.n_top,
            spectrum._weight_maps(model, weights.shape[1]))
        assert np.array_equal(copies, want_copies)
        for got, want in (
            (spectrum._zero_weight_operator(model, sym, weights),
             subset_zero_weight_operator(sym, model.convention, basis)),
            (level, want_level),
        ):
            assert got.basis.size == want.basis.size > 0
            assert np.array_equal(got.basis.states, want.basis.states)
            assert np.array_equal(got.basis.degrees, want.basis.degrees)
            assert np.array_equal(np.sign(got.basis.sectors),
                                  np.sign(want.basis.sectors))
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got.matrix, part),
                                      getattr(want.matrix, part)), part
        zero = spectrum._zero_weight_operator(model, sym, weights)
        assert (zero.basis.N_max, zero.basis.depth) == (N_max, N_max - 2)
        assert number_shift_bound(zero) == pytest.approx(
            unsplit_number_shift_bound(zero), rel=1e-12, abs=0)

    def test_cap_refuses_the_safe_basis_size(self):
        # the cap and its message are build_basis's on the safe basis,
        # which the spectrum path no longer enumerates
        with pytest.raises(ResourceError) as built:
            build_basis(30, 12, depth=10)
        with pytest.raises(ResourceError) as assembled:
            assemble_hamiltonian(ModelSpec(algebra="so5", N_max=12))
        assert str(assembled.value) == str(built.value)

    def test_su2_cstar_of_degree_12(self):
        # 3,330 zero-weight rows, split 2,034 even and 1,296 odd
        h = assemble_hamiltonian(ModelSpec(algebra="su2", N_max=14))
        assert h.basis.size == 3_330
        assert number_shift_bound(h) == pytest.approx(
            9.916145913549418, rel=1e-12, abs=0)


class TestSectors:
    def test_stored_zero_is_no_leak(self, monkeypatch):
        # rows 0 and 1 lie in two sectors, joined only by stored zeros;
        # sector 1 stands for an orbit of two sectors, so its eigenvalue is
        # listed twice, and the two 1-row sectors take one stacked solve
        seen = solver_dtypes(monkeypatch)
        zeros = Csr(np.array([0, 2, 4]), np.array([0, 1, 0, 1]),
                    np.array([2.0, 0.0, 0.0, 3.0], dtype=complex))
        vals = spectrum._block_eigenvalues(zeros, 0, 2, np.array([0, 1]),
                                           np.array([1, 2]))
        assert vals.tolist() == [2.0, 3.0, 3.0]
        assert len(seen) == 1
        # without copies each sector is listed once
        assert spectrum._block_eigenvalues(
            zeros, 0, 2, np.array([0, 1])).tolist() == [2.0, 3.0]

    def test_entry_joining_sectors_is_numerical(self):
        joined = from_csr(np.array([[2.0, 1e-6], [1e-6, 3.0]]))
        with pytest.raises(NumericalError, match="joins two weight sectors"):
            spectrum._block_eigenvalues(joined, 0, 2, np.array([0, 1]))
        # at most 1e-12 of the block's largest entry, it is roundoff
        tiny = from_csr(np.array([[2.0, 1e-12], [1e-12, 3.0]]))
        assert spectrum._block_eigenvalues(
            tiny, 0, 2, np.array([0, 1])).tolist() == [2.0, 3.0]

    @pytest.mark.parametrize("algebra,N_max", [("su2", 8), ("so4", 5)])
    def test_no_stored_entry_joins_sectors(self, algebra, N_max):
        h = safe_hamiltonian(ModelSpec(algebra=algebra, N_max=N_max))
        rows, cols, _ = h.matrix.rows(0, h.basis.size)
        assert np.array_equal(h.basis.sectors[rows], h.basis.sectors[cols])

    def test_sectors_code_weights_one_to_one(self, su2_hamiltonian_nmax8):
        # as many distinct (weight, sector) pairs as weights and as sectors
        basis = su2_hamiltonian_nmax8.basis
        weights = basis.states @ basis.weights
        pairs = np.unique(np.c_[weights, basis.sectors], axis=0)
        assert (len(pairs) == len(np.unique(weights, axis=0))
                == len(np.unique(basis.sectors)) == 169)
        assert np.array_equal(basis.sectors == 0, ~weights.any(axis=1))

    @pytest.mark.parametrize("N_max,zero_weight", [(8, 157), (10, 506)])
    def test_su2_cstar_solves_zero_weight_rows(
            self, monkeypatch, N_max, zero_weight, su2_hamiltonian_nmax8,
            su2_hamiltonian_nmax10):
        # C* solves the zero-weight rows alone, each N parity apart
        h = {8: su2_hamiltonian_nmax8, 10: su2_hamiltonian_nmax10}[N_max]
        parities = {8: (49, 108), 10: (176, 330)}[N_max]
        zero = h.basis.sectors == 0
        assert np.count_nonzero(zero) == zero_weight == sum(parities)
        assert sorted(np.bincount(h.basis.degrees[zero] % 2)) == list(parities)
        shapes = []

        def spy(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        number_shift_bound(h)
        assert shapes == [(1, n, n) for n in parities]

    @pytest.mark.parametrize("algebra,N_max,sector,n_top", [
        ("su2", 8, "full", 5), ("su3", 4, "full", 2), ("so4", 5, "full", 3),
        ("so5", 4, "full", 2), ("su2", 8, "abelian", 6),
    ])
    def test_mirror_sectors_share_spectrum(self, algebra, N_max, sector,
                                           n_top):
        # the premise of solving only the sectors of code >= 0: in every
        # level block of the whole H, sector mu and sector -mu, each solved
        # on its own, have the same eigenvalues
        h = safe_hamiltonian(ModelSpec(algebra=algebra, N_max=N_max,
                                       sector=sector))
        mirrored = 0
        for n in range(n_top + 1):
            eigs = sector_eigenvalues(h, n)
            assert set(eigs) == {-code for code in eigs}
            scale = max(np.abs(v).max() for v in eigs.values())
            for code, vals in eigs.items():
                if code > 0:
                    assert np.abs(vals - eigs[-code]).max() <= 1e-12 * scale
                    mirrored += 1
        assert mirrored > 0

    @pytest.mark.parametrize("algebra,N_max,sector,n_top", [
        ("su2", 8, "full", 5), ("su3", 4, "full", 2), ("so4", 5, "full", 3),
        ("so5", 4, "full", 2), ("su2", 8, "abelian", 6),
    ])
    def test_mapped_sectors_share_spectrum(self, algebra, N_max, sector,
                                           n_top):
        # the premise of solving one sector per orbit: in every level block
        # of the whole H, sector mu and sector g mu, each solved on its own,
        # have the same eigenvalues, for each map g of _weight_maps; and
        # FockBasis.mapped_sectors codes g mu as FockBasis.sectors does
        model = ModelSpec(algebra=algebra, N_max=N_max, sector=sector)
        h = safe_hamiltonian(model)
        basis = h.basis
        weights = basis.states @ basis.weights
        code_of = dict(zip(map(tuple, weights.tolist()), basis.sectors.tolist()))
        weight_of = {code: np.array(w) for w, code in code_of.items()}
        maps = spectrum._weight_maps(model, basis.weights.shape[1])
        assert len(maps) == (3 if (algebra, sector) == ("su2", "full") else 2)
        for g, images in zip(maps, basis.mapped_sectors(maps).T):
            assert np.array_equal(images, [
                code_of[w] for w in map(tuple, (weights @ g.T).tolist())])
        moved = 0
        for n in range(n_top + 1):
            eigs = sector_eigenvalues(h, n)
            scale = max(np.abs(v).max() for v in eigs.values())
            for g in maps:
                for code, vals in eigs.items():
                    image = code_of[tuple((g @ weight_of[code]).tolist())]
                    assert np.abs(vals - eigs[image]).max() <= 1e-12 * scale
                    moved += image != code
        assert moved > 0

    def test_sector_cap(self, monkeypatch, su2_hamiltonian_nmax8):
        # the cap counts the rows of one sector, not of the block: the
        # degree-5 block has 1,287 rows and its largest sector 39
        h = su2_hamiltonian_nmax8
        rows = spectrum._degree_rows(h.basis, 5)
        monkeypatch.setattr(spectrum, "DENSE_COMPONENT_CAP", 39)
        spectrum._block_eigenvalues(h.matrix, *rows, h.basis.sectors)
        monkeypatch.setattr(spectrum, "DENSE_COMPONENT_CAP", 38)
        with pytest.raises(ResourceError, match="39-dim sector"):
            spectrum._block_eigenvalues(h.matrix, *rows, h.basis.sectors)


class TestRotationSymmetry:
    """H commutes with the quantized generators sum A_mm' a+_m a_m' of the
    colour rotations ad(b_a) and the spatial rotations L_x, L_y, L_z, the
    premise of the zero-weight C*.  Each generator conserves N, so the
    commutator has no truncation edge and is checked on the whole basis."""

    @pytest.mark.parametrize("algebra,N_max,sector", [
        ("su2", 8, "full"), ("su3", 5, "full"), ("so4", 5, "full"),
        ("so5", 4, "full"), ("su2", 8, "abelian"),
    ])
    def test_generators_commute_with_h(self, algebra, N_max, sector):
        model = ModelSpec(algebra=algebra, N_max=N_max, sector=sector)
        h = real_mode_hamiltonian(model)
        lie = build_algebra(algebra)
        big = to_csr(h)
        scale = abs(big).max()
        gens = rotation_generators(lie, model.mode_map(lie),
                                   colour=sector == "full")
        assert len(gens) == (lie.dim_g + 3 if sector == "full" else 3)
        for name, a in gens:
            g = to_csr(quantize(generator_symbol(a), "normal", h.basis))
            assert abs(g).max() > 0.5, name
            comm = big @ g - g @ big
            assert abs(comm).max() <= 1e-12 * scale, name


_REAL_MODE_MAPS = [
    ("su2", "full", "R"), ("su2", "full", "S"), ("su3", "full", "R"),
    ("so4", "full", "R"), ("so5", "full", "R"), ("su2", "abelian", "R"),
]


def real_mode_map(name, mode_map):
    return {"R": rotation_by_pi_about_x,
            "S": colour_spatial_swap}[name](mode_map)


class TestWeightMaps:
    """The maps of _weight_maps come from real-mode maps that leave H
    unchanged: R, the spatial rotation by pi about x, on every model, and
    S, su2's colour-spatial swap; their action on the Cartan weights is
    derived from how they conjugate the Cartan generators (L_z and the
    picked ad(b_i)), and the mirror from complex conjugation."""

    @pytest.mark.parametrize("algebra,sector,name", _REAL_MODE_MAPS)
    def test_map_leaves_real_mode_symbol_unchanged(self, algebra, sector,
                                                   name):
        model = ModelSpec(algebra=algebra, sector=sector)
        lie = build_algebra(algebra)
        mode_map = model.mode_map(lie)
        sym = energy_symbol(lie, mode_map)
        p = real_mode_map(name, mode_map)
        assert np.array_equal(np.abs(p) @ np.abs(p).T, np.eye(len(p)))
        moved = monomial_substituted_symbol(sym, p)
        assert max_coefficient_diff(moved, sym) == 0.0
        if algebra == "su2":  # against the substitution in the symbol ring
            assert max_coefficient_diff(substituted_symbol(sym, p), moved) == 0.0

    @pytest.mark.parametrize("algebra,sector,name", _REAL_MODE_MAPS)
    def test_map_acts_on_weights_as_listed(self, algebra, sector, name):
        # P^T G_i P = sum_j A_ij G_j over the Cartan generators, in the
        # units of the weights, gives the map A on the weights; in the
        # Cartan modes P is monomial, carrying a mode of weight lambda to
        # one of weight A lambda, and A is the map _weight_maps lists
        model = ModelSpec(algebra=algebra, sector=sector)
        lie = build_algebra(algebra)
        mode_map = model.mode_map(lie)
        modes = cartan_modes(lie, mode_map)
        gens = cartan_generators(lie, mode_map)
        u = mode_matrix(modes, mode_map)
        for i, g in enumerate(gens):
            assert np.abs(1j * g @ u - u * modes.weights[:, i]).max() < 1e-12
        p = real_mode_map(name, mode_map)
        a = weight_action(p, gens)
        v = u.conj().T @ p @ u
        on = np.abs(v) > 1e-9
        assert (on.sum(axis=0) == 1).all() and (on.sum(axis=1) == 1).all()
        assert np.abs(np.abs(v[on]) - 1).max() < 1e-12
        image, source = np.nonzero(on)
        assert np.array_equal(modes.weights[image],
                              modes.weights[source] @ a.T)
        maps = spectrum._weight_maps(model, modes.weights.shape[1])
        assert np.array_equal(maps[{"R": 1, "S": 2}[name]], a)

    @pytest.mark.parametrize("algebra,sector", [
        ("su2", "full"), ("su3", "full"), ("so4", "full"), ("so5", "full"),
        ("su2", "abelian"),
    ])
    def test_mirror_is_complex_conjugation(self, algebra, sector):
        # the real-mode symbol is real, so complex conjugation in the real
        # modes leaves H unchanged; it conjugates each Cartan mode
        # (i G u = lambda u gives i G conj(u) = -lambda conj(u)), so it
        # negates every weight
        model = ModelSpec(algebra=algebra, sector=sector)
        lie = build_algebra(algebra)
        mode_map = model.mode_map(lie)
        sym = energy_symbol(lie, mode_map)
        assert not any(c.imag for c in sym.terms.values())
        modes = cartan_modes(lie, mode_map)
        u = mode_matrix(modes, mode_map)
        bar = np.abs(u.T @ u) > 1e-9  # conj(u_k) = phase * u_bar(k)
        image, source = np.nonzero(bar)
        assert np.array_equal(modes.weights[image], -modes.weights[source])
        rank = modes.weights.shape[1]
        assert np.array_equal(spectrum._weight_maps(model, rank)[0],
                              -np.eye(rank))

    def test_swap_with_a_changed_phase_fails(self):
        # negative control: S with a phase of i on one mode changes the
        # symbol (coefficients by 0.5) and the quantized H on the states of
        # degree <= 4 (entries by 5.2)
        lie = build_algebra("su2")
        mode_map = ModeMap.zero_momentum(3)
        sym = energy_symbol(lie, mode_map)
        p = colour_spatial_swap(mode_map).astype(complex)
        p[:, 0] *= 1j
        mutated = monomial_substituted_symbol(sym, p)
        assert max_coefficient_diff(substituted_symbol(sym, p), mutated) == 0.0
        assert max_coefficient_diff(mutated, sym) > 0.1
        basis = build_basis(9, 6, depth=4)
        defect = (to_csr(quantize(mutated, "antinormal", basis))
                  - to_csr(quantize(sym, "antinormal", basis)))
        assert abs(defect).max() > 1.0


# the dense whole-block oracle is run on blocks of at most 2,002 rows, to
# keep the suite fast: on su2 N_max = 8 that leaves out the n = 6 block,
# 3,003 rows, which test_su2_levels_closed_form_and_dense_multiplicities
# reads densely, and C*'s 5,005-row safe block (about 14 s dense), which
# TestScipyBlockOracle solves one component at a time
_DENSE_ORACLE_ROWS = 2002


def _against_oracles(matrix, idx, tol, lam, mult=None):
    """lam, and mult if given, against the dense oracle on the scipy
    compression matrix[idx, idx], if it has at most _DENSE_ORACLE_ROWS
    rows."""
    if idx.size <= _DENSE_ORACLE_ROWS:
        ref_lam, ref_mult = dense_lowest_level(matrix, idx, tol)
        assert lam == pytest.approx(ref_lam, rel=1e-12, abs=0)
        assert mult in (None, ref_mult)


def _levels_against_oracles(q, ns, tol, margin_degree):
    """The levels of q's degree-n blocks and C* against the oracles."""
    for n in ns:
        lo, hi = spectrum._degree_rows(q.basis, n)
        lam, mult = spectrum._lowest_level(q.matrix, lo, hi, tol, q.basis.sectors)
        _against_oracles(to_csr(q), np.arange(lo, hi), tol, lam, mult)
    shifted = to_csr(q) - to_csr(number_operator(q.basis))
    _against_oracles(shifted, safe_block_indices(q.basis, margin_degree), tol,
                     number_shift_bound(q, margin_degree))


class TestAgainstOracles:
    @pytest.mark.parametrize("algebra,N_max", [
        ("su2", 8), ("su3", 4), ("so4", 5), ("so5", 4),
    ])
    def test_levels_and_cstar(self, algebra, N_max):
        # every sector of the whole H, each of code > 0 counted for its
        # mirror too, against the whole blocks
        model = ModelSpec(algebra=algebra, N_max=N_max)
        h = safe_hamiltonian(model)
        _levels_against_oracles(h, range(N_max - 1), model.level_tol, 2)

    def test_complex_symbol(self, rng):
        b = build_basis(3, 8)
        q = quantize(random_symbol(rng, 3, 4, hermitian=True, n_terms=12),
                     "normal", b)
        assert q.matrix.data.imag.any()
        _levels_against_oracles(q, range(5), 1e-8, 4)


class TestOrbitLevels:
    """The levels solved one sector per orbit equal the mirror-only solve
    (weight code >= 0, code > 0 counted twice, tests/oracles.py):
    multiplicities exactly and lambda_n to 1e-14 relative."""

    @pytest.mark.parametrize("algebra,N_max,sector,convention", [
        *[("su2", N, "full", "antinormal") for N in range(4, 13)],
        ("su2", 8, "full", "normal"), ("su2", 8, "full", "weyl"),
        ("su3", 4, "full", "antinormal"), ("su3", 5, "full", "antinormal"),
        ("su3", 6, "full", "antinormal"), ("so4", 4, "full", "antinormal"),
        ("so4", 5, "full", "antinormal"), ("so4", 6, "full", "antinormal"),
        ("so5", 4, "full", "antinormal"), ("so5", 5, "full", "antinormal"),
        ("su2", 8, "abelian", "antinormal"),
    ])
    def test_orbit_levels_match_mirror_levels(self, algebra, N_max, sector,
                                              convention):
        model = ModelSpec(algebra=algebra, N_max=N_max, sector=sector,
                          convention=convention)
        rep = bosonic_spectrum(model)
        lams, mults = mirror_levels(model)
        assert rep.multiplicities == mults
        assert rep.lambdas == pytest.approx(lams, rel=1e-14, abs=0)


class TestScipyBlockOracle:
    """The levels, their multiplicities and C* of the Cartan sector path
    equal, to 1e-12 relative, those of the real-mode path it replaced: H
    quantized term by term in the real modes, its blocks split into the
    components of their pattern, C* solved on every component of the whole
    safe block.  That path first ran on scipy.sparse, and its numpy form
    gave the same bits.  The two operators are unitarily equivalent, not
    equal, so the last digits may differ."""

    @pytest.mark.parametrize("algebra,N_max,sector", [
        ("su2", 8, "full"), ("su3", 4, "full"), ("su3", 5, "full"),
        ("so4", 5, "full"), ("so5", 4, "full"), ("su2", 8, "abelian"),
    ])
    def test_levels_and_cstar(self, algebra, N_max, sector):
        model = ModelSpec(algebra=algebra, N_max=N_max, sector=sector)
        rep = bosonic_spectrum(model)
        basis = build_basis(rep.D, N_max, depth=N_max - 2)
        sym = energy_symbol(build_algebra(algebra), model.mode_map())
        ref = raise_table_quantize(sym, model.convention, basis).matrix
        for n, lam, mult in zip(rep.ns, rep.lambdas, rep.multiplicities):
            idx = degree_indices(basis, n)
            vals = component_block_eigenvalues(ref, idx[0], idx[-1] + 1)
            assert lam == pytest.approx(vals[0], rel=1e-12, abs=1e-12)
            assert mult == np.count_nonzero(vals <= vals[0] + model.level_tol)
        hi = safe_block_indices(basis, 2).size
        want = component_block_eigenvalues(ref, 0, hi,
                                           shift=basis.degrees[:hi])
        assert number_shift_bound(rep.hamiltonian) == pytest.approx(
            want[0], rel=1e-12, abs=1e-12)

    def test_complex_symbol(self, rng):
        # without weights every block is one sector, against the components
        b = build_basis(3, 8)
        s = random_symbol(rng, 3, 4, hermitian=True, n_terms=12)
        q = quantize(s, "normal", b)
        assert q.matrix.data.imag.any()
        ref = raise_table_quantize(s, "normal", b).matrix
        for n in range(5):
            got = spectrum._block_eigenvalues(
                q.matrix, *spectrum._degree_rows(b, n), b.sectors)
            idx = degree_indices(b, n)
            want = component_block_eigenvalues(ref, idx[0], idx[-1] + 1)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        hi = safe_block_indices(b, 4).size
        want = component_block_eigenvalues(ref, 0, hi, shift=b.degrees[:hi])
        assert number_shift_bound(q, 4) == pytest.approx(want[0], rel=1e-12)


class TestSafeBlockTruncationConvergence:
    def test_ground_state_stable_under_refinement(
        self, su2_hamiltonian_nmax8, su2_hamiltonian_nmax10
    ):
        # lowest eigenvalue of the Hamiltonian compressed to the safe block
        # moves < 1% when the cutoff is raised by two
        import scipy.sparse.linalg as spla

        vals = []
        for h in (su2_hamiltonian_nmax8, su2_hamiltonian_nmax10):
            idx = np.flatnonzero(h.basis.degrees <= h.basis.N_max - 2)
            sub = to_csr(h)[np.ix_(idx, idx)].tocsc()
            vals.append(
                float(spla.eigsh(sub, k=1, which="SA",
                                 return_eigenvectors=False)[0])
            )
        assert abs(vals[1] - vals[0]) < 0.01 * abs(vals[0])


class TestNumberShiftBound:
    def test_non_hermitian_operator_rejected(self):
        basis = build_basis(2, 4)
        skew = to_csr(number_operator(basis)).tolil()
        skew[0, 1] = 1.0
        with pytest.raises(NumericalError):
            number_shift_bound(FockOperator(basis, from_csr(skew)))

    @pytest.mark.parametrize("margin", [0, 1, 7, 9])
    def test_margin_past_basis_depth_rejected(self, margin):
        # the safe basis at N_max = 6 holds degree <= 4: margins 0 and 1
        # would bound degrees 6 and 5, which it does not hold; margins past
        # N_max leave no degree at all
        h = assemble_hamiltonian(ModelSpec(algebra="su2", N_max=6))
        assert h.basis.depth == 4
        match = "degrees <= 4" if margin < 2 else "safe block is empty"
        with pytest.raises(ConfigurationError, match=match):
            number_shift_bound(h, margin)
        assert number_shift_bound(h, 2) == pytest.approx(10.97194494150641,
                                                         rel=1e-12)
        assert number_shift_bound(h, 3) == pytest.approx(11.741676, rel=1e-7)

    def test_lanczos_matches_dense(self):
        model = ModelSpec(algebra="su2", N_max=5)
        h = safe_hamiltonian(model)
        shifted = to_csr(h) - to_csr(number_operator(h.basis))
        dense, _ = dense_lowest_level(shifted, safe_block_indices(h.basis, 2),
                                      model.level_tol)
        assert abs(number_shift_bound(h) - dense) < 1e-10 * abs(dense)
        oracle = [dense_lowest_level(to_csr(h), degree_indices(h.basis, n),
                                     model.level_tol) for n in range(4)]
        lams, mults = block_levels(h, range(4), model.level_tol)
        assert lams == pytest.approx([lam for lam, _ in oracle], rel=1e-10)
        assert mults == [mult for _, mult in oracle]

    def test_inequality_on_safe_block(self, su2_hamiltonian_nmax8, rng):
        h = su2_hamiltonian_nmax8
        cstar = number_shift_bound(h)
        assert np.isfinite(cstar)
        n_op = number_operator(h.basis)
        safe = np.flatnonzero(h.basis.degrees <= h.basis.N_max - 2)
        for _ in range(100):
            vec = np.zeros(h.basis.size, dtype=complex)
            vec[safe] = rng.normal(size=safe.size) + 1j * rng.normal(size=safe.size)
            psi = FockVector(h.basis, vec)
            lhs = expectation(h, psi).real
            rhs = expectation(n_op, psi).real + cstar
            assert lhs >= rhs - 1e-9

    def test_repeat_bit_identical(self, su2_model_nmax8,
                                  su2_hamiltonian_nmax8):
        # C* lands in spectrum_summary.json, so its digits must repeat
        fresh = assemble_hamiltonian(su2_model_nmax8)
        runs = {number_shift_bound(h)
                for h in (su2_hamiltonian_nmax8, fresh, fresh)}
        assert len(runs) == 1

    def test_su2_cstar_of_degree_8(self):
        # C*(8), the bound on degree <= 8, from the zero-weight operator at
        # N_max = 10 alone (506 of its 24,310 safe states)
        h = assemble_hamiltonian(ModelSpec(algebra="su2", N_max=10))
        assert h.basis.size == 506
        assert number_shift_bound(h) == pytest.approx(10.255542942942753,
                                                      rel=0, abs=1e-10)

    def test_su2_cstar_by_margin_from_one_operator(self):
        # C*(K), the bound on degree <= K, K = 1..8, read by margin from the
        # N_max = 10 zero-weight operator: each equals a fresh solve at
        # N_max = K + 2 and the ROADMAP baseline row (6 decimals); C* does
        # not increase with K, and odd K adds nothing to the even K below
        # it.  The last digits move with the BLAS thread count, so the
        # comparisons are relative to 1e-12, not bit for bit.
        baseline = {1: 13.5, 2: 11.741676, 3: 11.741676, 4: 10.971945,
                    5: 10.971945, 6: 10.536120, 7: 10.536120, 8: 10.255543}
        h = assemble_hamiltonian(ModelSpec(algebra="su2", N_max=10))
        cstar = {K: number_shift_bound(h, margin_degree=10 - K)
                 for K in baseline}
        for K, value in cstar.items():
            fresh = assemble_hamiltonian(ModelSpec(algebra="su2", N_max=K + 2))
            assert value == pytest.approx(number_shift_bound(fresh),
                                          rel=1e-12, abs=0), K
            assert value == pytest.approx(baseline[K], rel=0, abs=1e-6), K
        for K in range(1, 8):
            assert cstar[K + 1] <= cstar[K] * (1 + 1e-12), K
        for k in (1, 2, 3):
            assert cstar[2 * k + 1] == pytest.approx(cstar[2 * k],
                                                     rel=1e-12, abs=0), k

    def test_hermiticity_check_holds_no_stack_copy(self):
        # C*(10) solves one zero-weight sector of 1,382 rows, 15 MB dense,
        # in its two N parities: its Hermiticity check by row blocks keeps
        # the peak near that one copy (d, d - d^H and their abs over the
        # whole stack held three)
        h = assemble_hamiltonian(ModelSpec(algebra="su2", N_max=12))
        dense = 8 * h.basis.size ** 2
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            cstar = number_shift_bound(h)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert h.basis.size == 1382
        # one ulp below the unsplit solve's 10.060018563539353
        assert cstar == 10.060018563539352
        assert cstar == pytest.approx(unsplit_number_shift_bound(h),
                                      rel=1e-12, abs=0)
        assert peak < 2 * dense

    def test_stability_under_refinement(
        self, su2_hamiltonian_nmax8, su2_hamiltonian_nmax10
    ):
        c8 = number_shift_bound(su2_hamiltonian_nmax8)
        c10 = number_shift_bound(su2_hamiltonian_nmax10)
        assert abs(c10 - c8) <= 0.05 * abs(c8)


class TestConvergenceStudy:
    def test_abelian_block_exact(self):
        model = ModelSpec(algebra="su2", sector="abelian", N_max=4, n_max=2)
        study = convergence_per_cutoff(model, [4, 6, 8])
        assert study.max_rel_change() < 1e-10

    @pytest.mark.parametrize("algebra,convention,N_max", [
        ("su2", "antinormal", 6),
        ("su2", "normal", 6),
        ("su2", "weyl", 6),
        ("so4", "antinormal", 3),
    ])
    def test_interior_blocks_are_truncation_exact(self, algebra, convention,
                                                  N_max):
        # for n <= N_max - 2 every ladder path of a number-conserving quartic
        # monomial stays inside the cutoff, so refining N_max does not move
        # interior levels at all; bosonic_spectrum's exact levels and
        # convergence_study's single solve rely on it
        model = ModelSpec(algebra=algebra, N_max=N_max, n_max=N_max - 2,
                          convention=convention)
        study = convergence_per_cutoff(model, [N_max, N_max + 2])
        assert study.max_rel_change() < 1e-12

    @pytest.mark.parametrize("algebra,sector,convention,N_max_list", [
        ("su2", "full", "antinormal", [4, 6, 8]),
        ("su2", "full", "normal", [4, 6, 8]),
        ("su2", "full", "weyl", [4, 6, 8]),
        ("su2", "abelian", "antinormal", [4, 6, 8]),
        ("so4", "full", "antinormal", [4, 5]),
        ("su3", "full", "antinormal", [4, 5]),
        ("so5", "full", "antinormal", [4, 5]),
    ])
    def test_single_solve_matches_per_cutoff_rebuild(
            self, algebra, sector, convention, N_max_list):
        # the levels solved once equal, bit for bit, those rebuilt and
        # solved at every cutoff; the zero-weight H at each smaller cutoff
        # is the degree <= N - 2 prefix of the one at the largest; and the
        # level operator, which reads only degree <= n_top, is the same at
        # every cutoff
        first = N_max_list[0]
        model = ModelSpec(algebra=algebra, sector=sector, N_max=first,
                          n_max=first - 2, convention=convention)
        study = convergence_study(replace(model, N_max_list=N_max_list))
        reference = convergence_per_cutoff(model, N_max_list)
        assert study.lambdas == reference.lambdas
        assert study.rel_changes == reference.rel_changes
        assert study.to_csv() == reference.to_csv()
        top = assemble_hamiltonian(replace(model, N_max=N_max_list[-1]))
        for N in N_max_list[:-1]:
            h = assemble_hamiltonian(replace(model, N_max=N))
            k = h.basis.size
            assert np.count_nonzero(top.basis.degrees <= N - 2) == k
            assert np.array_equal(h.basis.states, top.basis.states[:k])
            for mine, prefix in zip(h.matrix.rows(0, k), top.matrix.rows(0, k)):
                assert np.array_equal(mine, prefix)

        def level_operator(N):
            cutoff = replace(model, N_max=N)
            return spectrum._level_operator(
                cutoff, *spectrum._cartan_model(cutoff))[0]

        widest = level_operator(N_max_list[-1])
        for N in N_max_list[:-1]:
            level = level_operator(N)
            assert np.array_equal(level.basis.states, widest.basis.states)
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(level.matrix, part),
                                      getattr(widest.matrix, part)), part

    def test_max_rel_change_keeps_nan(self):
        # max() drops a NaN that follows a number: max(0.0, nan) is 0.0
        nan = float("nan")
        study = ConvergenceStudy([4, 6], [0], {4: [nan], 6: [nan]},
                                 {(4, 6): [nan]})
        assert math.isnan(study.max_rel_change())
        study.rel_changes = {(4, 6): [0.25, nan], (6, 8): [0.5]}
        assert math.isnan(study.max_rel_change())
        study.rel_changes = {(4, 6): [0.25, 0.0], (6, 8): [0.5]}
        assert study.max_rel_change() == 0.5
        assert ConvergenceStudy([4], [0], {4: [1.0]}, {}).max_rel_change() == 0.0

    def test_su2_edge_block_grows_toward_exact_value(self, su2,
                                                     su2_hamiltonian_nmax8):
        # at the truncation edge the dropped creation paths are positive
        # contributions, so the truncated level sits below the exact one;
        # the edge block n = 5 of N_max = 6 lies outside the safe basis
        # that assemble_hamiltonian builds, so it is quantized in full
        sym = energy_symbol(su2, ModeMap.zero_momentum(3))
        h6 = quantize(sym, "antinormal", build_basis(9, 6))
        lam6 = la.eigh(n_boson_block(h6, 5), eigvals_only=True)[0]
        lam8 = la.eigh(n_boson_block(su2_hamiltonian_nmax8, 5), eigvals_only=True)[0]
        assert lam6 < lam8

    def test_one_eigensolve_per_level(self, monkeypatch):
        # one block solve per n, whatever the number of cutoffs, on the
        # canonical sector of each orbit (1, 3 and 14 of the 1, 9 and 45
        # states); no multiplicity is counted
        calls = []

        def spy(matrix, lo, hi, *args, **kwargs):
            calls.append(hi - lo)
            return block_eigenvalues(matrix, lo, hi, *args, **kwargs)

        def no_count(*args):
            raise AssertionError("convergence_study counted a multiplicity")

        block_eigenvalues = spectrum._block_eigenvalues
        monkeypatch.setattr(spectrum, "_block_eigenvalues", spy)
        monkeypatch.setattr(spectrum, "_lowest_level", no_count)
        model = ModelSpec(algebra="su2", N_max=4, n_max=2)
        convergence_study(replace(model, N_max_list=[4, 6]))
        assert calls == [1, 3, 14]

    def test_one_symbol_for_every_level(self, monkeypatch):
        # the levels do not depend on N_max: one basis, at the first
        # cutoff, and one energy symbol serve every column
        calls = {"symbol": 0, "basis": 0}

        def spy(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(spectrum, "energy_symbol",
                            spy("symbol", spectrum.energy_symbol))
        monkeypatch.setattr(spectrum, "build_basis",
                            spy("basis", spectrum.build_basis))
        model = ModelSpec(algebra="su2", N_max=4, n_max=2)
        study = convergence_study(replace(model, N_max_list=[4, 6]))
        assert calls == {"symbol": 1, "basis": 1}
        for N in (4, 6):
            h = safe_hamiltonian(model, N_max=N)
            assert study.lambdas[N] == block_levels(h, range(3), 1e-8)[0]

    def test_oversize_level_refused_before_symbol(self, monkeypatch):
        # the one basis built, the first cutoff's, passes the cap before the
        # symbol is built: so5's safe basis at N_max = 12 has ~8.5e8 states
        calls = []
        monkeypatch.setattr(spectrum, "energy_symbol",
                            lambda *args: calls.append(args))
        with pytest.raises(ResourceError):
            convergence_study(ModelSpec(algebra="so5", N_max=4, n_max=2,
                                        N_max_list=[12, 14]))
        assert calls == []

    def test_single_entry_list(self):
        model = ModelSpec(algebra="su2", sector="abelian", N_max=4, n_max=2)
        study = convergence_study(replace(model, N_max_list=[4]))
        assert study.rel_changes == {}
        assert len(study.lambdas[4]) == 3

    def test_non_increasing_list_rejected(self):
        model = ModelSpec(algebra="su2", sector="abelian", N_max=4, n_max=2)
        with pytest.raises(ConfigurationError):
            convergence_study(replace(model, N_max_list=[6, 4]))

    def test_csv_shape(self):
        model = ModelSpec(algebra="su2", sector="abelian", N_max=4, n_max=2)
        study = convergence_study(replace(model, N_max_list=[4, 6]))
        lines = study.to_csv().strip().split("\n")
        assert lines[0] == "n,lambda_Nmax4,lambda_Nmax6"
        assert len(lines) == 4
