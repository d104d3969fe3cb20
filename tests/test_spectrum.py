import json
import math
import warnings

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sparse
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from ymspec import spectrum
from ymspec.algebra import build_algebra
from ymspec.errors import (
    ConfigurationError,
    InsufficientDataError,
    NumericalError,
    ResourceError,
)
from ymspec.fock import Csr, FockOperator, build_basis, quantize, safe_block_indices
from ymspec.spectrum import (
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
from ymspec.symbols import ModeMap, energy_symbol

from oracles import (
    FockVector,
    certified_minimum,
    count_below,
    dense_lowest_level,
    expectation,
    from_csr,
    hermiticity_defect,
    ladder_quantize,
    lanczos_lowest_level,
    number_operator,
    random_symbol,
    smoothed_value_fd,
    sparse_block_eigenvalues,
    sparse_component_labels,
    sparse_quantize,
    to_csr,
)


def block_levels(h, ns, tol):
    """Lowest levels and multiplicities of the degree-n blocks."""
    levels = [spectrum._lowest_level(h.matrix, *spectrum._degree_rows(h.basis, n),
                                     tol) for n in ns]
    return [lam for lam, _ in levels], [mult for _, mult in levels]


class TestModelSpec:
    def test_lowest_shell_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(algebra="su2", momentum="lowest-shell")

    def test_bad_sector(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(algebra="su2", sector="chiral")

    def test_mode_counts(self):
        assert ModelSpec(algebra="su2").num_modes == 9
        assert ModelSpec(algebra="su3").num_modes == 24
        assert ModelSpec(algebra="su2", sector="abelian").num_modes == 3


class TestAssemble:
    def test_abelian_matches_ladder_oracle(self, su2):
        # H lives on the safe basis, the degree <= N_max - 2 prefix of the
        # full basis, on which the oracle multiplies ladder matrices
        model = ModelSpec(algebra="su2", sector="abelian", N_max=6)
        h = assemble_hamiltonian(model)
        full = build_basis(3, 6)
        safe = safe_block_indices(full, 2)
        assert np.array_equal(full.states[safe], h.basis.states)
        sym = energy_symbol(su2, ModeMap.abelian(3))
        oracle = ladder_quantize(sym, "antinormal", full)[np.ix_(safe, safe)]
        assert (abs(to_csr(h) - oracle)).max() < 1e-12

    @pytest.mark.parametrize("algebra,N_max", [
        ("su2", 8), ("su3", 4), ("so4", 5), ("so5", 4),
    ])
    def test_safe_basis_matches_full_basis(self, algebra, N_max):
        # the safe basis holds only the states the levels and C* read; on
        # them, H equals the full-basis quantization entry by entry, bit
        # for bit, since each entry sums its terms in the same order
        model = ModelSpec(algebra=algebra, N_max=N_max)
        h = assemble_hamiltonian(model)
        D = model.num_modes
        assert h.basis.size == math.comb(D + N_max - 2, D)
        sym = energy_symbol(build_algebra(algebra), model.mode_map())
        full = quantize(sym, "antinormal", build_basis(D, N_max))
        safe = safe_block_indices(full.basis, 2)
        assert np.array_equal(full.basis.states[safe], h.basis.states)
        assert (to_csr(h) != to_csr(full)[np.ix_(safe, safe)]).nnz == 0
        ns = range(N_max - 1)
        lams, mults = block_levels(h, ns, model.level_tol)
        full_lams, full_mults = block_levels(full, ns, model.level_tol)
        assert lams == pytest.approx(full_lams, rel=1e-12, abs=0)
        assert mults == full_mults
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
            dim = len(basis.degree_indices(n))
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
        assert quartic.is_zero(0.0)

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
            assert mult == len(basis.degree_indices(n))

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
        model = ModelSpec(algebra="su2", sector="abelian", N_max=4, n_max=3)
        with pytest.raises(ConfigurationError):
            bosonic_spectrum(model)

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
        h = assemble_hamiltonian(model)
        assert not h.matrix.data.imag.any()
        complex_levels = [
            np.linalg.eigvalsh(n_boson_block(h, n))[0] for n in range(5)
        ]
        seen = solver_dtypes(monkeypatch)
        lams, _ = block_levels(h, range(5), model.level_tol)
        number_shift_bound(h)  # C*: H - N is real
        # at least one component per block and one for C*, all real
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
        lam, mult = spectrum._lowest_level(q.matrix, 0, idx.size, 1e-8)
        # the random symbol couples 33 of the 35 states; two are isolated
        assert seen == [np.dtype(complex)] * 3
        assert abs(lam - expected[0]) < 1e-12 * scale
        assert mult == dense_lowest_level(to_csr(q), idx, 1e-8)[1]


class TestLowestLevel:
    def test_su2_levels_closed_form_and_dense_multiplicities(self):
        # n = 6 is a 3,003-row block, where a capped Lanczos count reported
        # 15 or 19 copies of the 26-fold level
        rep = bosonic_spectrum(ModelSpec(algebra="su2", N_max=8, n_max=6))
        closed_form = [13.5 + 2.25 * n + 0.25 * (n % 2) for n in rep.ns]
        assert rep.lambdas == pytest.approx(closed_form, rel=1e-12, abs=0)
        h = rep.hamiltonian
        oracle = [dense_lowest_level(to_csr(h), h.basis.degree_indices(n), 1e-8)
                  for n in rep.ns]
        assert rep.multiplicities == [mult for _, mult in oracle]
        assert rep.multiplicities == [1, 9, 10, 51, 19, 66, 26]
        assert rep.lambdas == pytest.approx([lam for lam, _ in oracle],
                                            rel=1e-12)

    def test_repeat_solves_bit_identical(self, su2_hamiltonian_nmax8):
        # the levels land in spectrum.csv, so their digits must repeat
        rows = spectrum._degree_rows(su2_hamiltonian_nmax8.basis, 3)
        runs = {spectrum._lowest_level(su2_hamiltonian_nmax8.matrix, *rows, 1e-8)
                for _ in range(4)}
        assert len(runs) == 1

    @pytest.mark.parametrize("block", [
        np.array([[2.0, -1.0], [-1.0, 3.0]]),
        np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]]),
    ])
    def test_two_row_blocks_read_densely(self, block):
        # the components are labelled from the sparsity pattern, so a
        # complex block is labelled without a cast or a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam, mult = spectrum._lowest_level(from_csr(block), 0, 2, 1e-8)
        assert abs(lam - np.linalg.eigvalsh(block)[0]) < 1e-12
        assert mult == 1

    def test_vacuum_block_read_directly(self, su2_hamiltonian_nmax8):
        h = su2_hamiltonian_nmax8
        lam, mult = spectrum._lowest_level(h.matrix, 0, 1, 1e-8)
        assert (lam, mult) == (to_csr(h)[0, 0].real, 1)

    # the Lanczos oracle's certificate: a wrong minimum, a pivoted or
    # singular inertia factor are each a NumericalError

    def test_wrong_minimum_is_numerical(self, monkeypatch,
                                        su2_hamiltonian_nmax8):
        # a Lanczos value above the true minimum fails the inertia check
        idx = su2_hamiltonian_nmax8.basis.degree_indices(3)  # lambda = 20.5
        monkeypatch.setattr(spla, "eigsh",
                            lambda *args, **kwargs: np.array([21.0]))
        with pytest.raises(NumericalError, match="51 eigenvalues"):
            lanczos_lowest_level(to_csr(su2_hamiltonian_nmax8), idx, 1e-8)

    def test_count_below_is_inertia(self, rng):
        vals = np.array([-2.0, -1.0, 0.5, 0.5, 3.0])
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        a = sparse.csr_matrix((q * vals) @ q.T)
        counts = [count_below(a, s) for s in (-3, -1.5, 0, 1, 4)]
        assert counts == [0, 1, 2, 4, 5]

    def test_pivoted_factor_is_numerical(self):
        # a zero diagonal forces SuperLU off the diagonal, which breaks the
        # symmetric factorization the inertia count relies on
        swap = sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(NumericalError, match="pivoted"):
            count_below(swap, 0.0)

    def test_singular_factor_is_numerical(self):
        diag = sparse.diags([1.0, 2.0]).tocsr()
        with pytest.raises(NumericalError, match="failed"):
            count_below(diag, 1.0)

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
    @settings(database=None, derandomize=True, deadline=None, max_examples=200)
    @given(graph=edge_lists())
    def test_matches_csgraph(self, graph):
        labels = spectrum._component_labels(*graph)
        assert labels.dtype.kind == "i"
        assert np.array_equal(labels, csgraph_labels(*graph))

    def test_stored_zero_is_not_an_edge(self, monkeypatch):
        # rows 0 and 1 are joined only by stored zeros, so each is its own
        # 1-row component
        seen = solver_dtypes(monkeypatch)
        zeros = Csr(np.array([0, 2, 4]), np.array([0, 1, 0, 1]),
                    np.array([2.0, 0.0, 0.0, 3.0], dtype=complex))
        vals = spectrum._block_eigenvalues(zeros, 0, 2)
        assert vals.tolist() == [2.0, 3.0]
        assert len(seen) == 2

    def test_one_sided_entry_joins_both_rows(self):
        labels = spectrum._component_labels(np.array([2]), np.array([0]), 3)
        assert labels.tolist() == [0, 1, 0]

    def test_long_path_in_reverse_order(self):
        # a path whose labels must travel its whole length
        n = 200
        order = np.arange(n)[::-1]
        labels = spectrum._component_labels(order[:-1], order[1:], n)
        assert np.array_equal(labels, np.zeros(n))

    @pytest.mark.parametrize("N_max", [8, 10])
    def test_su2_number_shift_block(self, N_max, su2_hamiltonian_nmax8,
                                    su2_hamiltonian_nmax10):
        h = {8: su2_hamiltonian_nmax8, 10: su2_hamiltonian_nmax10}[N_max]
        idx = safe_block_indices(h.basis, 2)
        rows, cols, _ = h.matrix.rows(0, idx.size)
        labels = spectrum._component_labels(rows, cols, idx.size)
        assert labels.max() + 1 == 32
        assert np.array_equal(labels, csgraph_labels(rows, cols, idx.size))
        # the labels of the scipy pattern of H - N, where N's diagonal
        # joins no rows
        sub = (to_csr(h) - to_csr(number_operator(h.basis)))[np.ix_(idx, idx)]
        assert np.array_equal(labels, sparse_component_labels(sub))


# the dense whole-block oracle is run on blocks of at most 2,002 rows, to
# keep the suite fast: on su2 N_max = 8 that leaves out the n = 6 block,
# 3,003 rows, which test_su2_levels_closed_form_and_dense_multiplicities
# reads densely, and C*'s 5,005-row safe block (about 14 s dense)
_DENSE_ORACLE_ROWS = 2002


def _against_oracles(matrix, idx, tol, lam, mult=None):
    """lam, and mult if given, against the Lanczos oracle and, on blocks
    of at most _DENSE_ORACLE_ROWS rows, the dense one, on the scipy
    compression matrix[idx, idx]."""
    oracles = [lanczos_lowest_level(matrix, idx, tol)]
    if idx.size <= _DENSE_ORACLE_ROWS:
        oracles.append(dense_lowest_level(matrix, idx, tol))
    for ref_lam, ref_mult in oracles:
        assert lam == pytest.approx(ref_lam, rel=1e-12, abs=0)
        assert mult in (None, ref_mult)


def _levels_against_oracles(q, ns, tol, margin_degree):
    """The levels of q's degree-n blocks and C* against the oracles."""
    for n in ns:
        lo, hi = spectrum._degree_rows(q.basis, n)
        lam, mult = spectrum._lowest_level(q.matrix, lo, hi, tol)
        _against_oracles(to_csr(q), np.arange(lo, hi), tol, lam, mult)
    shifted = to_csr(q) - to_csr(number_operator(q.basis))
    _against_oracles(shifted, safe_block_indices(q.basis, margin_degree), tol,
                     number_shift_bound(q, margin_degree))


class TestAgainstOracles:
    @pytest.mark.parametrize("algebra,N_max", [
        ("su2", 8), ("su3", 4), ("so4", 5), ("so5", 4),
    ])
    def test_levels_and_cstar(self, algebra, N_max):
        model = ModelSpec(algebra=algebra, N_max=N_max)
        h = assemble_hamiltonian(model)
        _levels_against_oracles(h, range(N_max - 1), model.level_tol, 2)

    def test_complex_symbol(self, rng):
        b = build_basis(3, 8)
        q = quantize(random_symbol(rng, 3, 4, hermitian=True, n_terms=12),
                     "normal", b)
        assert q.matrix.data.imag.any()
        _levels_against_oracles(q, range(5), 1e-8, 4)


class TestScipyBlockOracle:
    """The block spectra, the levels, their multiplicities and C* equal,
    bit for bit, those of the scipy.sparse path: scipy fancy indexing of
    the scipy-summed operator, components labelled on its symmetrized
    pattern, and H - N as a sparse difference."""

    @staticmethod
    def assert_blocks_identical(q, ref, ns, margin_degree):
        for n in ns:
            got = spectrum._block_eigenvalues(
                q.matrix, *spectrum._degree_rows(q.basis, n))
            want = sparse_block_eigenvalues(ref, q.basis.degree_indices(n))
            assert np.array_equal(got, want)
        shifted = ref - to_csr(number_operator(q.basis))
        want = sparse_block_eigenvalues(
            shifted, safe_block_indices(q.basis, margin_degree))
        assert number_shift_bound(q, margin_degree) == want[0]

    @pytest.mark.parametrize("algebra,N_max,sector", [
        ("su2", 8, "full"), ("su3", 4, "full"), ("so4", 5, "full"),
        ("so5", 4, "full"), ("su2", 8, "abelian"),
    ])
    def test_levels_and_cstar(self, algebra, N_max, sector):
        model = ModelSpec(algebra=algebra, N_max=N_max, sector=sector)
        rep = bosonic_spectrum(model)
        h = rep.hamiltonian
        sym = energy_symbol(build_algebra(algebra), model.mode_map())
        ref = sparse_quantize(sym, model.convention, h.basis)
        for n, lam, mult in zip(rep.ns, rep.lambdas, rep.multiplicities):
            vals = sparse_block_eigenvalues(ref, h.basis.degree_indices(n))
            assert lam == vals[0]
            assert mult == np.count_nonzero(vals <= vals[0] + model.level_tol)
        self.assert_blocks_identical(h, ref, rep.ns, 2)

    def test_complex_symbol(self, rng):
        b = build_basis(3, 8)
        s = random_symbol(rng, 3, 4, hermitian=True, n_terms=12)
        q = quantize(s, "normal", b)
        assert q.matrix.data.imag.any()
        self.assert_blocks_identical(q, sparse_quantize(s, "normal", b),
                                     range(5), 4)


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

    def test_lanczos_matches_dense(self):
        model = ModelSpec(algebra="su2", N_max=5)
        h = assemble_hamiltonian(model)
        shifted = to_csr(h) - to_csr(number_operator(h.basis))
        dense, _ = dense_lowest_level(shifted, safe_block_indices(h.basis, 2),
                                      model.level_tol)
        assert abs(number_shift_bound(h) - dense) < 1e-10 * abs(dense)
        oracle = [dense_lowest_level(to_csr(h), h.basis.degree_indices(n),
                                     model.level_tol) for n in range(4)]
        lams, mults = block_levels(h, range(4), model.level_tol)
        assert lams == pytest.approx([lam for lam, _ in oracle], rel=1e-10)
        assert mults == [mult for _, mult in oracle]

    def test_arpack_failure_is_numerical(self, monkeypatch):
        # in the Lanczos oracle
        def no_convergence(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", [], [])

        h = assemble_hamiltonian(ModelSpec(algebra="su2", N_max=5))
        shifted = to_csr(h) - to_csr(number_operator(h.basis))
        monkeypatch.setattr(spla, "eigsh", no_convergence)
        with pytest.raises(NumericalError):
            certified_minimum(shifted, safe_block_indices(h.basis, 2), 1e-8)

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

    def test_stability_under_refinement(
        self, su2_hamiltonian_nmax8, su2_hamiltonian_nmax10
    ):
        c8 = number_shift_bound(su2_hamiltonian_nmax8)
        c10 = number_shift_bound(su2_hamiltonian_nmax10)
        assert abs(c10 - c8) <= 0.05 * abs(c8)


class TestConvergenceStudy:
    def test_abelian_block_exact(self):
        model = ModelSpec(algebra="su2", sector="abelian", N_max=4, n_max=2)
        study = convergence_study(model, [4, 6, 8])
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
        # interior levels at all; bosonic_spectrum's exact levels rely on it
        model = ModelSpec(algebra=algebra, N_max=N_max, n_max=N_max - 2,
                          convention=convention)
        study = convergence_study(model, [N_max, N_max + 2])
        assert study.max_rel_change() < 1e-12

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
        # one block solve per (N_max, n); no multiplicity is counted
        calls = []

        def spy(matrix, lo, hi):
            calls.append(hi - lo)
            return block_eigenvalues(matrix, lo, hi)

        def no_count(*args):
            raise AssertionError("convergence_study counted a multiplicity")

        block_eigenvalues = spectrum._block_eigenvalues
        monkeypatch.setattr(spectrum, "_block_eigenvalues", spy)
        monkeypatch.setattr(spectrum, "_lowest_level", no_count)
        model = ModelSpec(algebra="su2", N_max=4, n_max=2)
        convergence_study(model, [4, 6])
        assert calls == [1, 9, 45] * 2

    def test_one_symbol_for_every_level(self, monkeypatch):
        # the energy symbol does not depend on N_max: it is built once, and
        # each level only builds its basis and quantizes
        calls = []

        def spy(*args):
            calls.append(args)
            return build_symbol(*args)

        build_symbol = spectrum.energy_symbol
        monkeypatch.setattr(spectrum, "energy_symbol", spy)
        model = ModelSpec(algebra="su2", N_max=4, n_max=2)
        study = convergence_study(model, [4, 6])
        assert len(calls) == 1
        for N in (4, 6):
            h = assemble_hamiltonian(model, N_max=N)
            assert study.lambdas[N] == block_levels(h, range(3), 1e-8)[0]

    def test_oversize_level_refused_before_symbol(self, monkeypatch):
        # every level's basis passes the cap before the symbol is built
        calls = []
        monkeypatch.setattr(spectrum, "energy_symbol",
                            lambda *args: calls.append(args))
        with pytest.raises(ResourceError):
            convergence_study(ModelSpec(algebra="so5", N_max=4, n_max=2),
                              [4, 12])
        assert calls == []

    def test_single_entry_list(self):
        model = ModelSpec(algebra="su2", sector="abelian", N_max=4, n_max=2)
        study = convergence_study(model, [4])
        assert study.rel_changes == {}
        assert len(study.lambdas[4]) == 3

    def test_non_increasing_list_rejected(self):
        model = ModelSpec(algebra="su2", sector="abelian", N_max=4, n_max=2)
        with pytest.raises(ConfigurationError):
            convergence_study(model, [6, 4])

    def test_csv_shape(self):
        model = ModelSpec(algebra="su2", sector="abelian", N_max=4, n_max=2)
        study = convergence_study(model, [4, 6])
        lines = study.to_csv().strip().split("\n")
        assert lines[0] == "n,lambda_Nmax4,lambda_Nmax6"
        assert len(lines) == 4
