import functools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sparse

from ymspec import fock
from ymspec.algebra import build_algebra
from ymspec.errors import (
    ConfigurationError,
    DimensionMismatchError,
    NumericalError,
    ResourceError,
)
from ymspec.fock import FockBasis, build_basis, quantize
from ymspec.spectrum import (
    ModelSpec,
    _cartan_model,
    _level_operator,
    _zero_weight_operator,
)
from ymspec.symbols import (
    ModeMap,
    PolynomialSymbol,
    cartan_modes,
    convert,
    energy_symbol,
)

from oracles import (
    FockVector,
    dict_index_of,
    expectation,
    from_csr,
    full_width_monomial_entries,
    hermiticity_defect,
    index_of,
    keyed_quantize,
    ladder,
    ladder_quantize,
    number_operator,
    operator_from_text,
    operator_to_text,
    raise_table_quantize,
    raise_tables,
    random_symbol,
    recursive_basis_states,
    ring_energy_symbol,
    safe_block_indices,
    stars_and_bars_basis,
    symbol_from_json,
    symbol_to_json,
    sparse_quantize,
    to_csr,
    zero_weight_counts,
)


def zz(D=1, mode=0):
    return PolynomialSymbol.zstar(D, mode) * PolynomialSymbol.z(D, mode)


class TestBasis:
    def test_counting_small(self):
        b = build_basis(1, 3)
        assert b.size == 4
        assert [tuple(s) for s in b.states] == [(0,), (1,), (2,), (3,)]

    def test_counting_two_modes(self):
        assert build_basis(2, 2).size == 6

    def test_counting_nine_modes(self):
        assert build_basis(9, 6).size == math.comb(15, 6) == 5005

    def test_enumeration_order(self):
        b = build_basis(2, 2)
        expected = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
        assert [tuple(s) for s in b.states] == expected

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(fock, "DEFAULT_BASIS_CAP", 1000)
        with pytest.raises(ResourceError):
            build_basis(9, 8)

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            build_basis(0, 3)
        with pytest.raises(ConfigurationError):
            build_basis(2, -1)
        for depth in (-1, 4):
            with pytest.raises(ConfigurationError):
                build_basis(2, 3, depth=depth)

    def test_depth_is_full_basis_prefix(self):
        full = build_basis(3, 6)
        reduced = build_basis(3, 6, depth=4)
        assert (reduced.N_max, reduced.depth, full.depth) == (6, 4, 6)
        assert reduced.size == math.comb(3 + 4, 3)
        assert np.array_equal(reduced.states, full.states[:reduced.size])
        assert full.degrees[reduced.size - 1] == 4 < full.degrees[reduced.size]

    def test_cap_applies_to_depth(self, monkeypatch):
        monkeypatch.setattr(fock, "DEFAULT_BASIS_CAP", 5005)
        assert build_basis(9, 40, depth=6).size == 5005
        monkeypatch.setattr(fock, "DEFAULT_BASIS_CAP", 5004)
        with pytest.raises(ResourceError):
            build_basis(9, 40, depth=6)

    def test_index_lookup_round_trip(self):
        b = build_basis(3, 5)
        idx = index_of(b, b.states)
        assert np.array_equal(idx, np.arange(b.size))

    @pytest.mark.parametrize("D,N_max", [
        (1, 6), (2, 7), (3, 5), (9, 8), (24, 5), (30, 3), (45, 2),
    ])
    def test_index_matches_dict_oracle(self, D, N_max, rng):
        b = build_basis(D, N_max)
        radix = N_max + 1 + N_max % 2
        # the uint64 key wraps for the three widest bases
        assert (radix ** D >= 2 ** 64) == (D >= 24)
        rows = rng.permutation(b.size)[:5000]
        queries = b.states[np.concatenate([rows, rows[:7]])]
        assert np.array_equal(index_of(b, queries), dict_index_of(b, queries))
        assert np.array_equal(index_of(b, b.states), np.arange(b.size))

    def test_colliding_keys_refused(self):
        states = np.array([[0, 0], [1, 0], [0, 1], [1, 0]])
        with pytest.raises(NumericalError, match="D=2, N_max=1"):
            FockBasis(D=2, N_max=1, states=states, depth=1)

    @pytest.mark.parametrize("D,N_max", [
        (1, 0), (1, 6), (2, 0), (2, 7), (3, 5), (9, 4), (30, 2),
    ])
    def test_matches_recursive_enumeration(self, D, N_max):
        b = build_basis(D, N_max)
        expected = recursive_basis_states(D, N_max)
        assert b.states.dtype == expected.dtype
        assert np.array_equal(b.states, expected)
        assert np.array_equal(b.degrees, expected.sum(axis=1))


# su2's zero-weight states of degree <= K (ROADMAP Baseline table)
SU2_ZERO_WEIGHT_ROWS = {6: 157, 8: 506, 10: 1_382, 12: 3_330, 14: 7_274,
                        16: 14_691, 18: 27_825, 20: 49_957}


class TestDirectEnumeration:
    """build_basis's mode-by-mode enumerator and zero_weight_rows' meet in
    the middle, against the stars-and-bars basis they replaced."""

    @pytest.mark.parametrize("D,depths", [
        (1, (0, 1, 6)), (3, (0, 2, 7)), (9, (0, 3, 6, 8)), (18, (1, 3, 5)),
        (24, (2, 4)), (30, (1, 3, 4)),
    ])
    def test_build_basis_matches_stars_and_bars(self, D, depths):
        for depth in depths:
            got = build_basis(D, depth + 2, depth=depth)
            want = stars_and_bars_basis(D, depth + 2, depth=depth)
            assert got.states.dtype == want.states.dtype
            assert got.states.flags.c_contiguous
            assert np.array_equal(got.states, want.states), depth
            assert np.array_equal(got.degrees, want.degrees), depth

    @pytest.mark.parametrize("D,r", [(1, 1), (2, 1), (3, 2), (5, 1), (6, 2)])
    def test_zero_weight_rows_match_subset(self, D, r, rng):
        # random integer weights, some modes of weight 0; D = 1 has no head
        for depth in (0, 1, 4, 6):
            weights = rng.integers(-2, 3, size=(D, r))
            got = fock.zero_weight_rows(D, depth + 3, depth, weights)
            full = stars_and_bars_basis(D, depth + 3, depth=depth,
                                        weights=weights)
            want = full.subset(full.sectors == 0)
            assert (got.D, got.N_max, got.depth) == (D, depth + 3, depth)
            assert got.weights is weights
            assert np.array_equal(got.states, want.states)
            assert np.array_equal(got.degrees, want.degrees)
            assert not (got.states @ weights).any()

    def test_su2_zero_weight_row_counts(self, su2):
        # every K against the count by degree and weight, the even K
        # against the measured table; K = 20 keeps under 100 MB traced,
        # where the 10,015,005-state safe basis is past the cap
        weights = cartan_modes(su2, ModeMap.zero_momentum(3)).weights
        per_degree = zero_weight_counts(weights, 20)
        for K in range(6, 20):
            rows = fock.zero_weight_rows(9, K + 2, K, weights)
            assert rows.size == per_degree[:K + 1].sum(), K
            assert SU2_ZERO_WEIGHT_ROWS.get(K, rows.size) == rows.size
        tracemalloc.start()
        try:
            rows = fock.zero_weight_rows(9, 22, 20, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.size == per_degree.sum() == SU2_ZERO_WEIGHT_ROWS[20]
        assert np.array_equal(np.bincount(rows.degrees), per_degree)
        assert peak < 100e6
        assert math.comb(9 + 20, 9) > fock.DEFAULT_BASIS_CAP

    @pytest.mark.parametrize("convention", ["normal", "antinormal", "weyl"])
    def test_weight_changing_term_refused(self, su2, convention):
        # the zero-weight rows hold every source of a weight-conserving
        # symbol, so quantize refuses any other on a basis with weights
        mode_map = ModeMap.zero_momentum(3)
        modes = cartan_modes(su2, mode_map)
        sym = energy_symbol(su2, mode_map, True, modes)
        rows = fock.zero_weight_rows(9, 6, 4, modes.weights)
        assert quantize(sym, convention, rows).matrix.nnz > 0
        # one quantum moved between two modes of different weight
        w = modes.weights
        a = int(np.flatnonzero(w.any(axis=1))[0])
        b = int(np.flatnonzero((w != w[a]).any(axis=1))[0])
        alpha = tuple(int(m == a) for m in range(9))
        beta = tuple(int(m == b) for m in range(9))
        bad = sym + PolynomialSymbol(9, {(alpha, beta): 0.5})
        with pytest.raises(NumericalError, match="changes the basis's mode"):
            quantize(bad, convention, rows)
        # without weights nothing is refused
        plain = build_basis(9, 6, depth=4)
        assert quantize(bad, convention, plain).matrix.nnz > 0


class TestRaiseTables:
    @pytest.mark.parametrize("D,N_max,depth", [
        (1, 4, 4), (3, 5, 5), (3, 6, 4), (9, 6, 4), (2, 3, 0),
    ])
    def test_matches_dict_oracle(self, D, N_max, depth):
        b = build_basis(D, N_max, depth=depth)
        below = b.states[b.degrees < depth]
        raised = raise_tables(b)
        assert raised.shape == (D, below.shape[0])
        for m in range(D):
            want = dict_index_of(b, below + np.eye(D, dtype=np.int64)[m])
            assert np.array_equal(raised[m], want)


class TestCsr:
    def test_blocks_and_dense_match_scipy(self, rng):
        dense = rng.normal(size=(9, 9)) * (rng.random((9, 9)) < 0.3)
        dense = dense + 1j * rng.normal(size=(9, 9)) * (dense != 0)
        m = from_csr(sparse.csr_matrix(dense))
        assert m.shape == (9, 9)
        assert m.nnz == np.count_nonzero(dense)
        assert np.array_equal(m.toarray(), dense)
        for lo, hi in ((0, 9), (2, 5), (4, 4), (8, 9)):
            rows, cols, vals = m.rows(lo, hi)
            block = np.zeros((hi - lo, hi - lo), dtype=complex)
            block[rows, cols] = vals
            assert np.array_equal(block, dense[lo:hi, lo:hi])
            assert rows.size == np.count_nonzero(dense[lo:hi, lo:hi])


class TestLadder:
    def test_annihilate_vacuum(self):
        b = build_basis(2, 3)
        a0 = ladder(b, 0, "annihilate")
        vac = FockVector.vacuum(b)
        assert np.abs(to_csr(a0) @ vac.amplitudes).max() == 0.0

    def test_ccr_below_cutoff(self):
        b = build_basis(2, 5)
        for m in range(2):
            c = ladder(b, m, "create")
            a = ladder(b, m, "annihilate")
            comm = (to_csr(a) @ to_csr(c) - to_csr(c) @ to_csr(a)).toarray()
            inside = b.degrees < b.N_max
            for i in np.flatnonzero(inside):
                row = comm[i]
                assert abs(row[i] - 1.0) < 1e-14
                row[i] = 0.0
                assert np.abs(row).max() < 1e-14

    def test_create_then_annihilate(self):
        b = build_basis(1, 5)
        c = ladder(b, 0, "create")
        a = ladder(b, 0, "annihilate")
        prod = (to_csr(a) @ to_csr(c)).diagonal().real
        assert np.allclose(prod[:-1], np.arange(1, 6))

    def test_adjointness(self):
        b = build_basis(2, 4)
        c = ladder(b, 1, "create")
        a = ladder(b, 1, "annihilate")
        assert (abs(to_csr(c) - to_csr(a).conj().T)).max() < 1e-15

    def test_reduced_depth_is_full_restricted(self):
        full, reduced = build_basis(3, 5), build_basis(3, 5, depth=3)
        keep = np.arange(reduced.size)
        for m in range(3):
            for kind in ("create", "annihilate"):
                want = to_csr(ladder(full, m, kind))[np.ix_(keep, keep)]
                got = to_csr(ladder(reduced, m, kind))
                assert abs(got - want).max() == 0.0

    def test_invalid_mode(self):
        b = build_basis(2, 2)
        with pytest.raises(ConfigurationError):
            ladder(b, 5, "create")
        with pytest.raises(ConfigurationError):
            ladder(b, 0, "destroy")


def assert_identical(got, want):
    """The same CSR arrays, bit for bit."""
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


def assert_full_width_identical(s, basis):
    """quantize gives the same CSR arrays, bit for bit, as the term-by-term
    path with the full-width feasibility mask, under every convention."""
    for conv in ("normal", "antinormal", "weyl"):
        fast = quantize(s, conv, basis).matrix
        slow = raise_table_quantize(s, conv, basis,
                                    entries=full_width_monomial_entries).matrix
        assert fast.nnz > 0
        assert_identical(fast, slow)


def assert_matches_keyed(got, want):
    """Same stored entries, and values within 1e-13 of the largest."""
    assert got.nnz == want.nnz > 0
    assert not (got.data == 0).any()
    assert abs(got - want).max() <= 1e-13 * abs(want).max()


class TestQuantize:
    @pytest.mark.parametrize("convention", ["normal", "antinormal", "weyl"])
    def test_reduced_depth_is_full_restricted(self, convention, rng):
        # on a basis of degree <= depth < N_max, each entry is the one the
        # full basis gives, because N_max alone bounds the ladder paths
        full, reduced = build_basis(3, 6), build_basis(3, 6, depth=4)
        keep = np.arange(reduced.size)
        for _ in range(5):
            s = random_symbol(rng, 3, 4, n_terms=12)
            want = to_csr(quantize(s, convention, full))[np.ix_(keep, keep)]
            got = to_csr(quantize(s, convention, reduced))
            assert got.nnz > 0
            assert abs(got - want).max() < 1e-13

    def test_normal_number(self):
        b = build_basis(1, 6)
        q = quantize(zz(), "normal", b)
        assert np.allclose(to_csr(q).diagonal().real, np.arange(7))

    def test_antinormal_shift(self):
        b = build_basis(1, 6)
        q = quantize(zz(), "antinormal", b)
        # N + 1 away from the truncation edge
        assert np.allclose(to_csr(q).diagonal().real[:-1], np.arange(1, 7))

    def test_constant_is_identity(self):
        b = build_basis(2, 3)
        s = PolynomialSymbol.constant(2, 1.0)
        for conv in ("normal", "weyl", "antinormal"):
            q = quantize(s, conv, b)
            assert (abs(to_csr(q) - sparse.identity(b.size))).max() < 1e-15

    def test_mode_mismatch(self):
        b = build_basis(2, 3)
        with pytest.raises(DimensionMismatchError):
            quantize(zz(1), "normal", b)

    def test_matches_ladder_oracle(self, rng):
        b = build_basis(2, 6)
        for conv in ("normal", "antinormal"):
            for _ in range(5):
                s = random_symbol(rng, 2, 4, n_terms=6)
                fast = to_csr(quantize(s, conv, b))
                slow = ladder_quantize(s, conv, b)
                assert (abs(fast - slow)).max() < 1e-12

    @pytest.mark.parametrize("name,N_max", [
        ("su2", 4), ("su3", 2), ("so4", 3), ("so5", 2),
    ])
    def test_energy_symbol_matches_full_width_mask(self, name, N_max):
        algebra = build_algebra(name)
        s = energy_symbol(algebra, ModeMap.zero_momentum(algebra.dim_g), True)
        assert_full_width_identical(s, build_basis(s.num_modes, N_max))

    @pytest.mark.parametrize("name,N_max", [
        ("su2", 8), ("su3", 4), ("so4", 5), ("so5", 4),
    ])
    @pytest.mark.parametrize("convention", ["normal", "antinormal", "weyl"])
    def test_energy_symbol_matches_keyed_oracle(self, name, N_max,
                                                convention):
        # the diagonal terms are summed in another order than the keyed
        # path's reduceat, so entries agree to roundoff: su3 at N_max = 6
        # differs by 1.9e-13 at an entry of modulus 47.7
        algebra = build_algebra(name)
        s = energy_symbol(algebra, ModeMap.zero_momentum(algebra.dim_g), True)
        basis = build_basis(s.num_modes, N_max, depth=N_max - 2)
        got = to_csr(quantize(s, convention, basis))
        assert_matches_keyed(got, keyed_quantize(s, convention, basis))

    @pytest.mark.parametrize("convention", ["normal", "antinormal", "weyl"])
    def test_complex_symbols_match_keyed_oracle(self, convention, rng):
        for basis in (build_basis(3, 5), build_basis(3, 6, depth=4)):
            for _ in range(5):
                s = random_symbol(rng, 3, 4, n_terms=12)
                assert_matches_keyed(to_csr(quantize(s, convention, basis)),
                                     keyed_quantize(s, convention, basis))

    def test_independent_of_term_order(self, su2):
        # duplicate (row, col) entries are summed in sorted term order, so
        # the JSON round trip and a reversed copy give the same bits
        s = energy_symbol(su2, ModeMap.zero_momentum(3))
        basis = build_basis(9, 8, depth=6)
        h = quantize(s, "antinormal", basis).matrix
        for copy in (symbol_from_json(symbol_to_json(s)),
                     PolynomialSymbol(9, dict(reversed(s.terms.items())))):
            assert list(copy.terms) != list(s.terms)
            other = quantize(copy, "antinormal", basis).matrix
            assert_identical(h, other)

    def test_energy_symbol_quantizes_as_ring_oracle(self, su2):
        # su2 N_max = 8 safe basis: the expanded symbol and the ring-built
        # one quantize to the same bits
        mm = ModeMap.zero_momentum(3)
        basis = build_basis(9, 8, depth=6)
        new = quantize(energy_symbol(su2, mm), "antinormal", basis).matrix
        old = quantize(ring_energy_symbol(su2, mm), "antinormal", basis).matrix
        assert_identical(new, old)

    def test_complex_symbols_match_full_width_mask(self, rng):
        b = build_basis(3, 5)
        for _ in range(5):
            s = random_symbol(rng, 3, 4, n_terms=12)
            assert_full_width_identical(s, b)

    def test_antinormal_route_equivalence(self, rng):
        # direct anti-normal ordering vs flow to normal form, on the safe block
        b = build_basis(2, 8)
        for _ in range(10):
            s = random_symbol(rng, 2, 4, n_terms=8)
            direct = quantize(s, "antinormal", b).matrix
            via_normal = quantize(convert(s, "antinormal", "normal"), "normal", b).matrix
            safe = safe_block_indices(b, 4)
            diff = (direct.toarray() - via_normal.toarray())[np.ix_(safe, safe)]
            assert np.abs(diff).max() < 1e-10

    def test_hermiticity_of_symmetric_symbols(self, rng):
        b = build_basis(2, 6)
        for conv in ("normal", "weyl", "antinormal"):
            s = random_symbol(rng, 2, 4, hermitian=True)
            q = quantize(s, conv, b)
            assert hermiticity_defect(q) < 1e-12

    def test_positivity_of_antinormal_modulus_squares(self, rng):
        b = build_basis(2, 8)
        for _ in range(5):
            # p(z) polynomial in z only; |p|^2 has non-negative anti-normal operator
            terms = {}
            for _ in range(4):
                beta = tuple(int(x) for x in rng.integers(0, 2, 2))
                terms[((0, 0), beta)] = complex(rng.normal(), rng.normal())
            p = PolynomialSymbol(2, terms)
            s = p.conjugate() * p
            q = quantize(s, "antinormal", b)
            safe = safe_block_indices(b, s.degree)
            block = q.matrix.toarray()[np.ix_(safe, safe)]
            vals = np.linalg.eigvalsh(block)
            assert vals[0] > -1e-10


def assert_principal_submatrix(s, convention, basis, rows):
    """quantize on the subset rows of basis equals, to 1e-15 relative, the
    principal submatrix of the term-by-term raise-table operator on the
    whole basis."""
    sub = basis.subset(rows)
    idx = np.flatnonzero(rows)
    assert np.array_equal(sub.states, basis.states[idx])
    got = quantize(s, convention, sub).matrix.toarray()
    full = raise_table_quantize(s, convention, basis).matrix.toarray()
    want = full[np.ix_(idx, idx)]
    assert np.abs(want).max() > 0
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


class TestSubsetQuantize:
    """quantize on a subset of a truncation's states: weight sectors, the
    level rows and random row masks, every convention."""

    @pytest.mark.parametrize("convention", ["normal", "antinormal", "weyl"])
    def test_random_hermitian_symbols(self, convention, rng):
        for basis in (build_basis(3, 6), build_basis(3, 6, depth=4)):
            for _ in range(3):
                s = random_symbol(rng, 3, 4, hermitian=True, n_terms=12)
                rows = rng.random(basis.size) < 0.5
                assert_principal_submatrix(s, convention, basis, rows)

    @pytest.mark.parametrize("name,N_max", [("su2", 6), ("so4", 4)])
    @pytest.mark.parametrize("convention", ["normal", "antinormal", "weyl"])
    def test_cartan_energy_symbols(self, name, N_max, convention, rng):
        algebra = build_algebra(name)
        mode_map = ModeMap.zero_momentum(algebra.dim_g)
        modes = cartan_modes(algebra, mode_map)
        s = energy_symbol(algebra, mode_map, True, modes)
        basis = build_basis(s.num_modes, N_max, depth=N_max - 2,
                            weights=modes.weights)
        for rows in (basis.sectors == 0,
                     (basis.sectors >= 0) & (basis.degrees <= N_max - 3),
                     rng.random(basis.size) < 0.3):
            assert_principal_submatrix(s, convention, basis, rows)

    def test_subset_keeps_truncation(self):
        b = build_basis(3, 6, depth=4, weights=np.array([[1], [0], [-1]]))
        sub = b.subset(b.sectors == 0)
        assert (sub.D, sub.N_max, sub.depth) == (3, 6, 4)
        assert sub.weights is b.weights
        assert np.array_equal(sub.sectors, np.zeros(sub.size))
        assert np.array_equal(index_of(sub, sub.states), np.arange(sub.size))


def assert_matches_scipy_sum(got, want):
    """The Csr arrays of quantize equal, bit for bit, the scipy CSR matrix
    that summed the same entries."""
    assert got.nnz == want.nnz > 0
    assert_identical(got, want)


class TestScipySumOracle:
    """quantize's keyed sum, with the diagonal inserted and exact zeros
    dropped, stores the entries the scipy.sparse sums stored."""

    @pytest.mark.parametrize("name,N_max,sector", [
        ("su2", 8, "full"), ("su3", 4, "full"), ("so4", 5, "full"),
        ("so5", 4, "full"), ("su2", 8, "abelian"),
    ])
    def test_energy_symbol(self, name, N_max, sector):
        algebra = build_algebra(name)
        mode_map = (ModeMap.abelian(algebra.dim_g) if sector == "abelian"
                    else ModeMap.zero_momentum(algebra.dim_g))
        s = energy_symbol(algebra, mode_map, True)
        basis = build_basis(s.num_modes, N_max, depth=N_max - 2)
        assert_matches_scipy_sum(quantize(s, "antinormal", basis).matrix,
                                 sparse_quantize(s, "antinormal", basis))

    @pytest.mark.parametrize("convention", ["normal", "antinormal", "weyl"])
    def test_complex_symbols(self, convention, rng):
        for basis in (build_basis(3, 5), build_basis(3, 6, depth=4)):
            for _ in range(5):
                s = random_symbol(rng, 3, 4, n_terms=12)
                assert_matches_scipy_sum(quantize(s, convention, basis).matrix,
                                         sparse_quantize(s, convention, basis))

    def test_cancelling_entries_dropped(self):
        # normal order: z0* z0 - 1 vanishes on n0 = 1, and so does
        # z0*^2 z0 z1 - z0* z1 on the states it moves out of n0 = 1
        s = PolynomialSymbol(2, {((1, 0), (1, 0)): 1.0, ((0, 0), (0, 0)): -1.0,
                                 ((2, 0), (1, 1)): 1.0, ((1, 0), (0, 1)): -1.0})
        b = build_basis(2, 6)
        q = quantize(s, "normal", b).matrix
        assert_matches_scipy_sum(q, sparse_quantize(s, "normal", b))
        assert not (q.data == 0).any()
        i, j = index_of(b, np.array([[1, 2], [2, 1]]))
        assert q.toarray()[i, i] == q.toarray()[j, i] == 0

    def test_chunked_sum(self, monkeypatch, su2):
        # one chunk against a few hundred candidates at a time, one row
        # per chunk: each entry's duplicates lie in one chunk, so the bits
        # are those of one chunk, and those of the scipy sum; the
        # term-by-term path's chunked merges differ from both by roundoff
        # only
        s = energy_symbol(su2, ModeMap.zero_momentum(3))
        basis = build_basis(9, 6, depth=4)
        monkeypatch.setattr(fock, "CHUNK_ENTRIES", UNBOUNDED)
        whole = quantize(s, "antinormal", basis).matrix
        monkeypatch.setattr(fock, "CHUNK_ENTRIES", 300)
        got = quantize(s, "antinormal", basis).matrix
        assert_identical(got, whole)
        assert_matches_scipy_sum(got, sparse_quantize(s, "antinormal", basis))
        merged = raise_table_quantize(s, "antinormal", basis,
                                      chunk_entries=300).matrix
        assert_matches_scipy_sum(merged, sparse_quantize(
            s, "antinormal", basis, chunk_entries=300))
        assert np.allclose(got.data, merged.data, rtol=1e-13, atol=0)


# a chunk budget above any candidate count here: one chunk per mask block
UNBOUNDED = 1 << 40


@functools.lru_cache(maxsize=None)
def cartan_model(algebra, N_max):
    """(model, energy symbol, mode weights) as the spectrum path builds
    them."""
    model = ModelSpec(algebra=algebra, N_max=N_max)
    return (model, *_cartan_model(model))


class TestChunkBudget:
    """quantize cuts its row chunks on the candidates each forms, and its
    result does not depend on where the cuts fall."""

    @pytest.mark.parametrize("algebra,N_max",
                             [("su2", 8), ("su3", 5), ("so4", 5), ("so5", 4)])
    @pytest.mark.parametrize("convention", ["normal", "antinormal", "weyl"])
    def test_bits_independent_of_budget(self, monkeypatch, algebra, N_max,
                                        convention):
        model, sym, weights = cartan_model(algebra, N_max)
        model = replace(model, convention=convention)
        # budget 1: a chunk per row that forms any candidate
        budgets = (1, fock.CHUNK_ENTRIES, UNBOUNDED)
        for build in (
            lambda: _level_operator(model, sym, weights)[0],
            lambda: _zero_weight_operator(model, sym, weights),
        ):
            got = []
            for budget in budgets:
                monkeypatch.setattr(fock, "CHUNK_ENTRIES", budget)
                got.append(build().matrix)
            for matrix in got[:-1]:
                assert_identical(matrix, got[-1])

    def test_zero_weight_memory_bounded(self):
        # su2 N_max=12: 1,382 zero-weight rows of 92,378 safe states; one
        # chunk of all their candidates peaked at about 16 MB; the rows
        # are enumerated inside the traced call, the safe basis never
        model, sym, weights = cartan_model("su2", 12)
        tracemalloc.start()
        try:
            h = _zero_weight_operator(model, sym, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.basis.size == 1_382
        assert peak < 8e6

    def test_output_assembly_holds_no_chunk_list(self):
        # su2 N_max=14: 3,330 zero-weight rows, 151,340 nonzeros (3.6 MB
        # of keys and values); with the chunk list still held through the
        # diagonal inserts the call peaked at 11.7 MB traced, 8.1 without
        model, sym, weights = cartan_model("su2", 14)
        tracemalloc.start()
        try:
            h = _zero_weight_operator(model, sym, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (h.basis.size, h.matrix.nnz) == (3_330, 151_340)
        assert peak < 10e6


class TestNumberOperatorAndExpectation:
    def test_number_diagonal(self):
        b = build_basis(2, 3)
        n = number_operator(b)
        assert np.allclose(to_csr(n).diagonal().real, b.degrees)

    def test_number_equals_quantized_symbol(self):
        b = build_basis(2, 4)
        s = zz(2, 0) + zz(2, 1)
        q = quantize(s, "normal", b)
        assert (abs(to_csr(q) - to_csr(number_operator(b)))).max() < 1e-13

    def test_trace_small_block(self):
        b = build_basis(1, 3)
        assert to_csr(number_operator(b)).diagonal().sum() == 6.0

    def test_expectation_identity_and_number(self):
        b = build_basis(2, 4)
        n = number_operator(b)
        vec = np.zeros(b.size, dtype=complex)
        idx = index_of(b, np.array([[1, 1]]))[0]
        vec[idx] = 2.0 - 1.0j
        psi = FockVector(b, vec)
        assert abs(expectation(n, psi) - 2.0) < 1e-14

    def test_expectation_zero_vector_rejected(self):
        b = build_basis(1, 2)
        with pytest.raises(ConfigurationError):
            expectation(number_operator(b), FockVector(b, np.zeros(3)))


class TestOperatorSerialization:
    def test_round_trip(self, rng):
        b = build_basis(2, 4)
        s = random_symbol(rng, 2, 3)
        q = quantize(s, "antinormal", b)
        text = operator_to_text(q, "antinormal")
        q2, header = operator_from_text(text)
        assert header["convention"] == "antinormal"
        assert header["D"] == 2 and header["N_max"] == 4
        assert (abs(to_csr(q) - to_csr(q2))).max() < 1e-16

    def test_round_trip_keeps_depth(self, rng):
        b = build_basis(2, 4, depth=2)
        q = quantize(random_symbol(rng, 2, 2), "normal", b)
        q2, header = operator_from_text(operator_to_text(q))
        assert header["depth"] == q2.basis.depth == 2
        assert q2.basis.size == b.size
        assert (abs(to_csr(q) - to_csr(q2))).max() < 1e-16
