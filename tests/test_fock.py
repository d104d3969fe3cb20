import math

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
from ymspec.fock import (
    FockBasis,
    FockVector,
    build_basis,
    expectation,
    ladder,
    number_operator,
    operator_from_text,
    operator_to_text,
    quantize,
    safe_block_indices,
)
from ymspec.symbols import (
    ModeMap,
    PolynomialSymbol,
    convert,
    energy_symbol,
    symbol_from_json,
    symbol_to_json,
)

from oracles import (
    dict_index_of,
    full_width_monomial_entries,
    ladder_quantize,
    random_symbol,
    recursive_basis_states,
    ring_energy_symbol,
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

    def test_cap(self):
        with pytest.raises(ResourceError):
            build_basis(9, 8, cap=1000)

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

    def test_cap_applies_to_depth(self):
        assert build_basis(9, 40, cap=5005, depth=6).size == 5005
        with pytest.raises(ResourceError):
            build_basis(9, 40, cap=5004, depth=6)

    def test_index_lookup_round_trip(self):
        b = build_basis(3, 5)
        idx = b.index_of(b.states)
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
        assert np.array_equal(b.index_of(queries), dict_index_of(b, queries))
        assert np.array_equal(b.index_of(b.states), np.arange(b.size))

    def test_colliding_keys_refused(self):
        states = np.array([[0, 0], [1, 0], [0, 1], [1, 0]])
        with pytest.raises(NumericalError, match="D=2, N_max=1"):
            FockBasis(D=2, N_max=1, states=states, degrees=states.sum(axis=1))

    @pytest.mark.parametrize("D,N_max", [
        (1, 0), (1, 6), (2, 0), (2, 7), (3, 5), (9, 4), (30, 2),
    ])
    def test_matches_recursive_enumeration(self, D, N_max):
        b = build_basis(D, N_max)
        expected = recursive_basis_states(D, N_max)
        assert b.states.dtype == expected.dtype
        assert np.array_equal(b.states, expected)
        assert np.array_equal(b.degrees, expected.sum(axis=1))


class TestLadder:
    def test_annihilate_vacuum(self):
        b = build_basis(2, 3)
        a0 = ladder(b, 0, "annihilate")
        vac = FockVector.vacuum(b)
        assert np.abs(a0.matrix @ vac.amplitudes).max() == 0.0

    def test_ccr_below_cutoff(self):
        b = build_basis(2, 5)
        for m in range(2):
            c = ladder(b, m, "create")
            a = ladder(b, m, "annihilate")
            comm = (a.matrix @ c.matrix - c.matrix @ a.matrix).toarray()
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
        prod = (a.matrix @ c.matrix).diagonal().real
        assert np.allclose(prod[:-1], np.arange(1, 6))

    def test_adjointness(self):
        b = build_basis(2, 4)
        c = ladder(b, 1, "create")
        a = ladder(b, 1, "annihilate")
        assert (abs(c.matrix - a.matrix.conj().T)).max() < 1e-15

    def test_reduced_depth_is_full_restricted(self):
        full, reduced = build_basis(3, 5), build_basis(3, 5, depth=3)
        keep = np.arange(reduced.size)
        for m in range(3):
            for kind in ("create", "annihilate"):
                want = ladder(full, m, kind).matrix[np.ix_(keep, keep)]
                got = ladder(reduced, m, kind).matrix
                assert abs(got - want).max() == 0.0

    def test_invalid_mode(self):
        b = build_basis(2, 2)
        with pytest.raises(ConfigurationError):
            ladder(b, 5, "create")
        with pytest.raises(ConfigurationError):
            ladder(b, 0, "destroy")


def assert_full_width_identical(monkeypatch, s, basis):
    """quantize gives the same CSR arrays, bit for bit, as with the
    full-width feasibility mask, under every convention."""
    for conv in ("normal", "antinormal", "weyl"):
        fast = quantize(s, conv, basis).matrix
        with monkeypatch.context() as m:
            m.setattr(fock, "_monomial_entries", full_width_monomial_entries)
            slow = quantize(s, conv, basis).matrix
        assert fast.nnz > 0
        assert np.array_equal(fast.indptr, slow.indptr)
        assert np.array_equal(fast.indices, slow.indices)
        assert np.array_equal(fast.data, slow.data)


class TestQuantize:
    @pytest.mark.parametrize("convention", ["normal", "antinormal", "weyl"])
    def test_reduced_depth_is_full_restricted(self, convention, rng):
        # on a basis of degree <= depth < N_max, each entry is the one the
        # full basis gives, because N_max alone bounds the ladder paths
        full, reduced = build_basis(3, 6), build_basis(3, 6, depth=4)
        keep = np.arange(reduced.size)
        for _ in range(5):
            s = random_symbol(rng, 3, 4, n_terms=12)
            want = quantize(s, convention, full).matrix[np.ix_(keep, keep)]
            got = quantize(s, convention, reduced).matrix
            assert got.nnz > 0
            assert abs(got - want).max() < 1e-13

    def test_normal_number(self):
        b = build_basis(1, 6)
        q = quantize(zz(), "normal", b)
        assert np.allclose(q.matrix.diagonal().real, np.arange(7))

    def test_antinormal_shift(self):
        b = build_basis(1, 6)
        q = quantize(zz(), "antinormal", b)
        # N + 1 away from the truncation edge
        assert np.allclose(q.matrix.diagonal().real[:-1], np.arange(1, 7))

    def test_constant_is_identity(self):
        b = build_basis(2, 3)
        s = PolynomialSymbol.constant(2, 1.0)
        for conv in ("normal", "weyl", "antinormal"):
            q = quantize(s, conv, b)
            assert (abs(q.matrix - sparse.identity(b.size))).max() < 1e-15

    def test_mode_mismatch(self):
        b = build_basis(2, 3)
        with pytest.raises(DimensionMismatchError):
            quantize(zz(1), "normal", b)

    def test_matches_ladder_oracle(self, rng):
        b = build_basis(2, 6)
        for conv in ("normal", "antinormal"):
            for _ in range(5):
                s = random_symbol(rng, 2, 4, n_terms=6)
                fast = quantize(s, conv, b).matrix
                slow = ladder_quantize(s, conv, b)
                assert (abs(fast - slow)).max() < 1e-12

    @pytest.mark.parametrize("name,N_max", [
        ("su2", 4), ("su3", 2), ("so4", 3), ("so5", 2),
    ])
    def test_energy_symbol_matches_full_width_mask(self, monkeypatch, name,
                                                   N_max):
        algebra = build_algebra(name)
        s = energy_symbol(algebra, ModeMap.zero_momentum(algebra.dim_g), True)
        assert_full_width_identical(monkeypatch, s, build_basis(s.num_modes, N_max))

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
            assert (h != other).nnz == 0

    def test_energy_symbol_quantizes_as_ring_oracle(self, su2):
        # su2 N_max = 8 safe basis: the expanded symbol and the ring-built
        # one quantize to the same bits
        mm = ModeMap.zero_momentum(3)
        basis = build_basis(9, 8, depth=6)
        new = quantize(energy_symbol(su2, mm), "antinormal", basis).matrix
        old = quantize(ring_energy_symbol(su2, mm), "antinormal", basis).matrix
        assert (new != old).nnz == 0

    def test_complex_symbols_match_full_width_mask(self, monkeypatch, rng):
        b = build_basis(3, 5)
        for _ in range(5):
            s = random_symbol(rng, 3, 4, n_terms=12)
            assert_full_width_identical(monkeypatch, s, b)

    def test_antinormal_route_equivalence(self, rng):
        # direct anti-normal ordering vs flow to normal form, on the safe block
        b = build_basis(2, 8)
        for _ in range(10):
            s = random_symbol(rng, 2, 4, n_terms=8)
            direct = quantize(s, "antinormal", b).matrix
            via_normal = quantize(convert(s, "antinormal", "normal"), "normal", b).matrix
            safe = safe_block_indices(b, 4)
            diff = (direct - via_normal).toarray()[np.ix_(safe, safe)]
            assert np.abs(diff).max() < 1e-10

    def test_hermiticity_of_symmetric_symbols(self, rng):
        b = build_basis(2, 6)
        for conv in ("normal", "weyl", "antinormal"):
            s = random_symbol(rng, 2, 4, hermitian=True)
            q = quantize(s, conv, b)
            assert q.hermiticity_defect() < 1e-12

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


class TestNumberOperatorAndExpectation:
    def test_number_diagonal(self):
        b = build_basis(2, 3)
        n = number_operator(b)
        assert np.allclose(n.matrix.diagonal().real, b.degrees)

    def test_number_equals_quantized_symbol(self):
        b = build_basis(2, 4)
        s = zz(2, 0) + zz(2, 1)
        q = quantize(s, "normal", b)
        assert (abs(q.matrix - number_operator(b).matrix)).max() < 1e-13

    def test_trace_small_block(self):
        b = build_basis(1, 3)
        assert number_operator(b).matrix.diagonal().sum() == 6.0

    def test_expectation_identity_and_number(self):
        b = build_basis(2, 4)
        n = number_operator(b)
        vec = np.zeros(b.size, dtype=complex)
        idx = b.index_of(np.array([[1, 1]]))[0]
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
        assert (abs(q.matrix - q2.matrix)).max() < 1e-16

    def test_round_trip_keeps_depth(self, rng):
        b = build_basis(2, 4, depth=2)
        q = quantize(random_symbol(rng, 2, 2), "normal", b)
        q2, header = operator_from_text(operator_to_text(q))
        assert header["depth"] == q2.basis.depth == 2
        assert q2.basis.size == b.size
        assert (abs(q.matrix - q2.matrix)).max() < 1e-16
