import numpy as np
import pytest

from ymspec.algebra import (
    AlgebraElement,
    LieAlgebraBasis,
    SpatialAlgebraVector,
    bracket,
    build_algebra,
    check_structure,
    quartic_contraction,
    quartic_contraction_via_brackets,
    scalar_product,
)
from ymspec.errors import ConfigurationError, DimensionMismatchError

from oracles import (
    adjoint_rotation,
    commutator_bracket,
    quartic_via_matrices,
    trace_product,
)

ALGEBRAS = ["su2", "su3", "so3", "so4", "so5"]


@pytest.mark.parametrize("name", ALGEBRAS)
def test_structure_invariants(name):
    basis = build_algebra(name)
    report = check_structure(basis)
    assert report.max_violation() < 1e-12


@pytest.mark.parametrize("name,dim", [("su2", 3), ("su3", 8), ("so4", 6), ("so5", 10)])
def test_dimensions(name, dim):
    assert build_algebra(name).dim_g == dim


def test_su2_structure_constants_are_scaled_levi_civita(su2):
    c = su2.structure_constants
    # scale fixed by trace orthonormality of the explicit skew generators
    scale = 2.0 ** -0.5
    eps = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[k, i, j] = 1.0
        eps[k, j, i] = -1.0
    assert np.abs(c - scale * eps).max() < 1e-14


@pytest.mark.parametrize("bad", ["u1", "so2", "su1", "sp4", "g2"])
def test_unsupported_rejected(bad):
    with pytest.raises(ConfigurationError):
        build_algebra(bad)


def test_identifier_spellings():
    assert build_algebra("so(4)").name == "so4"
    assert build_algebra("SU2").name == "su2"


def test_build_is_deterministic():
    b1, b2 = build_algebra("su3"), build_algebra("su3")
    assert np.array_equal(b1.structure_constants, b2.structure_constants)
    assert np.array_equal(b1.matrix_basis, b2.matrix_basis)


def test_bracket_antisymmetry_and_linearity(su2, rng):
    x = AlgebraElement(su2, rng.normal(size=3))
    y = AlgebraElement(su2, rng.normal(size=3))
    assert np.abs(bracket(x, x).coeffs).max() == 0.0
    xy = bracket(x, y).coeffs
    yx = bracket(y, x).coeffs
    assert np.abs(xy + yx).max() < 1e-14
    zero = AlgebraElement(su2, np.zeros(3))
    assert np.abs(bracket(x, zero).coeffs).max() == 0.0


def test_su2_bracket_constant(su2):
    b1 = AlgebraElement(su2, np.array([1.0, 0.0, 0.0]))
    b2 = AlgebraElement(su2, np.array([0.0, 1.0, 0.0]))
    out = bracket(b1, b2).coeffs
    assert abs(out[2] - 2.0 ** -0.5) < 1e-14
    expected = commutator_bracket(su2, b1.coeffs, b2.coeffs)
    assert np.abs(out - expected).max() < 1e-13


@pytest.mark.parametrize("name", ALGEBRAS)
def test_bracket_matches_matrix_commutator(name, rng):
    basis = build_algebra(name)
    for _ in range(5):
        x = rng.normal(size=basis.dim_g)
        y = rng.normal(size=basis.dim_g)
        via_c = np.einsum("kij,i,j->k", basis.structure_constants, x, y)
        via_m = commutator_bracket(basis, x, y)
        assert np.abs(via_c - via_m).max() < 1e-12


def test_scalar_product_orthonormality_and_trace(su3, rng):
    e0 = AlgebraElement(su3, np.eye(8)[0])
    e1 = AlgebraElement(su3, np.eye(8)[1])
    assert scalar_product(e0, e0) == 1.0
    assert scalar_product(e0, e1) == 0.0
    x = rng.normal(size=8)
    y = rng.normal(size=8)
    assert abs(float(x @ y) - trace_product(su3, x, y)) < 1e-12
    assert scalar_product(AlgebraElement(su3, x), AlgebraElement(su3, x)) > 0


def test_basis_mismatch_raises(su2, su3):
    x = AlgebraElement(su2, np.ones(3))
    y = AlgebraElement(su3, np.ones(8))
    with pytest.raises(DimensionMismatchError):
        bracket(x, y)
    with pytest.raises(DimensionMismatchError):
        scalar_product(x, y)


@pytest.mark.parametrize("name", ALGEBRAS)
def test_ad_invariance(name, rng):
    basis = build_algebra(name)
    c = basis.structure_constants
    for _ in range(10):
        x, y, z = rng.normal(size=(3, basis.dim_g))
        zx = np.einsum("kij,i,j->k", c, z, x)
        zy = np.einsum("kij,i,j->k", c, z, y)
        assert abs(zx @ y + x @ zy) < 1e-10


def test_quartic_aligned_and_zero(su2):
    aligned = SpatialAlgebraVector(su2, np.outer([0.3, -1.2, 2.0], [1.0, 0.0, 0.0]))
    assert quartic_contraction(aligned) == 0.0
    zero = SpatialAlgebraVector(su2, np.zeros((3, 3)))
    assert quartic_contraction(zero) == 0.0


def test_quartic_su2_frozen_value(su2):
    # a_1 = b_1, a_2 = b_2: the (1,2) and (2,1) terms each contribute c^2 = 1/2
    coeffs = np.zeros((3, 3))
    coeffs[0, 0] = 1.0
    coeffs[1, 1] = 1.0
    a = SpatialAlgebraVector(su2, coeffs)
    assert abs(quartic_contraction(a) - 1.0) < 1e-13
    assert abs(quartic_via_matrices(su2, coeffs) - 1.0) < 1e-12


@pytest.mark.parametrize("name", ALGEBRAS)
def test_quartic_two_routes_and_matrix_oracle(name, rng):
    basis = build_algebra(name)
    for _ in range(10):
        coeffs = rng.normal(size=(3, basis.dim_g))
        a = SpatialAlgebraVector(basis, coeffs)
        q1 = quartic_contraction(a)
        q2 = quartic_contraction_via_brackets(a)
        q3 = quartic_via_matrices(basis, coeffs)
        assert q1 >= 0.0
        assert abs(q1 - q2) < 1e-10 * max(1.0, q1)
        assert abs(q1 - q3) < 1e-9 * max(1.0, q1)


def test_quartic_scaling(su2, rng):
    coeffs = rng.normal(size=(3, 3))
    a = SpatialAlgebraVector(su2, coeffs)
    lam = 1.7
    scaled = SpatialAlgebraVector(su2, lam * coeffs)
    assert abs(quartic_contraction(scaled) - lam ** 4 * quartic_contraction(a)) \
        < 1e-10 * quartic_contraction(scaled)


@pytest.mark.parametrize("name", ["su2", "su3", "so4"])
def test_quartic_adjoint_invariance(name, rng):
    basis = build_algebra(name)
    coeffs = rng.normal(size=(3, basis.dim_g))
    a = SpatialAlgebraVector(basis, coeffs)
    rot = adjoint_rotation(basis, rng.normal(size=basis.dim_g))
    rotated = SpatialAlgebraVector(basis, coeffs @ rot.T)
    q0 = quartic_contraction(a)
    q1 = quartic_contraction(rotated)
    assert abs(q1 - q0) < 1e-8 * max(1.0, q0)


def test_check_structure_detects_perturbation(su2):
    c = su2.structure_constants.copy()
    c[0, 1, 2] += 0.1
    broken = LieAlgebraBasis("su2-broken", c, su2.matrix_basis)
    report = check_structure(broken)
    assert report.closure > 0.05
    assert report.total_antisymmetry > 0.05


def test_empty_basis_rejected():
    with pytest.raises(ConfigurationError):
        LieAlgebraBasis("empty", np.zeros((0, 0, 0)), np.zeros((0, 2, 2)))
