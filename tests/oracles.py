"""Independent reference computations used by the test suite.

Each oracle deliberately avoids the code path it checks: brackets via
dense matrix commutators, the lattice kernels and the RK4 step via the
dense einsum bracket and np.roll differences they replaced, the gauge
action (no command transforms a field, so only the tests carry it) via
site-wise orthogonal matrices, np.roll differences and a scipy matrix
exponential of ad(phi), so the covariance tests share no kernel with the
stencils they check, the curvature pairs via the nine-block
antisymmetric layout, the Helmholtz projector via FFT symbols, the
Gaussian smoothing via finite-difference stencils on point evaluations,
the energy symbol via products and sums in the symbol ring, quantization
via explicit ladder-matrix products and via the full-width feasibility
mask it replaced, the Fock basis via recursive enumeration and its state
index via a dictionary of occupation rows, the lowest block levels and
their multiplicities via the full dense spectrum and via Lanczos with a
Sylvester inertia certificate from a symmetric sparse LU, and wave
evolution via the dispersion relation of the spatially discrete system.
The scipy.sparse path that the numpy Csr operators replaced is kept as
the reference for them: quantization summed into a scipy CSR matrix, and
block eigenvalues from scipy fancy indexing with components labelled on
the symmetrized sparse pattern.
It also holds the lattice helpers that only tests use: the inner product
field_dot, the stencil's Fourier eigenvalues and random scalar fields;
and the Fock helpers that only tests use, each built on scipy.sparse:
ladder and number operators, vectors and expectations, the Hermiticity
defect and the operator text format.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from ymspec.algebra import LieAlgebraBasis
from ymspec.errors import ConfigurationError, DimensionMismatchError, NumericalError
from ymspec.fock import (
    Csr,
    FockBasis,
    FockOperator,
    _ladder_amplitudes,
    _monomial_entries,
    build_basis,
)
from ymspec.lattice import (
    LatticeSpec,
    ScalarAlgebraField,
    VectorAlgebraField,
    _band_limited,
    _same_geometry,
)


# ---------------------------------------------------------------------------
# algebra oracles
# ---------------------------------------------------------------------------

def commutator_bracket(basis, x_coeffs, y_coeffs):
    """[X, Y] computed from dense matrices, returned as coefficients."""
    mats = basis.matrix_basis
    xm = np.einsum("i,iab->ab", x_coeffs, mats)
    ym = np.einsum("i,iab->ab", y_coeffs, mats)
    comm = xm @ ym - ym @ xm
    return np.einsum("iab,ab->i", mats, comm)


def trace_product(basis, x_coeffs, y_coeffs):
    mats = basis.matrix_basis
    xm = np.einsum("i,iab->ab", x_coeffs, mats)
    ym = np.einsum("i,iab->ab", y_coeffs, mats)
    return float(np.trace(xm.T @ ym))


def adjoint_rotation(basis, direction):
    """Orthogonal dim_g x dim_g matrix exp(ad(phi)) acting on coefficients,
    phi = sum_i direction[i] b_i."""
    ad = np.einsum("i,kij->kj", np.asarray(direction, dtype=float),
                   basis.structure_constants)
    return la.expm(ad)


def quartic_via_matrices(basis, a_coeffs):
    """sum_{j,k} Trace([A_j, A_k]^T [A_j, A_k]) from dense matrices."""
    mats = np.einsum("kp,pab->kab", a_coeffs, basis.matrix_basis)
    total = 0.0
    for j in range(3):
        for k in range(3):
            comm = mats[j] @ mats[k] - mats[k] @ mats[j]
            total += float(np.trace(comm.T @ comm))
    return total


# ---------------------------------------------------------------------------
# lattice kernels and RK4 step as first written
# ---------------------------------------------------------------------------

def einsum_bracket(basis, x, y):
    """[x, y] on (dim_g, ...) coefficient arrays by dense contraction with
    every structure constant, zeros included."""
    return np.einsum("kij,i...,j...->k...", basis.structure_constants, x, y)


def roll_diff(arr, axis, spacing):
    """Periodic central difference from two rolled copies."""
    return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2.0 * spacing)


def reference_force(basis, spacing, a):
    """de_k/dt = sum_j (D_j F_jk - [a_j, F_jk]), all nine F_jk computed
    from their definition (no antisymmetry used)."""
    f = np.zeros((3,) + a.shape)
    for j in range(3):
        for k in range(3):
            if j != k:
                f[j, k] = (roll_diff(a[k], 1 + j, spacing)
                           - roll_diff(a[j], 1 + k, spacing)
                           - einsum_bracket(basis, a[j], a[k]))
    out = np.zeros_like(a)
    for k in range(3):
        for j in range(3):
            if j != k:
                out[k] += (roll_diff(f[j, k], 1 + j, spacing)
                           - einsum_bracket(basis, a[j], f[j, k]))
    return out


def expand_pairs(f):
    """The nine-block curvature (3, 3, ...) from its pairs F_01, F_02,
    F_12, with F_kj = -F_jk and F_jj = 0."""
    full = np.zeros((3, 3) + f.shape[1:])
    for p, (j, k) in enumerate(((0, 1), (0, 2), (1, 2))):
        full[j, k] = f[p]
        full[k, j] = -f[p]
    return full


def reference_rk4_step(basis, spacing, a0, e0, h):
    """Classical RK4 on the pair (a, e) with every stage of both fields;
    returns the new (a, e) arrays."""
    def deriv(a, e):
        return e, reference_force(basis, spacing, a)

    k1a, k1e = deriv(a0, e0)
    k2a, k2e = deriv(a0 + 0.5 * h * k1a, e0 + 0.5 * h * k1e)
    k3a, k3e = deriv(a0 + 0.5 * h * k2a, e0 + 0.5 * h * k2e)
    k4a, k4e = deriv(a0 + h * k3a, e0 + h * k3e)
    return (a0 + (h / 6.0) * (k1a + 2 * k2a + 2 * k3a + k4a),
            e0 + (h / 6.0) * (k1e + 2 * k2e + 2 * k3e + k4e))


# ---------------------------------------------------------------------------
# gauge action: group-valued fields and the affine action on connections
# ---------------------------------------------------------------------------

@dataclass
class GaugeGroupField:
    """Site-wise orthogonal matrices acting on the matrix representation."""

    lattice: LatticeSpec
    basis: LieAlgebraBasis
    data: np.ndarray  # (n, n, n, d, d)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        n, d = self.lattice.n, self.basis.matrix_basis.shape[1]
        if self.data.shape != (n, n, n, d, d):
            raise DimensionMismatchError(
                f"gauge field shape {self.data.shape} does not match "
                f"(n, n, n, d, d) = ({n}, {n}, {n}, {d}, {d})"
            )

    def orthogonality_defect(self) -> float:
        d = self.basis.matrix_basis.shape[1]
        gtg = np.matmul(self.data.swapaxes(-1, -2), self.data)
        return float(np.abs(gtg - np.eye(d)).max())

    def validate(self, tol: float = 1e-10):
        defect = self.orthogonality_defect()
        if defect > tol:
            raise ConfigurationError(
                f"gauge field is not orthogonal (defect {defect:.3e} > {tol:.0e})"
            )
        dets = np.linalg.det(self.data)
        if np.any(dets < 0.5):
            raise ConfigurationError("gauge field has determinant != +1 somewhere")

    @classmethod
    def identity(cls, lattice, basis) -> "GaugeGroupField":
        n, d = lattice.n, basis.matrix_basis.shape[1]
        data = np.broadcast_to(np.eye(d), (n, n, n, d, d)).copy()
        return cls(lattice, basis, data)

    def compose(self, other: "GaugeGroupField") -> "GaugeGroupField":
        """Pointwise product self(x) other(x)."""
        return GaugeGroupField(
            self.lattice, self.basis, np.matmul(self.data, other.data)
        )

    def inverse(self) -> "GaugeGroupField":
        return GaugeGroupField(
            self.lattice, self.basis, self.data.swapaxes(-1, -2).copy()
        )


def _expm_skew(mats: np.ndarray) -> np.ndarray:
    """Batched matrix exponential by scaling-and-squaring Taylor series."""
    norm = np.abs(mats).sum(axis=-1).max() if mats.size else 0.0
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / 0.25))))
    x = mats / (2.0 ** squarings)
    d = mats.shape[-1]
    eye = np.broadcast_to(np.eye(d), mats.shape)
    result = eye + x
    term = x
    for k in range(2, 15):
        term = np.matmul(term, x) / k
        result = result + term
    for _ in range(squarings):
        result = np.matmul(result, result)
    return result


def exp_gauge(phi) -> GaugeGroupField:
    """Pointwise exponential of an algebra-valued field into the gauge group."""
    mats = np.einsum(
        "cxyz,cab->xyzab", phi.data, phi.basis.matrix_basis, optimize=True
    )
    return GaugeGroupField(phi.lattice, phi.basis, _expm_skew(mats))


def _to_matrix_field(x: np.ndarray, basis) -> np.ndarray:
    """(..., dim_g, n, n, n) coefficients -> (..., n, n, n, d, d) matrices."""
    return np.einsum("...cxyz,cab->...xyzab", x, basis.matrix_basis, optimize=True)


def _to_coefficients(m: np.ndarray, basis) -> np.ndarray:
    """Trace-project matrices back onto the orthonormal basis."""
    return np.einsum("iab,...xyzab->...ixyz", basis.matrix_basis, m, optimize=True)


def adjoint_transform(g: GaugeGroupField, field):
    """Pointwise adjoint action g X g^-1 on a scalar or vector field."""
    _same_geometry(g, field)
    mats = _to_matrix_field(field.data, field.basis)
    gt = g.data.swapaxes(-1, -2)
    rotated = np.matmul(np.matmul(g.data, mats), gt)
    coeffs = _to_coefficients(rotated, field.basis)
    return type(field)(field.lattice, field.basis, coeffs)


def gauge_transform(
    g: GaugeGroupField, a: VectorAlgebraField, validate: bool = True
) -> VectorAlgebraField:
    """Affine gauge action a_k -> Ad(g) a_k + (D_k g) g^-1.

    The inhomogeneous sign is fixed by covariance with the gauged
    derivative D_k - ad(a_k): with it, grad/div/Laplacian intertwine
    with the adjoint action and the Gauss residual is gauge invariant
    up to discretization error.  D_k g is the rolled central difference,
    not the lattice stencil under test.
    """
    _same_geometry(g, a)
    if validate:
        g.validate()
    h = a.lattice.spacing
    gt = g.data.swapaxes(-1, -2)
    a_mats = _to_matrix_field(a.data, a.basis)  # (3, n, n, n, d, d)
    out = np.matmul(np.matmul(g.data, a_mats), gt)
    for k in range(3):
        dg = roll_diff(g.data, k, h)
        out[k] += np.matmul(dg, gt)
    return VectorAlgebraField(a.lattice, a.basis, _to_coefficients(out, a.basis))


# ---------------------------------------------------------------------------
# lattice test helpers (no command needs them)
# ---------------------------------------------------------------------------

def field_dot(x, y) -> float:
    """Volume-weighted inner product summing sites, components, algebra."""
    _same_geometry(x, y)
    return float(x.lattice.volume_factor * np.sum(x.data * y.data))


def stencil_eigenvalue(lattice: LatticeSpec, mode: tuple) -> float:
    """Fourier eigenvalue of the composed central-difference Laplacian."""
    n, h = lattice.n, lattice.spacing
    return -sum(np.sin(2.0 * np.pi * m / n) ** 2 for m in mode) / h ** 2


def random_scalar_field(
    rng, lattice: LatticeSpec, basis: LieAlgebraBasis,
    amplitude: float = 1.0, max_mode: int = 2,
) -> ScalarAlgebraField:
    """Band-limited random scalar field, scaled to RMS ``amplitude``."""
    data = _band_limited(rng, (basis.dim_g,), lattice.n, max_mode)
    rms = np.sqrt(np.mean(data * data))
    if rms > 0:
        data *= amplitude / rms
    return ScalarAlgebraField(lattice, basis, data)


# ---------------------------------------------------------------------------
# Helmholtz projector via FFT (a = 0)
# ---------------------------------------------------------------------------

def fft_longitudinal(lattice, data):
    """Longitudinal part of a vector field from the central-difference
    symbol khat_j = sin(2 pi m_j / n) / h; zero on null modes."""
    n, h = lattice.n, lattice.spacing
    freq = np.fft.fftfreq(n) * n
    khat = np.sin(2.0 * np.pi * freq / n) / h
    kx = khat[:, None, None] * np.ones((n, n, n))
    ky = khat[None, :, None] * np.ones((n, n, n))
    kz = khat[None, None, :] * np.ones((n, n, n))
    kvec = np.array([kx, ky, kz])
    k2 = np.sum(kvec * kvec, axis=0)
    fhat = np.fft.fftn(data, axes=(-3, -2, -1))
    dot = np.einsum("kxyz,ckxyz->cxyz", kvec, fhat.transpose(1, 0, 2, 3, 4))
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(k2 > 1e-14, 1.0 / np.where(k2 > 1e-14, k2, 1.0), 0.0)
    lon = np.einsum("cxyz,kxyz->kcxyz", dot * scale, kvec)
    return np.real(np.fft.ifftn(lon, axes=(-3, -2, -1)))


def fft_projector_dense(lattice, dim_g):
    """Dense matrix of the longitudinal projector on all field dofs."""
    n = lattice.n
    dofs = 3 * dim_g * n ** 3
    cols = []
    for flat in range(dofs):
        e = np.zeros(dofs)
        e[flat] = 1.0
        data = e.reshape(3, dim_g, n, n, n)
        cols.append(fft_longitudinal(lattice, data).reshape(dofs))
    return np.array(cols).T


# ---------------------------------------------------------------------------
# Gaussian smoothing via exact finite-difference stencils
# ---------------------------------------------------------------------------

_STENCIL = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_OFFSETS = np.array([-2, -1, 0, 1, 2])


def evaluate_batch(symbol, Z):
    """Evaluate a symbol on the diagonal at many points; Z is (N, D)."""
    Z = np.asarray(Z, dtype=complex)
    Zc = np.conj(Z)
    total = np.zeros(Z.shape[0], dtype=complex)
    for (alpha, beta), coeff in symbol.terms.items():
        vals = np.full(Z.shape[0], coeff, dtype=complex)
        for m, p in enumerate(alpha):
            if p:
                vals *= Zc[:, m] ** p
        for m, p in enumerate(beta):
            if p:
                vals *= Z[:, m] ** p
        total += vals
    return total


def smoothed_value_fd(symbol, z_point, t, h=0.5):
    """exp(t sum_m d/dz*_m d/dz_m) at a diagonal point via stencils.

    On diagonal restrictions the contraction equals one quarter of the
    (x, y) Laplacian per mode.  The exponential series terminates at
    degree // 2 for polynomials; the five-point second-derivative stencil
    is exact through degree five, so every stage is exact up to roundoff.
    Supports polynomial degree <= 5 (series order <= 2).
    """
    D = symbol.num_modes
    if symbol.degree > 5:
        raise ValueError("stencil oracle supports symbols of degree <= 5")
    base = np.concatenate([np.real(z_point), np.imag(z_point)]).astype(float)
    coords = 2 * D  # real parametrization (x_1..x_D, y_1..y_D)

    def to_complex(points):
        return points[:, :D] + 1j * points[:, D:]

    total = evaluate_batch(symbol, to_complex(base[None, :]))[0]
    orders = symbol.degree // 2
    if orders >= 1:
        # first-order term: sum of one-coordinate second derivatives / 4
        points = np.repeat(base[None, :], coords * 5, axis=0)
        for c in range(coords):
            for i, off in enumerate(_OFFSETS):
                points[c * 5 + i, c] += off * h
        vals = evaluate_batch(symbol, to_complex(points)).reshape(coords, 5)
        lap1 = vals @ _STENCIL / (h * h)
        total += t * lap1.sum() / 4.0
    if orders >= 2:
        # second-order term: all coordinate pairs, tensor-product stencils
        points = np.repeat(base[None, :], coords * coords * 25, axis=0)
        row = 0
        for c1 in range(coords):
            for c2 in range(coords):
                for o1 in _OFFSETS:
                    for o2 in _OFFSETS:
                        points[row, c1] += o1 * h
                        points[row, c2] += o2 * h
                        row += 1
        vals = evaluate_batch(symbol, to_complex(points)).reshape(
            coords, coords, 5, 5
        )
        lap2 = np.einsum("abij,i,j->", vals, _STENCIL, _STENCIL) / h ** 4
        total += (t ** 2 / 2.0) * lap2 / 16.0
    return total


# ---------------------------------------------------------------------------
# scipy views of the numpy Csr operators, and the Fock helpers only tests
# use: ladder and number operators, vectors, expectations, the Hermiticity
# defect and the operator text format
# ---------------------------------------------------------------------------

def to_csr(q: FockOperator) -> sparse.csr_matrix:
    """The scipy CSR matrix holding the arrays of q.matrix."""
    m = q.matrix
    return sparse.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def from_csr(mat) -> Csr:
    """The numpy Csr of a scipy sparse matrix or a dense array, complex,
    in canonical form (columns ascending in each row, duplicates summed)."""
    mat = sparse.csr_matrix(mat, dtype=complex)
    mat.sum_duplicates()
    return Csr(mat.indptr, mat.indices, mat.data)


@dataclass
class FockVector:
    basis: FockBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.basis.size,):
            raise DimensionMismatchError(
                f"amplitude vector length {self.amplitudes.shape} does not match "
                f"basis size {self.basis.size}"
            )

    @classmethod
    def vacuum(cls, basis: FockBasis) -> "FockVector":
        amp = np.zeros(basis.size, dtype=complex)
        amp[0] = 1.0
        return cls(basis, amp)


def ladder(basis: FockBasis, mode: int, kind: str) -> FockOperator:
    """Creation or annihilation operator for one mode.

    Creation maps |mu> to sqrt(mu_m + 1)|mu + e_m>, dropping states that
    leave the enumerated basis; annihilation is its adjoint.
    """
    if not 0 <= mode < basis.D:
        raise ConfigurationError(
            f"mode index {mode} out of range for D={basis.D}"
        )
    if kind not in ("create", "annihilate"):
        raise ConfigurationError(f"ladder kind must be create|annihilate, got '{kind}'")
    tgt = basis.raised[mode]
    src = np.arange(tgt.size)
    vals = np.sqrt(basis.states[src, mode] + 1.0)
    if kind == "create":
        mat = sparse.coo_matrix((vals, (tgt, src)), shape=(basis.size, basis.size))
    else:
        mat = sparse.coo_matrix((vals, (src, tgt)), shape=(basis.size, basis.size))
    return FockOperator(basis, from_csr(mat))


def number_operator(basis: FockBasis) -> FockOperator:
    """Diagonal operator counting total occupation |mu|."""
    return FockOperator(basis, from_csr(sparse.diags(basis.degrees.astype(complex))))


def expectation(q: FockOperator, psi: FockVector) -> complex:
    """Normalized expectation <psi|Q|psi> / <psi|psi>."""
    if psi.basis.size != q.basis.size:
        raise DimensionMismatchError("vector and operator bases differ")
    norm2 = np.vdot(psi.amplitudes, psi.amplitudes).real
    if norm2 == 0.0:
        raise ConfigurationError("expectation of the zero vector is undefined")
    return complex(np.vdot(psi.amplitudes, to_csr(q) @ psi.amplitudes) / norm2)


def hermiticity_defect(q: FockOperator) -> float:
    """Largest |Q - Q^H| entry."""
    m = to_csr(q)
    d = m - m.conj().T
    return 0.0 if d.nnz == 0 else float(np.abs(d.data).max())


def operator_to_text(q: FockOperator, convention: str | None = None) -> str:
    """Coordinate-list text export with a JSON header line."""
    b = q.basis
    header = json.dumps({"D": b.D, "N_max": b.N_max, "depth": b.depth,
                         "convention": convention})
    coo = to_csr(q).tocoo()
    order = np.lexsort((coo.col, coo.row))
    lines = [header]
    for i in order:
        lines.append(
            f"{coo.row[i]} {coo.col[i]} {coo.data[i].real:.17g} {coo.data[i].imag:.17g}"
        )
    return "\n".join(lines) + "\n"


def operator_from_text(text: str, basis: FockBasis | None = None):
    """Inverse of operator_to_text; returns (FockOperator, header dict)."""
    lines = text.strip().split("\n")
    header = json.loads(lines[0])
    if basis is None:
        basis = build_basis(header["D"], header["N_max"],
                            depth=header.get("depth"))
    rows, cols, vals = [], [], []
    for line in lines[1:]:
        r, c, re, im = line.split()
        rows.append(int(r))
        cols.append(int(c))
        vals.append(complex(float(re), float(im)))
    mat = sparse.coo_matrix((vals, (rows, cols)), shape=(basis.size, basis.size))
    return FockOperator(basis, from_csr(mat)), header


# ---------------------------------------------------------------------------
# quantization via explicit ladder-matrix products or the full-width
# feasibility mask; the Fock basis by recursive enumeration, its index by
# a dictionary
# ---------------------------------------------------------------------------

def ladder_quantize(symbol, convention, basis):
    """Quantize by multiplying explicit sparse ladder matrices."""
    size = basis.size
    creators = [to_csr(ladder(basis, m, "create")) for m in range(basis.D)]
    annihilators = [to_csr(ladder(basis, m, "annihilate")) for m in range(basis.D)]
    total = sparse.csr_matrix((size, size), dtype=complex)
    for (alpha, beta), coeff in symbol.terms.items():
        op = sparse.identity(size, dtype=complex, format="csr")
        if convention == "normal":
            # rightmost factors act first: annihilators, then creators
            for m, p in enumerate(alpha):
                for _ in range(p):
                    op = op @ creators[m]
            for m, p in enumerate(beta):
                for _ in range(p):
                    op = op @ annihilators[m]
        elif convention == "antinormal":
            for m, p in enumerate(beta):
                for _ in range(p):
                    op = op @ annihilators[m]
            for m, p in enumerate(alpha):
                for _ in range(p):
                    op = op @ creators[m]
        else:
            raise ValueError("ladder oracle supports normal/antinormal only")
        total = total + coeff * op
    return total


def full_width_monomial_entries(basis, alpha, beta, convention):
    """(rows, cols, vals) of one monomial, as fock._monomial_entries first
    computed them: the cutoff and occupation tests on every basis state
    and every mode, one branch per convention."""
    states = basis.states
    degrees = basis.degrees
    da, db = sum(alpha), sum(beta)
    alpha_arr = np.array(alpha, dtype=np.int64)
    beta_arr = np.array(beta, dtype=np.int64)

    if convention == "normal":
        # annihilate first, then create; only the final state can leave the cutoff
        mask = (degrees - db + da <= basis.N_max) & np.all(
            states >= beta_arr, axis=1
        )
        src = np.flatnonzero(mask)
        if src.size == 0:
            return None
        lowered = states[src] - beta_arr
        amp = _ladder_amplitudes(states[src], beta, raise_op=False)
        amp *= _ladder_amplitudes(lowered, alpha, raise_op=True)
        final = lowered + alpha_arr
    else:  # antinormal: create first (may leave the cutoff), then annihilate
        mask = (degrees + da <= basis.N_max) & np.all(
            states + alpha_arr >= beta_arr, axis=1
        )
        src = np.flatnonzero(mask)
        if src.size == 0:
            return None
        raised = states[src] + alpha_arr
        amp = _ladder_amplitudes(states[src], alpha, raise_op=True)
        amp *= _ladder_amplitudes(raised, beta, raise_op=False)
        final = raised - beta_arr

    rows = basis.index_of(final)
    return rows, src, amp


def _keyed_monomial_entries(basis, alpha, beta, convention):
    """(rows, cols, vals) of one monomial z*^alpha z^beta under a convention,
    as fock._monomial_entries computed them before the raise tables: a
    per-term occupation mask on the degree prefix, and the target rows
    looked up by key.

    Normal ordering annihilates first, so only its final state can leave
    the cutoff; anti-normal ordering creates first, so its intermediate
    state must stay inside; either way the final state has degree <= depth.
    The degree bounds select a prefix of the basis; in it, a source state
    holds at least ``need`` quanta on each mode where ``need`` is positive.
    """
    alpha_arr = np.array(alpha, dtype=np.int64)
    beta_arr = np.array(beta, dtype=np.int64)
    normal = convention == "normal"
    if normal:
        bound, need = basis.N_max + sum(beta) - sum(alpha), beta_arr
    else:
        bound, need = basis.N_max - sum(alpha), beta_arr - alpha_arr
    bound = min(bound, basis.depth - sum(alpha) + sum(beta))
    end = np.searchsorted(basis.degrees, bound, side="right")
    support = np.flatnonzero(need > 0)
    src = np.flatnonzero(
        np.all(basis.states[:end, support] >= need[support], axis=1)
    )
    if src.size == 0:
        return None
    occ = basis.states[src]
    if normal:
        amp = _ladder_amplitudes(occ, beta, raise_op=False)
        amp *= _ladder_amplitudes(occ - beta_arr, alpha, raise_op=True)
    else:
        amp = _ladder_amplitudes(occ, alpha, raise_op=True)
        amp *= _ladder_amplitudes(occ + alpha_arr, beta, raise_op=False)
    rows = basis.index_of(occ + (alpha_arr - beta_arr))
    return rows, src, amp


def sparse_chunk_matrix(chunks, size: int) -> sparse.csr_matrix:
    """Sum of the (keys, vals) entry lists, key = row * size + col, as one
    CSR matrix; a stable sort keeps each entry's duplicates in list order,
    and reduceat sums them in an order fixed by that run alone."""
    keys, vals = (np.concatenate(part) for part in zip(*chunks))
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    indptr = np.searchsorted(keys[first], np.arange(size + 1) * size)
    return sparse.csr_matrix(
        (np.add.reduceat(vals, first), keys[first] % size, indptr),
        shape=(size, size))


def keyed_quantize(s, convention, basis) -> sparse.csr_matrix:
    """fock.quantize before the raise tables and the dense diagonal: every
    term, diagonal ones included, goes through the key sort and reduceat,
    and its target rows through FockBasis.index_of.  Returns the scipy
    CSR matrix.

    normal:     z*^a z^b  ->  (creators)^a (annihilators)^b
    antinormal: z*^a z^b  ->  (annihilators)^b (creators)^a
    weyl:       convert the symbol to normal form, then quantize normally.
    Terms are summed in sorted key order: the matrix depends only on the
    symbol's content."""
    from ymspec.symbols import convert, validate_ordering

    validate_ordering(convention)
    if s.num_modes != basis.D:
        raise DimensionMismatchError(
            f"symbol has {s.num_modes} modes but basis has D={basis.D}"
        )
    if convention == "weyl":
        return keyed_quantize(convert(s, "weyl", "normal"), "normal", basis)

    size = basis.size
    total = sparse.csr_matrix((size, size), dtype=complex)
    chunks, pending = [], 0
    for (alpha, beta), coeff in sorted(s.terms.items()):
        entries = _keyed_monomial_entries(basis, alpha, beta, convention)
        if entries is None:
            continue
        rows, cols, amp = entries
        chunks.append((rows * size + cols, amp * coeff))
        pending += rows.size
        if pending >= 4_000_000:
            total, chunks, pending = total + sparse_chunk_matrix(chunks, size), [], 0
    if pending:
        total = total + sparse_chunk_matrix(chunks, size)
    return total


def sparse_quantize(s, convention, basis,
                    chunk_entries=4_000_000) -> sparse.csr_matrix:
    """fock.quantize as it summed into scipy CSR matrices: the entries of
    the off-diagonal terms by sparse_chunk_matrix, one chunk of at least
    chunk_entries entries at a time, the dense diagonal added as a sparse
    diagonal matrix, exact zeros dropped by the sparse sums."""
    from ymspec.symbols import convert

    if convention == "weyl":
        return sparse_quantize(convert(s, "weyl", "normal"), "normal", basis,
                               chunk_entries)
    size = basis.size
    diagonal = np.zeros(size, dtype=complex)
    total = sparse.csr_matrix((size, size), dtype=complex)
    chunks, pending = [], 0
    for (alpha, beta), coeff in sorted(s.terms.items()):
        entries = _monomial_entries(basis, alpha, beta, convention)
        if entries is None:
            continue
        rows, cols, amp = entries
        if alpha == beta:
            diagonal[cols] += amp * coeff
            continue
        chunks.append((rows * size + cols, amp * coeff))
        pending += rows.size
        if pending >= chunk_entries:
            total, chunks, pending = total + sparse_chunk_matrix(chunks, size), [], 0
    if pending:
        total = total + sparse_chunk_matrix(chunks, size)
    return total + sparse.diags(diagonal, format="csr")


def recursive_compositions(total, parts):
    """Nonnegative integer tuples of given length summing to total, lex order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in recursive_compositions(total - first, parts - 1):
            yield (first,) + rest


def recursive_basis_states(D, N_max):
    """(size, D) occupation rows, degree-major then lexicographic, from the
    recursive enumeration."""
    rows = [c for n in range(N_max + 1) for c in recursive_compositions(n, D)]
    return np.array(rows, dtype=np.int64).reshape(len(rows), D)


def dict_index_of(basis, states):
    """Basis indices of occupation rows by a dictionary keyed on the raw
    bytes of every basis row, as wide bases were first indexed."""
    lookup = {row.tobytes(): i for i, row in enumerate(basis.states)}
    rows = np.asarray(states, dtype=np.int64)
    return np.array([lookup[row.tobytes()] for row in rows], dtype=np.int64)


def random_symbol(rng, D, degree, hermitian=False, n_terms=10):
    """Random sparse polynomial symbol for round-trip and oracle tests."""
    from ymspec.symbols import PolynomialSymbol

    terms = {}
    for _ in range(n_terms):
        total = int(rng.integers(0, degree + 1))
        split = rng.multinomial(total, np.full(2 * D, 1.0 / (2 * D)))
        alpha = tuple(int(x) for x in split[:D])
        beta = tuple(int(x) for x in split[D:])
        terms[(alpha, beta)] = complex(rng.normal(), rng.normal())
    s = PolynomialSymbol(D, terms)
    if hermitian:
        s = (s + s.conjugate()) * 0.5
    return s


# ---------------------------------------------------------------------------
# energy symbol through the dict-backed symbol ring
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def _field_symbols(mode_map):
    """Per-(j, p) symbols for a and e; zero symbol for dropped modes."""
    from ymspec.symbols import PolynomialSymbol

    D = mode_map.num_modes
    a_sym = [[PolynomialSymbol.zero(D) for _ in range(mode_map.dim_g)]
             for _ in range(3)]
    e_sym = [[PolynomialSymbol.zero(D) for _ in range(mode_map.dim_g)]
             for _ in range(3)]
    for m, (j, p) in enumerate(mode_map.labels):
        zs = PolynomialSymbol.zstar(D, m)
        z = PolynomialSymbol.z(D, m)
        a_sym[j][p] = (z + zs) * (1.0 / _SQRT2)
        e_sym[j][p] = (z - zs) * (-1j / _SQRT2)
    return a_sym, e_sym


def ring_energy_symbol(basis, mode_map, include_magnetic=True):
    """symbols.energy_symbol as first written: per-field symbols multiplied
    and added in the symbol ring, both orders of each pair j != k summed
    and halved."""
    from ymspec.errors import DimensionMismatchError
    from ymspec.symbols import PolynomialSymbol

    if mode_map.dim_g != basis.dim_g:
        raise DimensionMismatchError(
            f"mode map dim_g={mode_map.dim_g} does not match basis "
            f"dim_g={basis.dim_g}"
        )
    D = mode_map.num_modes
    if D == 0:
        return PolynomialSymbol.zero(0)
    a_sym, e_sym = _field_symbols(mode_map)

    h = PolynomialSymbol.zero(D)
    for j in range(3):
        for p in range(basis.dim_g):
            e = e_sym[j][p]
            if e.terms:
                h = h + e * e

    if include_magnetic:
        c = basis.structure_constants
        for j in range(3):
            for k in range(3):
                if j == k:
                    continue
                for m in range(basis.dim_g):
                    br = PolynomialSymbol.zero(D)
                    for p in range(basis.dim_g):
                        if not a_sym[j][p].terms:
                            continue
                        for q in range(basis.dim_g):
                            coef = c[m, p, q]
                            if coef != 0.0 and a_sym[k][q].terms:
                                br = br + (a_sym[j][p] * a_sym[k][q]) * coef
                    if br.terms:
                        h = h + br * br

    return h * 0.5


# ---------------------------------------------------------------------------
# lowest level of a Hermitian compression by Lanczos, certified by a
# Sylvester inertia count (the solver the component-wise dense solve
# replaced), and from its whole dense spectrum
# ---------------------------------------------------------------------------

def count_below(sub, sigma: float) -> int:
    """Number of eigenvalues of the Hermitian sparse matrix sub below sigma:
    by Sylvester's law of inertia, the negative pivots of a symmetric
    factorization P (sub - sigma) P^T = L D L^H.  A factor that pivoted
    off the diagonal, or a singular one, proves nothing."""
    shifted = (sub - sigma * sparse.identity(sub.shape[0], sub.dtype)).tocsc()
    try:
        lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise NumericalError(f"inertia factor at {sigma!r} failed: {exc}")
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NumericalError(f"inertia factor at {sigma!r} pivoted")
    return int(np.count_nonzero(lu.U.diagonal().real < 0))


def certified_minimum(matrix, idx: np.ndarray, tol: float):
    """(lam, sub): lowest eigenvalue of the Hermitian compression
    sub = matrix[idx, idx], certified by a zero inertia count below lam - tol.

    Lanczos finds lam from a fixed start vector with seeded restarts (a
    block with few distinct eigenvalues exhausts its Krylov space), so the
    digits repeat run to run; a block of at most two rows, below
    Lanczos's reach, is read densely.  A compression whose stored entries
    are all real is solved as a real symmetric matrix.
    """
    sub = matrix[np.ix_(idx, idx)]
    dim = idx.size
    herm_defect = abs(sub - sub.conj().T).max()
    if herm_defect > 1e-10 * max(1.0, abs(sub).max()):
        raise NumericalError(
            f"block is not Hermitian (defect {herm_defect:.3e})"
        )
    if not sub.data.imag.any():
        sub = sub.real
    if dim <= 2:  # eigsh needs k < dim - 1 for complex blocks
        lam = float(np.linalg.eigvalsh(sub.toarray())[0])
    else:
        try:
            lam = float(spla.eigsh(sub, k=1, which="SA", v0=np.ones(dim),
                                   rng=0, return_eigenvectors=False)[0])
        except spla.ArpackError as exc:
            raise NumericalError(
                f"eigensolver failed on a {dim}-dim block: {exc}")
    below = count_below(sub, lam - tol)
    if below:
        raise NumericalError(
            f"{below} eigenvalues of a {dim}-dim block lie below the "
            f"Lanczos minimum {lam!r} by more than {tol}"
        )
    return lam, sub


def lanczos_lowest_level(matrix, idx: np.ndarray, tol: float):
    """Certified lowest eigenvalue lam of matrix[idx, idx] and its
    multiplicity, the inertia count of eigenvalues below lam + tol."""
    lam, sub = certified_minimum(matrix, idx, tol)
    return lam, count_below(sub, lam + tol)


def dense_lowest_level(matrix, idx, tol):
    """(lam, multiplicity) of the compression matrix[idx, idx]: the lowest
    of all its eigenvalues by dense eigh, and how many lie <= lam + tol.
    A compression with no imaginary part is solved as a real matrix."""
    sub = matrix[np.ix_(idx, idx)].toarray()
    if not sub.imag.any():
        sub = sub.real
    vals = la.eigh(sub, eigvals_only=True)
    return float(vals[0]), int(np.sum(vals <= vals[0] + tol))


def sparse_component_labels(sub) -> np.ndarray:
    """spectrum._component_labels on a scipy matrix: the connected
    component of each row, on the symmetric pattern of sub != 0, numbered
    in the order of each component's smallest row, by the same min-label
    rounds with pointer jumping over the CSR graph pattern + pattern.T + I."""
    pattern = sub != 0
    graph = (pattern + pattern.T + sparse.identity(
        sub.shape[0], dtype=bool, format="csr")).tocsr()
    labels = np.arange(sub.shape[0])
    while True:
        new = np.minimum.reduceat(labels[graph.indices], graph.indptr[:-1])
        new = new[new]
        if np.array_equal(new, labels):
            return np.unique(labels, return_inverse=True)[1]
        labels = new


def sparse_block_eigenvalues(matrix, idx: np.ndarray) -> np.ndarray:
    """spectrum._block_eigenvalues on a scipy matrix: all eigenvalues,
    ascending, of sub = matrix[idx, idx], taken by scipy fancy indexing,
    permuted into component-major order and diagonalized one dense
    component at a time."""
    sub = matrix[np.ix_(idx, idx)]
    herm_defect = abs(sub - sub.conj().T).max()
    if herm_defect > 1e-10 * max(1.0, abs(sub).max()):
        raise NumericalError(
            f"block is not Hermitian (defect {herm_defect:.3e})"
        )
    if not sub.data.imag.any():
        sub = sub.real
    labels = sparse_component_labels(sub)
    sizes = np.bincount(labels)
    order = np.argsort(labels, kind="stable")
    sub = sub[np.ix_(order, order)]
    ends = np.cumsum(sizes)
    vals = np.concatenate([
        np.linalg.eigvalsh(sub[a:b, a:b].toarray())
        for a, b in zip(ends - sizes, ends)
    ])
    vals.sort()
    return vals


# ---------------------------------------------------------------------------
# abelian wave closed form (spatially discrete dispersion)
# ---------------------------------------------------------------------------

def abelian_wave(lattice, dim_g, amplitude, t):
    """Standing-wave solution of the spatially discretized linear system.

    Polarization along spatial component 2, algebra direction 1, varying
    along axis 1 with one full period; the exact frequency of the
    semi-discrete system is sin(2 pi / n) / spacing.
    """
    n, h = lattice.n, lattice.spacing
    x = np.arange(n)
    omega = np.sin(2.0 * np.pi / n) / h
    profile = amplitude * np.cos(2.0 * np.pi * x / n)[:, None, None]
    a = np.zeros((3, dim_g, n, n, n))
    e = np.zeros((3, dim_g, n, n, n))
    a[1, 0] = profile * np.cos(omega * t)
    e[1, 0] = -omega * profile * np.sin(omega * t)
    return a, e


def maxwell_energy(lattice, a_data, e_data):
    """(1/2) sum (E^2 + B^2) for a single-algebra-direction configuration,
    evaluated with scalar central differences only."""
    h = lattice.spacing
    b2 = 0.0
    for j in range(3):
        for k in range(j + 1, 3):
            f = roll_diff(a_data[k], j, h) - roll_diff(a_data[j], k, h)
            b2 += np.sum(f * f)
    e2 = np.sum(e_data * e_data)
    return 0.5 * lattice.volume_factor * (b2 + e2)
