"""Independent reference computations used by the test suite.

Each oracle deliberately avoids the code path it checks: brackets via
dense matrix commutators, the lattice kernels and the RK4 step via the
dense einsum bracket and np.roll differences they replaced, the Gauss
projection's Laplacian solve via the plain CG that the flat-Laplacian
preconditioner replaced, with the a = 0 null modes as the real-space
sign patterns that the preconditioner's zeroed Fourier modes replaced,
the gauge action (no command transforms a field, so only the tests
carry it) via site-wise orthogonal matrices,
np.roll differences and a scipy matrix exponential of ad(phi), so the
covariance tests share no kernel with the stencils they check, the
curvature pairs via the nine-block antisymmetric layout, the Helmholtz
projector via FFT symbols, the Gaussian smoothing via finite-difference
stencils on point evaluations, the energy symbol via products and sums
in the symbol ring, quantization via explicit ladder-matrix products,
via the full-width feasibility mask and term by term on the raise tables
of an enumerated basis, as fock.quantize computed it before it took
every term at once on any subset of states (with the whole safe-basis H
and its weight sectors built that way), the Fock basis via recursive
enumeration and its state index via a dictionary of occupation rows, the
lowest block levels and their multiplicities via the full dense spectrum
and via Lanczos with a Sylvester inertia certificate from a symmetric
sparse LU, and wave evolution via the dispersion relation of the
spatially discrete system. The scipy.sparse path that the numpy Csr
operators replaced is kept as the reference for them: quantization
summed into a scipy CSR matrix, and block eigenvalues from scipy fancy
indexing with components labelled on the symmetrized sparse pattern. The
real-mode spectrum path that the Cartan weight sectors replaced is kept
too: H quantized in the real modes and each block split into the
connected components of its sparsity graph. The Cartan-mode energy
symbol has its reference in substitution z = U w into the real-mode one,
term by term in the symbol ring, and the rotation symmetry behind the
zero-weight C* in the quantized generators of the colour and spatial
rotations. The truncation study that convergence_study replaced with one
solve is kept as well: the levels rebuilt and solved at every cutoff. So
is the spectrum path before it enumerated its row sets directly: the
whole safe basis by stars and bars, as fock.build_basis enumerated it,
with the level and zero-weight rows picked by FockBasis.subset, and C*
solved on the zero-weight rows without the N-parity split; the
zero-weight row counts have their reference in a count by degree and
weight.  The level solve before the orbit rule is kept too: the rows of
weight code >= 0, each sector of code > 0 counted twice for its mirror;
the orbit rows have their reference in an orbit search over the weights,
and the maps behind them in the real-mode rotation by pi about x and
su2's colour-spatial swap, their weight action derived from how they
conjugate the Cartan generators.
So are evolve, its RK4 step and energy with every intermediate in a
fresh array, as before the field pool, and the band-limited noise
transformed as one array rather than component by component.
It also holds the lattice helpers that only tests use: the inner product
field_dot, the stencil's Fourier eigenvalues and random scalar fields;
the Fock helpers that only tests use, each built on scipy.sparse:
the state index by occupation keys, ladder and number operators, vectors
and expectations, the Hermiticity defect and the operator text format,
plus the states of one degree and the safe block; and the symbol helpers that only tests use: comparison,
point evaluation and the symbol JSON format.
"""

import itertools
import json
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as la
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from ymspec.algebra import LieAlgebraBasis
from ymspec.errors import (
    ConfigurationError,
    DimensionMismatchError,
    DivergenceError,
    NumericalError,
)
from ymspec.fock import (
    Csr,
    FockBasis,
    FockOperator,
    build_basis,
)
from ymspec import dynamics, lattice
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
# evolve, its RK4 step and energy, and band-limited noise as they ran
# before the field pool: every intermediate in a fresh array
# ---------------------------------------------------------------------------

def allocating_rk4_step(state, h, curvature=None):
    """dynamics.rk4_step before the field pool, without its step checks:
    k_1 to k_4, two stage arrays and the new state each in fresh arrays."""
    lattice, basis = state.lattice, state.a.basis
    a0, e0 = state.a.data, state.e.data

    def force(a_arr):
        a = VectorAlgebraField(lattice, basis, a_arr)
        return dynamics._force(a, dynamics.curvature_magnetic(a))

    if curvature is None:
        curvature = dynamics.curvature_magnetic(state.a)
    k1 = dynamics._force(state.a, curvature)
    stage = e0 * (0.5 * h)
    stage += a0
    k2 = force(stage)
    drift = k1 * (0.25 * h * h)
    stage += drift
    k3 = force(stage)
    np.multiply(e0, h, out=drift)
    drift += a0  # a0 + h e0
    np.multiply(k2, 0.5 * h * h, out=stage)
    stage += drift
    k4 = force(stage)
    np.add(k1, k2, out=stage)
    stage += k3
    stage *= h * h / 6.0
    a_new = stage + drift
    k2 += k3
    k2 *= 2.0
    k1 += k2
    k1 += k4
    k1 *= h / 6.0
    e_new = k1 + e0
    return dynamics.CauchyState(
        VectorAlgebraField(lattice, basis, a_new),
        VectorAlgebraField(lattice, basis, e_new),
        state.t + h,
    )


def allocating_energy(state, f):
    """dynamics.energy before the field pool: each square a fresh array."""
    magnetic = 0.0
    for f_p in f:
        magnetic += float(np.sum(f_p * f_p))
    electric = float(np.sum(state.e.data * state.e.data))
    return 0.5 * state.lattice.volume_factor * (magnetic + electric)


def allocating_evolve(state, T, h):
    """dynamics.evolve's loop before the field pool, without the initial
    Gauss check: allocating_rk4_step and allocating_energy, the previous
    state held as the last finite one."""
    sizes = dynamics.step_sizes(T, h, state.lattice.sites() * state.a.basis.dim_g)
    report = dynamics.EvolutionReport()
    current = state
    with np.errstate(over="ignore", invalid="ignore"):
        f = dynamics.curvature_magnetic(current.a)
        report.record(current.t, allocating_energy(current, f),
                      lattice.constraint_residual(current.a, current.e))
        for step, size in enumerate(sizes):
            previous = current
            current = allocating_rk4_step(current, size, f)
            if not (np.isfinite(current.a.data).all()
                    and np.isfinite(current.e.data).all()):
                raise DivergenceError("fields became non-finite",
                                      last_state=previous, step=step + 1)
            f = dynamics.curvature_magnetic(current.a)
            report.record(current.t, allocating_energy(current, f),
                          lattice.constraint_residual(current.a, current.e))
    return current, report


def whole_array_band_limited(rng, shape_head, n, max_mode):
    """lattice._band_limited as one complex transform of every component
    at once."""
    noise = rng.normal(size=shape_head + (n, n, n))
    fhat = np.fft.fftn(noise, axes=(-3, -2, -1))
    freq = np.rint(np.fft.fftfreq(n) * n).astype(int)
    keep = np.abs(freq) <= max_mode
    mask = keep[:, None, None] & keep[None, :, None] & keep[None, None, :]
    fhat *= mask
    return np.fft.ifftn(fhat, axes=(-3, -2, -1)).real.copy()


def whole_array_random_vector_field(rng, lattice, basis, amplitude=1.0,
                                    max_mode=2):
    """lattice.random_vector_field on whole_array_band_limited."""
    data = whole_array_band_limited(rng, (3, basis.dim_g), lattice.n, max_mode)
    rms = np.sqrt(np.mean(data * data))
    if rms > 0:
        data *= amplitude / rms
    return VectorAlgebraField(lattice, basis, data)


def zero_gauge_null_patterns(n: int) -> np.ndarray:
    """Spatial sign patterns annihilated by every central difference.

    The constant pattern always; for even n also the 2^3 - 1 checkerboard
    patterns built from alternating signs along any subset of axes.
    """
    axis_choices = [np.ones(n)]
    if n % 2 == 0:
        axis_choices.append((-1.0) ** np.arange(n))
    patterns = []
    for vx in axis_choices:
        for vy in axis_choices:
            for vz in axis_choices:
                patterns.append(
                    vx[:, None, None] * vy[None, :, None] * vz[None, None, :]
                )
    return np.array(patterns)  # (P, n, n, n), each with sum of squares n^3


def project_null_modes(data: np.ndarray, patterns: np.ndarray):
    """Remove null-pattern content; returns (projected, removed_norm2)."""
    n3 = patterns[0].size
    out = data.copy()
    removed = 0.0
    for pat in patterns:
        coeff = np.tensordot(out, pat, axes=([-3, -2, -1], [0, 1, 2])) / n3
        out -= coeff[..., None, None, None] * pat
        removed += float(np.sum(coeff * coeff) * n3)
    return out, removed


def plain_cg_invert(a, f, tol):
    """Laplacian_a u = f by conjugate gradients on -Laplacian_a without a
    preconditioner, as lattice.invert_laplacian solved it before: the same
    start and stopping test, and at a = 0 the null patterns projected out
    of the right-hand side and the solution in real space.  The matvec is
    looked up on the lattice module at each call, so a test can count
    it."""
    b = -f.data
    a_is_zero = not np.any(a.data)
    if a_is_zero:
        patterns = zero_gauge_null_patterns(a.lattice.n)
        b, _ = project_null_modes(b, patterns)
    b_norm = float(np.sqrt(np.sum(b * b)))
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(np.sum(r * r))
    target = (tol * b_norm) ** 2
    for _ in range(10 * a.lattice.sites()):
        if rs <= target:
            break
        field = ScalarAlgebraField(a.lattice, a.basis, p)
        ap = -lattice.gauged_laplacian(a, field).data
        alpha = rs / float(np.sum(p * ap))
        x += alpha * p
        r -= alpha * ap
        rs_new = float(np.sum(r * r))
        p = r + (rs_new / rs) * p
        rs = rs_new
    else:
        raise AssertionError("plain CG did not converge")
    if a_is_zero:
        x, _ = project_null_modes(x, patterns)
    return ScalarAlgebraField(a.lattice, a.basis, x)


def plain_cg_transversal(a, e, tol):
    """lattice.transversal_project with the solve of plain_cg_invert."""
    u = plain_cg_invert(a, lattice.gauged_div(a, e), tol)
    return VectorAlgebraField(a.lattice, a.basis,
                              e.data - lattice.gauged_grad(a, u).data)


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
    # the states of degree below depth, a prefix of the basis, and their
    # raised states
    below = basis.states[basis.degrees < basis.depth]
    tgt = index_of(basis, below + np.eye(basis.D, dtype=np.int64)[mode])
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


def raise_tables(basis: FockBasis) -> np.ndarray:
    """Raise tables of an enumerated basis: entry [m, i] is the index of
    states[i] + e_m, for the states of degree below depth, a prefix of
    the basis."""
    below = basis.states[:np.searchsorted(basis.degrees, basis.depth - 1,
                                          side="right")]
    return np.stack([index_of(basis, below + e)
                     for e in np.eye(basis.D, dtype=np.int64)])


def _ladder_amplitudes(occ: np.ndarray, multi: tuple, raise_op: bool) -> np.ndarray:
    """Product of ladder factors over modes; occ is (S, len(multi)), one
    column per mode of multi."""
    amp = np.ones(occ.shape[0])
    for m, power in enumerate(multi):
        for r in range(power):
            amp *= occ[:, m] + (r + 1.0) if raise_op else occ[:, m] - float(r)
    return np.sqrt(amp)


def monomial_entries(basis, alpha, beta, convention, raised=None):
    """(rows, cols, amplitudes) of one monomial z*^alpha z^beta under a
    convention, as fock.quantize took them from the raise tables ``raised``
    (raise_tables(basis) if None) of an enumerated basis, one term at a time.

    Normal ordering annihilates first, so only its final state can leave
    the cutoff; anti-normal ordering creates first, so its intermediate
    state must stay inside; either way the final state has degree <= depth.
    The sources are the states holding at least ``lift`` quanta, lift = beta
    (normal) or max(beta - alpha, 0) (anti-normal), of degree <= bound:
    states[:end] + lift, with end covering degree bound - |lift|.  Their
    targets are states[:end] + tlift, tlift = alpha or max(alpha - beta, 0),
    so both index arrays come from the raise tables, in basis order.
    """
    if raised is None:
        raised = raise_tables(basis)
    # only the modes the monomial acts on
    modes = [m for m, pair in enumerate(zip(alpha, beta)) if any(pair)]
    a = np.array([alpha[m] for m in modes], dtype=np.int64)
    b = np.array([beta[m] for m in modes], dtype=np.int64)
    normal = convention == "normal"
    if normal:
        bound, lift, tlift = basis.N_max + b.sum() - a.sum(), b, a
    else:
        bound = basis.N_max - a.sum()
        lift, tlift = np.maximum(b - a, 0), np.maximum(a - b, 0)
    bound = min(bound, basis.depth - a.sum() + b.sum(), basis.depth)
    end = np.searchsorted(basis.degrees, bound - lift.sum(), side="right")
    if end == 0:
        return None
    src, tgt = np.arange(end), np.arange(end)
    for m, up, down in zip(modes, lift, tlift):
        for _ in range(up):
            src = raised[m, src]
        for _ in range(down):
            tgt = raised[m, tgt]
    occ = basis.states[:end, modes] + lift
    if normal:
        amp = _ladder_amplitudes(occ, b, raise_op=False)
        amp *= _ladder_amplitudes(occ - b, a, raise_op=True)
    else:
        amp = _ladder_amplitudes(occ, a, raise_op=True)
        amp *= _ladder_amplitudes(occ + a, b, raise_op=False)
    return tgt, src, amp


def _summed_entries(chunks):
    """Sum of the (keys, vals) entry lists, as (keys, vals) with each key
    once, ascending; a stable sort keeps each key's duplicates in list
    order, and reduceat sums them in an order fixed by that run alone."""
    keys, vals = (np.concatenate(part) for part in zip(*chunks))
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return keys[first], np.add.reduceat(vals, first)


def _merge(total, chunks):
    """total, a summed (keys, vals) pair, plus the entry lists chunks: each
    key's value is total's plus the sum of its chunk entries."""
    if not chunks:
        return total
    summed = _summed_entries(chunks)
    return summed if total[0].size == 0 else _summed_entries([total, summed])


def raise_table_quantize(s, convention, basis, entries=None,
                         chunk_entries=4_000_000) -> FockOperator:
    """fock.quantize as it was on an enumerated basis: term by term through
    ``entries`` (monomial_entries on the raise tables if None), the
    diagonal terms added into a dense vector in sorted term order, the
    other entries summed by a stable key sort and reduceat, chunk_entries
    entries at a time, each chunk's sums merged into the running total."""
    from ymspec.symbols import convert, validate_ordering

    validate_ordering(convention)
    if s.num_modes != basis.D:
        raise DimensionMismatchError(
            f"symbol has {s.num_modes} modes but basis has D={basis.D}"
        )
    if convention == "weyl":
        return raise_table_quantize(convert(s, "weyl", "normal"), "normal",
                                    basis, entries, chunk_entries)
    if entries is None:
        raised = raise_tables(basis)

        def entries(basis, alpha, beta, convention):
            return monomial_entries(basis, alpha, beta, convention, raised)

    size = basis.size
    diagonal = np.zeros(size, dtype=complex)
    total = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex))
    chunks, pending = [], 0
    for (alpha, beta), coeff in sorted(s.terms.items()):
        found = entries(basis, alpha, beta, convention)
        if found is None:
            continue
        rows, cols, amp = found
        if alpha == beta:
            diagonal[cols] += amp * coeff
            continue
        chunks.append((rows * size + cols, amp * coeff))
        pending += rows.size
        if pending >= chunk_entries:
            total, chunks, pending = _merge(total, chunks), [], 0
    keys, vals = _merge(total, chunks)
    on = np.flatnonzero(diagonal)
    at = np.searchsorted(keys, on * (size + 1))
    keys = np.insert(keys, at, on * (size + 1))
    vals = np.insert(vals, at, diagonal[on])
    stored = vals != 0
    keys, vals = keys[stored], vals[stored]
    indptr = np.searchsorted(keys, np.arange(size + 1) * size)
    return FockOperator(basis, Csr(indptr, keys % size, vals))


def full_width_monomial_entries(basis, alpha, beta, convention):
    """(rows, cols, vals) of one monomial, as monomial_entries first
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

    rows = index_of(basis, final)
    return rows, src, amp


def _keyed_monomial_entries(basis, alpha, beta, convention):
    """(rows, cols, vals) of one monomial z*^alpha z^beta under a convention,
    as monomial_entries computed them before the raise tables: a
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
    rows = index_of(basis, occ + (alpha_arr - beta_arr))
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
    and its target rows through index_of.  Returns the scipy
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
    raised = raise_tables(basis)
    for (alpha, beta), coeff in sorted(s.terms.items()):
        entries = monomial_entries(basis, alpha, beta, convention, raised)
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


def stars_and_bars_basis(D, N_max, depth=None, weights=None) -> FockBasis:
    """fock.build_basis as it enumerated before the mode-by-mode expansion:
    each degree shell from itertools.  The degree-n states are the gaps
    between D - 1 bars placed among n + D - 1 slots; bars in lexicographic
    order give the states in lexicographic order."""
    depth = N_max if depth is None else depth
    shells = []
    for n in range(depth + 1):
        count = math.comb(n + D - 1, D - 1)
        combos = itertools.combinations(range(n + D - 1), D - 1)
        bars = np.fromiter(itertools.chain.from_iterable(combos), np.int64,
                           count * (D - 1)).reshape(count, D - 1)
        shells.append(np.diff(bars, axis=1, prepend=-1, append=n + D - 1) - 1)
    states = np.concatenate(shells)
    return FockBasis(D, N_max, states, depth, weights)


def index_of(basis, states):
    """Basis indices of occupation rows assumed to lie in the basis, found
    by their keys in the basis's sorted key table."""
    keys = np.asarray(states).astype(np.uint64) @ basis._powers
    sorted_keys, order = basis._lookup_key
    return order[np.searchsorted(sorted_keys, keys)]


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


# ---------------------------------------------------------------------------
# symbol helpers only tests use: comparison, point evaluation and the
# symbol JSON format
# ---------------------------------------------------------------------------

def is_zero(s, tol: float = 0.0) -> bool:
    return all(abs(c) <= tol for c in s.terms.values())


def is_hermitian_symmetric(s, tol: float = 1e-12) -> bool:
    """coefficient(alpha, beta) == conj(coefficient(beta, alpha))."""
    return all(abs(c - np.conj(s.terms.get((b, a), 0j))) <= tol
               for (a, b), c in s.terms.items())


def evaluate(s, z) -> complex:
    """Evaluate a symbol on the diagonal z* = conj(z) at a point z in C^D."""
    z = np.asarray(z, dtype=complex)
    if z.shape != (s.num_modes,):
        raise DimensionMismatchError(
            f"expected point in C^{s.num_modes}, got shape {z.shape}"
        )
    return complex(evaluate_batch(s, z[None, :])[0])


def max_coefficient_diff(s, other) -> float:
    if s.num_modes != other.num_modes:
        raise DimensionMismatchError(
            f"mode counts differ: {s.num_modes} vs {other.num_modes}")
    keys = set(s.terms) | set(other.terms)
    return max((abs(s.terms.get(k, 0j) - other.terms.get(k, 0j)) for k in keys),
               default=0.0)


def allclose(s, other, tol: float = 1e-12) -> bool:
    return max_coefficient_diff(s, other) <= tol


def symbol_to_json(s) -> str:
    entries = [
        {"alpha": list(a), "beta": list(b),
         "re": float(np.real(c)), "im": float(np.imag(c))}
        for (a, b), c in sorted(s.terms.items())
    ]
    return json.dumps({"num_modes": s.num_modes, "terms": entries}, indent=1)


def symbol_from_json(text: str):
    from ymspec.symbols import PolynomialSymbol

    doc = json.loads(text)
    terms = {(tuple(e["alpha"]), tuple(e["beta"])): complex(e["re"], e["im"])
             for e in doc["terms"]}
    return PolynomialSymbol(doc["num_modes"], terms)


# ---------------------------------------------------------------------------
# Fock helpers only tests use: the states of one degree, and the safe block
# ---------------------------------------------------------------------------

def degree_indices(basis: FockBasis, n: int) -> np.ndarray:
    return np.flatnonzero(basis.degrees == n)


def safe_block_indices(basis: FockBasis, operator_degree: int) -> np.ndarray:
    """States whose matrix elements are unaffected by the cutoff for any
    operator built from symbols of the given degree."""
    return np.flatnonzero(basis.degrees <= basis.N_max - operator_degree)


# ---------------------------------------------------------------------------
# the real-mode spectrum path the Cartan weight sectors replaced: H
# quantized in the real modes z_m, each block split into the connected
# components of its sparsity graph, and C* solved on every component
# ---------------------------------------------------------------------------

def component_labels(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Connected component of each of n vertices, with an undirected edge
    between rows[k] and cols[k] for each k, numbered in the order of each
    component's smallest vertex.

    Every vertex starts with its own index as label.  Each round, a vertex
    takes the smallest label among itself and its neighbours, then the
    label of that label (pointer jumping).  A label is always a vertex of
    the same component, no larger than the vertex, so the labels stop
    changing exactly when each vertex holds its component's smallest one.
    """
    labels = np.arange(n)
    while True:
        new = labels.copy()
        np.minimum.at(new, rows, labels[cols])
        np.minimum.at(new, cols, labels[rows])
        new = new[new]
        if np.array_equal(new, labels):
            return np.unique(labels, return_inverse=True)[1]
        labels = new


def component_block_eigenvalues(matrix, lo: int, hi: int,
                                shift: np.ndarray | None = None) -> np.ndarray:
    """All eigenvalues, ascending, of sub = matrix[lo:hi, lo:hi] -
    diag(shift) of a Csr matrix, one dense eigvalsh per connected
    component of sub's stored nonzeros."""
    rows, cols, vals = matrix.rows(lo, hi)
    stored = vals != 0
    rows, cols, vals = rows[stored], cols[stored], vals[stored]
    if not vals.imag.any():
        vals = vals.real
    labels = component_labels(rows, cols, hi - lo)
    eigs = []
    for label in range(labels.max() + 1):
        members = np.flatnonzero(labels == label)
        pos = np.full(hi - lo, -1)
        pos[members] = np.arange(members.size)
        inside = pos[rows] >= 0
        d = np.zeros((members.size, members.size), dtype=vals.dtype)
        d[pos[rows[inside]], pos[cols[inside]]] = vals[inside]
        if shift is not None:
            d.flat[::members.size + 1] -= shift[members]
        eigs.append(np.linalg.eigvalsh(d))
    vals = np.concatenate(eigs)
    vals.sort()
    return vals


def safe_cartan_model(model):
    """(safe basis, energy symbol) as the spectrum path built them before
    it enumerated its row sets directly: the whole safe basis, degree <=
    N_max - 2, by stars and bars in the Cartan modes, carrying their
    weights, and the energy symbol in those modes."""
    from ymspec.algebra import build_algebra
    from ymspec.symbols import cartan_modes, energy_symbol

    algebra = build_algebra(model.algebra)
    mode_map = model.mode_map(algebra)
    modes = cartan_modes(algebra, mode_map)
    basis = stars_and_bars_basis(mode_map.num_modes, model.N_max,
                                 depth=model.N_max - 2, weights=modes.weights)
    return basis, energy_symbol(algebra, mode_map, model.include_magnetic,
                                modes)


def weight_orbits(weights: np.ndarray, maps) -> tuple[np.ndarray, np.ndarray]:
    """For each row of weights (one weight vector per state): whether it is
    the canonical member of its orbit under the group the integer maps
    generate, the largest in the order of the sector code (last column
    first), and the orbit's size; each orbit is found by a search that
    applies the maps until no new weight appears."""
    distinct, inverse = np.unique(weights, axis=0, return_inverse=True)
    canonical, sizes = [], []
    for w in map(tuple, distinct.tolist()):
        orbit, todo = {w}, [w]
        while todo:
            v = np.array(todo.pop())
            for m in maps:
                u = tuple((m @ v).tolist())
                if u not in orbit:
                    orbit.add(u)
                    todo.append(u)
        canonical.append(w == max(orbit, key=lambda u: u[::-1]))
        sizes.append(len(orbit))
    inverse = inverse.ravel()
    return np.array(canonical)[inverse], np.array(sizes)[inverse]


def subset_level_operator(sym, convention, basis, n_top, maps):
    """spectrum._level_operator on the rows of degree <= n_top whose weight
    is canonical in its orbit under the maps (weight_orbits), picked from
    the whole safe basis by FockBasis.subset, with their orbit sizes."""
    from ymspec.fock import quantize
    from ymspec.symbols import PolynomialSymbol

    conserving = PolynomialSymbol(sym.num_modes, {
        (alpha, beta): c for (alpha, beta), c in sym.terms.items()
        if sum(alpha) == sum(beta)})
    canonical, sizes = weight_orbits(basis.states @ basis.weights, maps)
    rows = canonical & (basis.degrees <= n_top)
    return quantize(conserving, convention, basis.subset(rows)), sizes[rows]


def mirror_levels(model) -> tuple[list, list]:
    """bosonic_spectrum's levels and multiplicities as they were solved
    before the orbit rule, with the mirror mu -> -mu alone: H's
    number-conserving terms on the rows of weight code >= 0 and degree <=
    n_top, each sector solved densely from scipy fancy indexing, and the
    eigenvalues of a sector of code > 0 counted twice."""
    from ymspec.fock import quantize
    from ymspec.spectrum import _cartan_model
    from ymspec.symbols import PolynomialSymbol

    sym, weights = _cartan_model(model)
    conserving = PolynomialSymbol(sym.num_modes, {
        (alpha, beta): c for (alpha, beta), c in sym.terms.items()
        if sum(alpha) == sum(beta)})
    rows = build_basis(sym.num_modes, model.N_max, depth=model.n_top,
                       weights=weights)
    h = quantize(conserving, model.convention, rows.subset(rows.sectors >= 0))
    ref = to_csr(h)
    if not ref.data.imag.any():
        ref = ref.real
    lams, mults = [], []
    for n in range(model.n_top + 1):
        idx = degree_indices(h.basis, n)
        codes = h.basis.sectors[idx]
        vals = []
        for c in np.unique(codes):
            members = idx[codes == c]
            eig = np.linalg.eigvalsh(ref[np.ix_(members, members)].toarray())
            vals += eig.tolist() * (2 if c > 0 else 1)
        lams.append(min(vals))
        mults.append(sum(v <= lams[-1] + model.level_tol for v in vals))
    return lams, mults


def subset_zero_weight_operator(sym, convention, basis) -> FockOperator:
    """spectrum._zero_weight_operator on the zero-weight rows picked from
    the whole safe basis by FockBasis.subset."""
    from ymspec.fock import quantize

    return quantize(sym, convention, basis.subset(basis.sectors == 0))


def unsplit_number_shift_bound(h: FockOperator, margin_degree: int = 2) -> float:
    """spectrum.number_shift_bound before N parity joined its sector key:
    the zero-weight rows of the safe block solved as one dense matrix."""
    basis = h.basis
    hi = int(np.count_nonzero(basis.degrees <= basis.N_max - margin_degree))
    idx = np.flatnonzero(basis.sectors[:hi] == 0)
    pos = np.full(hi, -1)
    pos[idx] = np.arange(idx.size)
    rows, cols, vals = h.matrix.rows(0, hi)
    inside = (pos[rows] >= 0) & (pos[cols] >= 0)
    if not vals.imag.any():
        vals = vals.real
    block = np.zeros((idx.size, idx.size), dtype=vals.dtype)
    block[pos[rows[inside]], pos[cols[inside]]] = vals[inside]
    block[np.arange(idx.size), np.arange(idx.size)] -= basis.degrees[idx]
    return float(np.linalg.eigvalsh(block)[0])


def zero_weight_counts(weights: np.ndarray, K: int) -> np.ndarray:
    """counts[k]: the occupation states of weight 0 and degree k <= K, by
    dynamic programming over the modes on (degree, weight) counts."""
    weights = np.asarray(weights, dtype=np.int64)
    reach = K * int(np.abs(weights).max(initial=0))
    shape = (K + 1,) + (2 * reach + 1,) * weights.shape[1]
    counts = np.zeros(shape, dtype=np.int64)
    counts[(0,) + (reach,) * weights.shape[1]] = 1
    for w in weights:
        # one more quantum of this mode: degree + 1, weight + w
        for k in range(1, K + 1):
            src = [slice(k - 1, k)] + [
                slice(max(0, -x), shape[i + 1] - max(0, x))
                for i, x in enumerate(w)]
            dst = [slice(k, k + 1)] + [
                slice(max(0, x), shape[i + 1] - max(0, -x))
                for i, x in enumerate(w)]
            counts[tuple(dst)] += counts[tuple(src)]
    return counts[(slice(None),) + (reach,) * weights.shape[1]]


def safe_hamiltonian(model, N_max: int | None = None) -> FockOperator:
    """The whole H in the model's Cartan modes on the whole weighted safe
    basis, degree <= N_max - 2, quantized term by term on the raise tables:
    the operator the spectrum path solved before it quantized only the
    rows it reads."""
    if N_max is not None:
        model = replace(model, N_max=N_max)
    basis, sym = safe_cartan_model(model)
    return raise_table_quantize(sym, model.convention, basis)


def convergence_per_cutoff(model, N_max_list):
    """spectrum.convergence_study as it was before it solved the levels
    once: the safe basis and the level operator rebuilt at every cutoff in
    N_max_list and its levels solved there, so each column, and each
    relative change between consecutive cutoffs, shows what the cutoff
    moved."""
    from ymspec.spectrum import (
        ConvergenceStudy,
        _block_eigenvalues,
        _degree_rows,
        _weight_maps,
    )

    levels = list(N_max_list)
    ns = list(range(model.n_top + 1))
    lambdas = {}
    for N in levels:
        cutoff = replace(model, N_max=N)
        basis, sym = safe_cartan_model(cutoff)
        maps = _weight_maps(cutoff, basis.weights.shape[1])
        h, _ = subset_level_operator(sym, model.convention, basis,
                                     model.n_top, maps)
        lambdas[N] = [float(_block_eigenvalues(
            h.matrix, *_degree_rows(h.basis, n), h.basis.sectors)[0])
                      for n in ns]
    return ConvergenceStudy(
        N_max_list=levels, ns=ns, lambdas=lambdas,
        rel_changes={(a, b): [abs(l2 - l1) / max(abs(l1), 1e-12)
                              for l1, l2 in zip(lambdas[a], lambdas[b])]
                     for a, b in zip(levels, levels[1:])})


def sector_eigenvalues(h: FockOperator, n: int) -> dict:
    """Eigenvalues, ascending, of each weight sector of h's degree-n block,
    keyed by sector code, each solved densely on its own."""
    idx = degree_indices(h.basis, n)
    rows, cols, vals = h.matrix.rows(idx[0], idx[-1] + 1)
    block = np.zeros((idx.size, idx.size), dtype=vals.dtype)
    block[rows, cols] = vals
    codes = h.basis.sectors[idx]
    return {int(c): np.linalg.eigvalsh(block[np.ix_(codes == c, codes == c)])
            for c in np.unique(codes)}


def real_mode_hamiltonian(model, N_max: int | None = None) -> FockOperator:
    """H as the spectrum path first quantized it: the energy symbol in the
    real modes on the safe basis, which carries no weights."""
    from ymspec.algebra import build_algebra
    from ymspec.fock import quantize
    from ymspec.symbols import energy_symbol

    N_max = model.N_max if N_max is None else N_max
    algebra = build_algebra(model.algebra)
    mode_map = model.mode_map(algebra)
    basis = build_basis(mode_map.num_modes, N_max, depth=N_max - 2)
    return quantize(energy_symbol(algebra, mode_map, model.include_magnetic),
                    model.convention, basis)


# ---------------------------------------------------------------------------
# the Cartan-mode energy symbol by substitution, and the quantized rotation
# generators that commute with H
# ---------------------------------------------------------------------------

def mode_matrix(modes, mode_map) -> np.ndarray:
    """U with z = U w: entry (m, k) = spatial[j, s] * colour[p, g] for the
    labels m = (j, p), k = (s, g) of the mode map."""
    return np.array([[modes.spatial[j, s] * modes.colour[p, g]
                      for s, g in mode_map.labels] for j, p in mode_map.labels])


def substituted_symbol(s, u: np.ndarray, tol: float = 1e-12):
    """The real-mode symbol s with z = u w and z* = conj(u) w* substituted
    term by term in the symbol ring; coefficients below tol times the
    largest are dropped."""
    from ymspec.symbols import PolynomialSymbol

    D = s.num_modes
    z = [sum((PolynomialSymbol.z(D, k) * u[m, k] for k in range(D)
              if u[m, k] != 0), PolynomialSymbol.zero(D)) for m in range(D)]
    zs = [f.conjugate() for f in z]
    out = PolynomialSymbol.zero(D)
    for (alpha, beta), coeff in s.terms.items():
        term = PolynomialSymbol.constant(D, coeff)
        for m in range(D):
            for _ in range(alpha[m]):
                term = term * zs[m]
            for _ in range(beta[m]):
                term = term * z[m]
        out = out + term
    scale = max(abs(c) for c in out.terms.values())
    return PolynomialSymbol(D, {k: c for k, c in out.terms.items()
                                if abs(c) > tol * scale})


def rotation_generators(basis, mode_map, colour: bool = True) -> list:
    """Real antisymmetric D x D generators of the model's rotations on the
    real modes (j, p): ad(b_a) on p for every algebra element (if colour),
    and L_x, L_y, L_z on j; each returned with its name."""
    index = {label: m for m, label in enumerate(mode_map.labels)}
    D = len(index)
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k], eps[i, k, j] = 1.0, -1.0
    gens = []
    if colour:
        for a in range(basis.dim_g):
            ad = basis.structure_constants[:, a, :]
            g = np.zeros((D, D))
            for (j, p), m in index.items():
                for (k, q), mp in index.items():
                    if j == k:
                        g[m, mp] = ad[p, q]
            gens.append((f"ad(b_{a})", g))
    for i, name in enumerate("xyz"):
        g = np.zeros((D, D))
        for (j, p), m in index.items():
            for (k, q), mp in index.items():
                if p == q:
                    g[m, mp] = -eps[i, j, k]
        gens.append((f"L_{name}", g))
    return gens


def generator_symbol(a: np.ndarray):
    """The normal symbol sum_mm' a[m, m'] z*_m z_m'."""
    from ymspec.symbols import PolynomialSymbol

    D = a.shape[0]
    unit = np.eye(D, dtype=int)
    return PolynomialSymbol(D, {(tuple(unit[m]), tuple(unit[mp])): a[m, mp]
                                for m in range(D) for mp in range(D)
                                if a[m, mp] != 0})


# ---------------------------------------------------------------------------
# the real-mode maps behind the level orbits: R, the spatial rotation by pi
# about x, and su2's colour-spatial swap S, each a signed permutation P of
# the real modes (z -> P z), and the integer action on the Cartan weights
# derived from how P conjugates the Cartan generators
# ---------------------------------------------------------------------------

def rotation_by_pi_about_x(mode_map) -> np.ndarray:
    """R = diag(1, -1, -1) on the spatial index j of every mode (j, p)."""
    signs = (1.0, -1.0, -1.0)
    return np.diag([signs[j] for j, _ in mode_map.labels])


def colour_spatial_swap(mode_map) -> np.ndarray:
    """S for a 3-dimensional algebra with every mode retained: mode (j, p)
    takes the value of mode (f^-1(p), f(j)), f(j) = j + 1 mod 3, which
    carries the spatial plane of L_z, (0, 1), onto the colour plane of
    ad(b_0), (1, 2)."""
    index = {label: m for m, label in enumerate(mode_map.labels)}
    p = np.zeros((len(index), len(index)))
    for (j, c), m in index.items():
        p[m, index[(c - 1) % 3, (j + 1) % 3]] = 1.0
    return p


def cartan_generators(basis, mode_map) -> list:
    """The real-mode generators of symbols.cartan_modes' weight columns, in
    order: ad(b_i) for the basis elements it picks greedily (when every
    direction is retained), then L_z; each scaled so that the smallest
    nonzero |eigenvalue| of i G is 1, the unit of the weights."""
    gens = dict(rotation_generators(basis, mode_map))
    colour = len({p for _, p in mode_map.labels}) == basis.dim_g
    c, picks = basis.structure_constants, []
    for i in range(basis.dim_g if colour else 0):
        if not np.abs(c[:, i, picks]).max(initial=0.0) > 1e-12:
            picks.append(i)
    out = []
    for name in [f"ad(b_{i})" for i in picks] + ["L_z"]:
        vals = np.abs(np.linalg.eigvalsh(1j * gens[name]))
        out.append(gens[name] / vals[vals > 1e-9].min())
    return out


def weight_action(p: np.ndarray, gens: list) -> np.ndarray:
    """The integer matrix A with P^T G_i P = sum_j A_ij G_j: a mode of
    weight lambda (i G_i u = lambda_i u) is carried by P to one of weight
    A lambda.  A NumericalError unless every conjugate lies in the span of
    the generators with integer coefficients."""
    span = np.array([g.ravel() for g in gens]).T
    conj = np.array([(p.T @ g @ p).ravel() for g in gens]).T
    coeffs = np.linalg.lstsq(span, conj, rcond=None)[0].T
    a = np.rint(coeffs)
    if (np.abs(span @ a.T - conj).max() > 1e-12
            or np.abs(coeffs - a).max() > 1e-12):
        raise NumericalError("the map does not permute the Cartan generators")
    return a.astype(np.int64)


def monomial_substituted_symbol(s, p: np.ndarray):
    """substituted_symbol for a monomial p (one nonzero, a unit phase, per
    row and column): z_m = p[m, k] w_k moves each power of mode m onto mode
    k, times p[m, k] per z and its conjugate per z*; exact, since every
    factor is a unit phase."""
    from ymspec.symbols import PolynomialSymbol

    target = np.argmax(np.abs(p) > 0, axis=1)
    phase = p[np.arange(len(p)), target]
    out = {}
    for (alpha, beta), coeff in s.terms.items():
        a, b = np.zeros(len(p), dtype=int), np.zeros(len(p), dtype=int)
        a[target], b[target] = alpha, beta
        value = coeff * np.prod(np.conj(phase) ** np.array(alpha)
                                * phase ** np.array(beta))
        key = (tuple(a.tolist()), tuple(b.tolist()))
        out[key] = out.get(key, 0) + value
    return PolynomialSymbol(len(p), out)
