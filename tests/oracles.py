"""Independent reference computations used by the test suite.

Each oracle deliberately avoids the code path it checks: brackets via
dense matrix commutators, the lattice kernels and the RK4 step via the
dense einsum bracket and np.roll differences they replaced, the
curvature pairs via the nine-block antisymmetric layout, the Helmholtz
projector via FFT symbols, the Gaussian smoothing via finite-difference
stencils on point evaluations, quantization via explicit ladder-matrix
products and via the full-width feasibility mask it replaced, the Fock
basis via recursive enumeration and its state index via a dictionary of
occupation rows, the lowest block levels and their multiplicities via
the full dense spectrum, and wave evolution via the dispersion relation
of the spatially discrete system.
"""

import numpy as np
import scipy.linalg as la
import scipy.sparse as sparse


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
# quantization via explicit ladder-matrix products or the full-width
# feasibility mask; the Fock basis by recursive enumeration, its index by
# a dictionary
# ---------------------------------------------------------------------------

def ladder_quantize(symbol, convention, basis):
    """Quantize by multiplying explicit sparse ladder matrices."""
    from ymspec.fock import ladder

    size = basis.size
    creators = [ladder(basis, m, "create").matrix for m in range(basis.D)]
    annihilators = [ladder(basis, m, "annihilate").matrix for m in range(basis.D)]
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
    from ymspec.fock import _ladder_amplitudes

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
# lowest level of a Hermitian compression from its whole dense spectrum
# ---------------------------------------------------------------------------

def dense_lowest_level(matrix, idx, tol):
    """(lam, multiplicity) of the compression matrix[idx, idx]: the lowest
    of all its eigenvalues by dense eigh, and how many lie <= lam + tol.
    A compression with no imaginary part is solved as a real matrix."""
    sub = matrix[np.ix_(idx, idx)].toarray()
    if not sub.imag.any():
        sub = sub.real
    vals = la.eigh(sub, eigvals_only=True)
    return float(vals[0]), int(np.sum(vals <= vals[0] + tol))


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
