"""Gauged vector calculus on a periodic cubic lattice.

Fields take Lie-algebra values at every site of an n^3 torus.  Spatial
derivatives are central differences with periodic wrap, which makes
-grad_a and div_a exactly adjoint in the volume-weighted inner product;
the constraint projector grad_a (Laplacian_a)^-1 div_a inherits exact
symmetry up to the conjugate-gradient tolerance.

On an even lattice the composed central-difference Laplacian at a = 0
annihilates the constant field and the seven checkerboard sign patterns
(the modes where the difference symbol sin(2 pi m / n) vanishes).  Solves
at a = 0 project these null modes explicitly; for a != 0 the kernel is
generically empty and slow CG convergence is surfaced as a solver error
rather than hidden.

Array layout: scalar fields (dim_g, n, n, n), vector fields
(3, dim_g, n, n, n).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .algebra import LieAlgebraBasis, build_algebra
from .errors import (
    ConfigurationError,
    ConsistencyError,
    DimensionMismatchError,
    SolverError,
)


@dataclass(frozen=True)
class LatticeSpec:
    """Periodic cubic lattice with n sites per dimension."""

    n: int
    spacing: float

    def __post_init__(self):
        if self.n < 2:
            raise ConfigurationError(f"lattice needs n >= 2 sites, got {self.n}")
        if self.spacing <= 0:
            raise ConfigurationError(f"lattice spacing must be > 0, got {self.spacing}")

    @property
    def volume_factor(self) -> float:
        return self.spacing ** 3

    def sites(self) -> int:
        return self.n ** 3


@dataclass
class ScalarAlgebraField:
    lattice: LatticeSpec
    basis: LieAlgebraBasis
    data: np.ndarray  # (dim_g, n, n, n)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        n = self.lattice.n
        if self.data.shape != (self.basis.dim_g, n, n, n):
            raise DimensionMismatchError(
                f"scalar field shape {self.data.shape} does not match "
                f"(dim_g, n, n, n) = ({self.basis.dim_g}, {n}, {n}, {n})"
            )

    @classmethod
    def zeros(cls, lattice, basis) -> "ScalarAlgebraField":
        n = lattice.n
        return cls(lattice, basis, np.zeros((basis.dim_g, n, n, n)))


@dataclass
class VectorAlgebraField:
    lattice: LatticeSpec
    basis: LieAlgebraBasis
    data: np.ndarray  # (3, dim_g, n, n, n)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        n = self.lattice.n
        if self.data.shape != (3, self.basis.dim_g, n, n, n):
            raise DimensionMismatchError(
                f"vector field shape {self.data.shape} does not match "
                f"(3, dim_g, n, n, n) = (3, {self.basis.dim_g}, {n}, {n}, {n})"
            )

    @classmethod
    def zeros(cls, lattice, basis) -> "VectorAlgebraField":
        n = lattice.n
        return cls(lattice, basis, np.zeros((3, basis.dim_g, n, n, n)))


def _same_geometry(x, y):
    if x.lattice != y.lattice or not x.basis.same_as(y.basis):
        raise DimensionMismatchError(
            "fields live on different lattices or algebra bases"
        )


# ---------------------------------------------------------------------------
# norms and stencils
# ---------------------------------------------------------------------------

def field_norm(x) -> float:
    return float(np.sqrt(x.lattice.volume_factor * np.sum(x.data * x.data)))


def _diff(arr: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    """Central difference along axis with periodic wrap.

    On the flattened array, one subtraction of the entries one axis
    stride before and after each entry gives every interior row; the two
    end rows, whose neighbours wrap around, are then overwritten.
    """
    arr = np.ascontiguousarray(arr)
    out = np.empty_like(arr)
    step = arr.strides[axis] // arr.itemsize
    flat, flat_out = arr.reshape(-1), out.reshape(-1)
    np.subtract(flat[2 * step:], flat[:-2 * step], out=flat_out[step:-step])
    lead = (slice(None),) * (axis % arr.ndim)
    np.subtract(arr[lead + (1,)], arr[lead + (-1,)], out=out[lead + (0,)])
    np.subtract(arr[lead + (0,)], arr[lead + (-2,)], out=out[lead + (-1,)])
    out *= 0.5 / spacing
    return out


def _bracket(basis: LieAlgebraBasis, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] for coefficient arrays with the algebra index leading:
    out_k is the sum of c (x_i y_j - x_j y_i) over basis.bracket_terms[k]."""
    out = np.empty(np.broadcast_shapes(x.shape, y.shape))
    prod, cross = np.empty(out.shape[1:]), np.empty(out.shape[1:])
    for row, terms in zip(out, basis.bracket_terms):
        if not terms:
            row.fill(0.0)
        for n, (i, j, c) in enumerate(terms):
            np.multiply(x[i], y[j], out=prod)
            np.multiply(x[j], y[i], out=cross)
            prod -= cross
            if n == 0:
                np.multiply(prod, c, out=row)
            else:
                prod *= c
                row += prod
    return out


# ---------------------------------------------------------------------------
# gauged calculus
# ---------------------------------------------------------------------------

def gauged_grad(a: VectorAlgebraField, u: ScalarAlgebraField) -> VectorAlgebraField:
    """Component k: D_k u - [a_k, u]."""
    _same_geometry(a, u)
    h = a.lattice.spacing
    out = np.empty_like(a.data)
    for k in range(3):
        np.subtract(_diff(u.data, 1 + k, h), _bracket(a.basis, a.data[k], u.data),
                    out=out[k])
    return VectorAlgebraField(a.lattice, a.basis, out)


def gauged_div(a: VectorAlgebraField, e: VectorAlgebraField) -> ScalarAlgebraField:
    """sum_k (D_k e_k - [a_k, e_k]); minus its gradient adjoint."""
    _same_geometry(a, e)
    h = a.lattice.spacing
    out = np.zeros_like(e.data[0])
    for k in range(3):
        out += _diff(e.data[k], 1 + k, h)
        out -= _bracket(a.basis, a.data[k], e.data[k])
    return ScalarAlgebraField(a.lattice, a.basis, out)


def gauged_laplacian(a: VectorAlgebraField, u: ScalarAlgebraField) -> ScalarAlgebraField:
    """div_a grad_a u; negative semidefinite in the lattice inner product."""
    return gauged_div(a, gauged_grad(a, u))


# ---------------------------------------------------------------------------
# null modes of the a = 0 Laplacian
# ---------------------------------------------------------------------------

def _zero_gauge_null_patterns(n: int) -> np.ndarray:
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


def _project_null_modes(data: np.ndarray, patterns: np.ndarray):
    """Remove null-pattern content; returns (projected, removed_norm2)."""
    n3 = patterns[0].size
    out = data.copy()
    removed = 0.0
    for pat in patterns:
        coeff = np.tensordot(out, pat, axes=([-3, -2, -1], [0, 1, 2])) / n3
        out -= coeff[..., None, None, None] * pat
        removed += float(np.sum(coeff * coeff) * n3)
    return out, removed


# ---------------------------------------------------------------------------
# Laplacian inversion and constraint projection
# ---------------------------------------------------------------------------

DEFAULT_CG_TOL = 1e-10


def invert_laplacian(
    a: VectorAlgebraField,
    f: ScalarAlgebraField,
    tol: float = DEFAULT_CG_TOL,
) -> ScalarAlgebraField:
    """Solve Laplacian_a u = f by conjugate gradients on -Laplacian_a.

    The right-hand side must be orthogonal to the discrete kernel: at
    a = 0 the null patterns are removed explicitly and a significant
    component raises a consistency error; for a != 0 a near-kernel
    component shows up as non-convergence and raises a solver error.
    """
    _same_geometry(a, f)
    if tol <= 0:
        raise ConfigurationError("CG tolerance must be positive")
    lattice = a.lattice
    a_is_zero = not np.any(a.data)

    b = -f.data
    if a_is_zero:
        patterns = _zero_gauge_null_patterns(lattice.n)
        b, removed2 = _project_null_modes(b, patterns)
        f_norm2 = float(np.sum(f.data * f.data))
        if f_norm2 > 0 and removed2 > max(1e-8, 10 * tol) ** 2 * f_norm2:
            raise ConsistencyError(
                "right-hand side has a null-mode component of relative size "
                f"{np.sqrt(removed2 / f_norm2):.3e}; the a = 0 Laplacian cannot "
                "invert it"
            )

    b_norm = float(np.sqrt(np.sum(b * b)))
    if b_norm == 0.0:
        return ScalarAlgebraField.zeros(lattice, a.basis)

    cap = 10 * lattice.sites()

    def matvec(v: np.ndarray) -> np.ndarray:
        field = ScalarAlgebraField(lattice, a.basis, v)
        return -gauged_laplacian(a, field).data

    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(np.sum(r * r))
    target = (tol * b_norm) ** 2
    for _ in range(cap):
        if rs <= target:
            break
        ap = matvec(p)
        denom = float(np.sum(p * ap))
        if denom <= 0.0:
            raise SolverError(
                "CG encountered a non-positive curvature direction; the "
                "gauged Laplacian appears singular for this background",
                residual=float(np.sqrt(rs)) / b_norm,
            )
        alpha = rs / denom
        x += alpha * p
        r -= alpha * ap
        rs_new = float(np.sum(r * r))
        p = r + (rs_new / rs) * p
        rs = rs_new
    else:
        raise SolverError(
            f"CG did not reach relative residual {tol:.1e} within {cap} "
            "iterations (possible near-kernel background)",
            residual=float(np.sqrt(rs)) / b_norm,
            iterations=cap,
        )

    if a_is_zero:
        x, _ = _project_null_modes(x, patterns)
    return ScalarAlgebraField(lattice, a.basis, x)


def longitudinal_project(
    a: VectorAlgebraField, e: VectorAlgebraField, tol: float = DEFAULT_CG_TOL
) -> VectorAlgebraField:
    """Orthogonal projector onto gauged-gradient fields:
    grad_a (Laplacian_a)^-1 div_a applied to e."""
    div = gauged_div(a, e)
    u = invert_laplacian(a, div, tol)
    return gauged_grad(a, u)


def transversal_project(
    a: VectorAlgebraField, e: VectorAlgebraField, tol: float = DEFAULT_CG_TOL
) -> VectorAlgebraField:
    """Complement of the projector; output is gauged-divergence free."""
    lon = longitudinal_project(a, e, tol)
    return VectorAlgebraField(a.lattice, a.basis, e.data - lon.data)


def constraint_residual(a: VectorAlgebraField, e: VectorAlgebraField) -> float:
    """L2 norm of the Gauss-law violation div_a e."""
    return field_norm(gauged_div(a, e))


# ---------------------------------------------------------------------------
# band-limited random fields
# ---------------------------------------------------------------------------

def _band_limited(rng, shape_head: tuple, n: int, max_mode: int) -> np.ndarray:
    noise = rng.normal(size=shape_head + (n, n, n))
    fhat = np.fft.fftn(noise, axes=(-3, -2, -1))
    freq = np.rint(np.fft.fftfreq(n) * n).astype(int)
    keep = np.abs(freq) <= max_mode
    mask = keep[:, None, None] & keep[None, :, None] & keep[None, None, :]
    fhat *= mask
    # a contiguous copy: the real part of the complex transform is a view
    # of stride 16 bytes, which every later kernel would read strided
    return np.fft.ifftn(fhat, axes=(-3, -2, -1)).real.copy()


def random_vector_field(
    rng, lattice: LatticeSpec, basis: LieAlgebraBasis,
    amplitude: float = 1.0, max_mode: int = 2,
) -> VectorAlgebraField:
    data = _band_limited(rng, (3, basis.dim_g), lattice.n, max_mode)
    rms = np.sqrt(np.mean(data * data))
    if rms > 0:
        data *= amplitude / rms
    return VectorAlgebraField(lattice, basis, data)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_FIELD_KINDS = {"scalar": ScalarAlgebraField, "vector": VectorAlgebraField}


def save_field(path, field) -> None:
    """Write a field as a JSON header line plus little-endian float64 payload.

    Payload order is site-major, then spatial component (vector fields),
    then algebra index: axes (x, y, z[, component], algebra).
    """
    kind = "vector" if isinstance(field, VectorAlgebraField) else "scalar"
    header = {
        "n": field.lattice.n,
        "spacing": field.lattice.spacing,
        "algebra": field.basis.name,
        "field_kind": kind,
    }
    if kind == "vector":
        payload = np.ascontiguousarray(field.data.transpose(2, 3, 4, 0, 1))
    else:
        payload = np.ascontiguousarray(field.data.transpose(1, 2, 3, 0))
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        fh.write(payload.astype("<f8").tobytes())


def load_field(path):
    """Inverse of save_field."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        raw = np.frombuffer(fh.read(), dtype="<f8")
    n = header["n"]
    lattice = LatticeSpec(n=n, spacing=header["spacing"])
    basis = build_algebra(header["algebra"])
    kind = header["field_kind"]
    if kind == "vector":
        data = raw.reshape(n, n, n, 3, basis.dim_g).transpose(3, 4, 0, 1, 2)
    elif kind == "scalar":
        data = raw.reshape(n, n, n, basis.dim_g).transpose(3, 0, 1, 2)
    else:
        raise ConfigurationError(f"unknown field_kind '{kind}'")
    return _FIELD_KINDS[kind](lattice, basis, data.copy())
