"""Gauged vector calculus on a periodic cubic lattice.

Fields take Lie-algebra values at every site of an n^3 torus.  Spatial
derivatives are central differences with periodic wrap, which makes
-grad_a and div_a exactly adjoint in the volume-weighted inner product;
the constraint projector grad_a (Laplacian_a)^-1 div_a inherits exact
symmetry up to the conjugate-gradient tolerance.

The composed central-difference Laplacian at a = 0 annihilates the
Fourier modes where its symbol sum_i sin^2(2 pi m_i / n) vanishes: the
constant field, and on an even lattice the seven checkerboard sign
patterns too.  CG is preconditioned by the inverse of the shifted a = 0
Laplacian, applied by real FFT, while the background is weak against the
lowest flat eigenvalue, and is plain CG otherwise (see
_flat_preconditioner).  At a = 0 that inverse is the pseudo-inverse,
zero on the null modes, so the solve is one application of it; a
right-hand side with a significant null-mode part is refused.  For
a != 0 the kernel is generically empty and slow CG convergence is
surfaced as a solver error rather than hidden.

The kernels work in place: _diff writes a raw central difference into a
caller's C-contiguous array, and _bracket adds +-[x, y] into one.
gauged_grad and gauged_div sum the raw differences, scale them once by
0.5 / spacing and then subtract the brackets, so a strided input field
is read, never written; outputs and scratch are fresh contiguous arrays
unless the caller gives its own.

Array layout: scalar fields (dim_g, n, n, n), vector fields
(3, dim_g, n, n, n).
"""

from __future__ import annotations

import json
import math
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
    """Periodic cubic lattice with n sites per dimension: a config's
    ``lattice`` section and its defaults, checked by key path when built."""

    n: int = 8
    spacing: float = 1.0

    def __post_init__(self):
        if self.n < 2:
            raise ConfigurationError(f"'lattice.n' must be at least 2 sites, got {self.n}")
        if self.spacing <= 0:
            raise ConfigurationError(f"'lattice.spacing' must be positive, got {self.spacing}")

    @property
    def volume_factor(self) -> float:
        return self.spacing ** 3

    def sites(self) -> int:
        return self.n ** 3


@dataclass
class _AlgebraField:
    """Lie-algebra coefficients at every site: data has the subclass's
    leading axes, lead, then (dim_g, n, n, n)."""

    lattice: LatticeSpec
    basis: LieAlgebraBasis
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        shape = self.shape(self.lattice, self.basis)
        if self.data.shape != shape:
            raise DimensionMismatchError(
                f"{type(self).__name__} shape {self.data.shape} does not match "
                f"{shape}, leading axes + (dim_g, n, n, n)"
            )

    @classmethod
    def shape(cls, lattice, basis) -> tuple:
        n = lattice.n
        return (*cls.lead, basis.dim_g, n, n, n)

    @classmethod
    def zeros(cls, lattice, basis):
        return cls(lattice, basis, np.zeros(cls.shape(lattice, basis)))


class ScalarAlgebraField(_AlgebraField):
    lead = ()


class VectorAlgebraField(_AlgebraField):
    lead = (3,)  # the spatial component


def _same_geometry(x, y):
    if x.lattice != y.lattice or not x.basis.same_as(y.basis):
        raise DimensionMismatchError(
            "fields live on different lattices or algebra bases"
        )


# ---------------------------------------------------------------------------
# norms and stencils
# ---------------------------------------------------------------------------

def field_norm(x, scratch=None) -> float:
    """Lattice L2 norm; the squares go into ``scratch`` when given."""
    sq = np.multiply(x.data, x.data, out=scratch)
    return float(np.sqrt(x.lattice.volume_factor * np.sum(sq)))


def _diff(arr: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """Raw central difference arr[i + 1] - arr[i - 1] along axis with
    periodic wrap, written into ``out`` and returned; a caller combining
    several differences scales their sum once by 0.5 / spacing.

    On the flattened array, one subtraction of the entries one axis
    stride before and after each entry gives every interior row; the two
    end rows, whose neighbours wrap around, are then overwritten.  That
    needs ``out`` C-contiguous: reshaping a strided array copies it, and
    the copy, not ``out``, would be filled.
    """
    if not out.flags.c_contiguous:
        raise ValueError("_diff needs a C-contiguous out array")
    arr = np.ascontiguousarray(arr)
    step = arr.strides[axis] // arr.itemsize
    flat, flat_out = arr.reshape(-1), out.reshape(-1)
    np.subtract(flat[2 * step:], flat[:-2 * step], out=flat_out[step:-step])
    lead = (slice(None),) * (axis % arr.ndim)
    np.subtract(arr[lead + (1,)], arr[lead + (-1,)], out=out[lead + (0,)])
    np.subtract(arr[lead + (0,)], arr[lead + (-2,)], out=out[lead + (-1,)])
    return out


def _bracket(basis: LieAlgebraBasis, x: np.ndarray, y: np.ndarray,
             out: np.ndarray, sign: float) -> np.ndarray:
    """Add sign * [x, y] into ``out`` and return it, for coefficient
    arrays of one shape with the algebra index leading: row k gains
    sign * c (x_i y_j - x_j y_i) for each (i, j, c) in
    basis.bracket_terms[k]."""
    prod, cross = np.empty(x.shape[1:]), np.empty(x.shape[1:])
    for row, terms in zip(out, basis.bracket_terms):
        for i, j, c in terms:
            np.multiply(x[i], y[j], out=prod)
            np.multiply(x[j], y[i], out=cross)
            prod -= cross
            prod *= sign * c
            row += prod
    return out


# ---------------------------------------------------------------------------
# gauged calculus
# ---------------------------------------------------------------------------

def gauged_grad(a: VectorAlgebraField, u: ScalarAlgebraField) -> VectorAlgebraField:
    """Component k: D_k u - [a_k, u]."""
    _same_geometry(a, u)
    out = np.empty(a.data.shape)
    for k in range(3):
        _diff(u.data, 1 + k, out[k])
    out *= 0.5 / a.lattice.spacing
    for k in range(3):
        _bracket(a.basis, a.data[k], u.data, out[k], -1.0)
    return VectorAlgebraField(a.lattice, a.basis, out)


def gauged_div(a: VectorAlgebraField, e: VectorAlgebraField, out=None,
               scratch=None) -> ScalarAlgebraField:
    """sum_k (D_k e_k - [a_k, e_k]); minus its gradient adjoint.  ``out``
    and ``scratch`` (the differences) are C-contiguous, shaped like e_k."""
    _same_geometry(a, e)
    out = np.empty(e.data.shape[1:]) if out is None else out
    diff = np.empty(e.data.shape[1:]) if scratch is None else scratch
    _diff(e.data[0], 1, out)
    for k in (1, 2):
        out += _diff(e.data[k], 1 + k, diff)
    out *= 0.5 / a.lattice.spacing
    for k in range(3):
        _bracket(a.basis, a.data[k], e.data[k], out, -1.0)
    return ScalarAlgebraField(a.lattice, a.basis, out)


def gauged_laplacian(a: VectorAlgebraField, u: ScalarAlgebraField) -> ScalarAlgebraField:
    """div_a grad_a u; negative semidefinite in the lattice inner product."""
    return gauged_div(a, gauged_grad(a, u))


# ---------------------------------------------------------------------------
# Laplacian inversion and constraint projection
# ---------------------------------------------------------------------------

DEFAULT_CG_TOL = 1e-10


def _flat_preconditioner(a: VectorAlgebraField):
    """(-Laplacian_0 + sigma)^-1 by real FFT, or None for the identity.

    Laplacian_0 is the a = 0 central-difference Laplacian, with symbol
    -sum_i sin^2(2 pi m_i / n) / h^2, and sigma the mean of the gauged
    Laplacian's zero-order term -sum_k ad(a_k)^2 over sites and algebra
    directions: sigma = kappa sum |a|^2 / (dim_g n^3), where the structure
    constants' Gram matrix sum_{k,j} c_kij c_klj is kappa times the
    identity.  On a weak background this is close to the inverse of
    -Laplacian_a.  Once sigma reaches the lowest nonzero flat eigenvalue
    lambda_1 = (sin(2 pi / n) / h)^2 the background dominates the flat
    part and the flat inverse no longer pays for its transforms, so the
    identity (plain CG) is returned.  At a = 0, sigma = 0 and the null
    modes of Laplacian_0, the Fourier modes where its symbol vanishes,
    get 0 instead of 1/0: the preconditioner is then the pseudo-inverse,
    which invert_laplacian applies once as the solution.
    """
    n, h = a.lattice.n, a.lattice.spacing
    c = a.basis.structure_constants
    kappa = float(np.sum(c * c)) / a.basis.dim_g
    sigma = kappa * float(np.sum(a.data * a.data)) / (a.basis.dim_g * n ** 3)
    modes = np.arange(n)
    sin2 = np.sin(2.0 * np.pi * modes / n) ** 2
    # sin(pi)^2 is 1.5e-32, not 0: its inverse would swamp every other mode
    sin2[(2 * modes) % n == 0] = 0.0
    if sigma >= sin2[1] / h ** 2:
        return None
    half = sin2[: n // 2 + 1]
    symbol = (sin2[:, None, None] + sin2[None, :, None] + half[None, None, :]) / h ** 2
    symbol += sigma
    inverse = np.divide(1.0, symbol, out=np.zeros_like(symbol), where=symbol > 0)
    axes = (-3, -2, -1)

    def apply(r: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(np.fft.rfftn(r, axes=axes) * inverse, s=(n, n, n),
                             axes=axes)

    return apply


def invert_laplacian(
    a: VectorAlgebraField,
    f: ScalarAlgebraField,
    tol: float = DEFAULT_CG_TOL,
) -> ScalarAlgebraField:
    """Solve Laplacian_a u = f by conjugate gradients on -Laplacian_a,
    preconditioned by _flat_preconditioner, or by the identity where that
    returns None.  The stopping test reads the unpreconditioned residual
    |f - Laplacian_a u| <= tol |f|; with the identity the iteration is
    plain CG, step for step.

    The right-hand side must be orthogonal to the discrete kernel.  At
    a = 0 the preconditioner is the pseudo-inverse, so it is applied once
    as the solution, and what one Laplacian of it leaves of f is f's part
    in the null modes; a significant part raises a consistency error.  For
    a != 0 a near-kernel component shows up as non-convergence and raises
    a solver error.
    """
    _same_geometry(a, f)
    if tol <= 0:
        raise ConfigurationError("CG tolerance must be positive")
    lattice = a.lattice
    precondition = _flat_preconditioner(a) or (lambda r: r)

    def matvec(v: np.ndarray) -> np.ndarray:
        field = ScalarAlgebraField(lattice, a.basis, v)
        return -gauged_laplacian(a, field).data

    b = -f.data
    b_norm = float(np.sqrt(np.sum(b * b)))
    if not np.any(a.data):
        # at n = 2 every difference vanishes and the identity stands in:
        # then all of b is null and only b = 0 passes
        x = precondition(b)
        null = b - matvec(x)
        null_norm = float(np.sqrt(np.sum(null * null)))
        if null_norm > max(1e-8, 10 * tol) * b_norm:
            raise ConsistencyError(
                "right-hand side has a null-mode component of relative size "
                f"{null_norm / b_norm:.3e}; the a = 0 Laplacian cannot "
                "invert it"
            )
        return ScalarAlgebraField(lattice, a.basis, x)

    cap = 10 * lattice.sites()
    x = np.zeros_like(b)
    r = b.copy()
    z = precondition(r)
    p = z.copy()
    rs = float(np.sum(r * r))
    rz = float(np.sum(r * z))
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
        alpha = rz / denom
        x += alpha * p
        r -= alpha * ap
        rs = float(np.sum(r * r))
        z = precondition(r)
        rz_new = float(np.sum(r * z))
        p *= rz_new / rz
        p += z
        rz = rz_new
    else:
        raise SolverError(
            f"CG did not reach relative residual {tol:.1e} within {cap} "
            "iterations (possible near-kernel background)",
            residual=float(np.sqrt(rs)) / b_norm,
            iterations=cap,
        )
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


def constraint_residual(a: VectorAlgebraField, e: VectorAlgebraField,
                        scratch=None) -> float:
    """L2 norm of the Gauss-law violation div_a e, formed in ``scratch``
    (shaped like e.data) when given: div_a e, then its squares."""
    out, diff = (None, None) if scratch is None else scratch[:2]
    return field_norm(gauged_div(a, e, out, diff), diff)


# ---------------------------------------------------------------------------
# band-limited random fields
# ---------------------------------------------------------------------------

def _band_limited(rng, shape_head: tuple, n: int, max_mode: int) -> np.ndarray:
    """Gaussian noise of shape shape_head + (n, n, n), drawn as one block,
    less its Fourier modes above max_mode, filtered one component at a time."""
    noise = rng.normal(size=shape_head + (n, n, n))
    freq = np.rint(np.fft.fftfreq(n) * n).astype(int)
    keep = np.abs(freq) <= max_mode
    mask = keep[:, None, None] & keep[None, :, None] & keep[None, None, :]
    for component in noise.reshape(-1, n, n, n):
        fhat = np.fft.fftn(component)
        fhat *= mask
        component[...] = np.fft.ifftn(fhat).real
    return noise


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
    then algebra index: axes (x, y, z[, component], algebra), the data's
    site axes moved first.
    """
    kind = "vector" if isinstance(field, VectorAlgebraField) else "scalar"
    header = {
        "n": field.lattice.n,
        "spacing": field.lattice.spacing,
        "algebra": field.basis.name,
        "field_kind": kind,
    }
    payload = np.ascontiguousarray(np.moveaxis(field.data, (-3, -2, -1), (0, 1, 2)))
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        fh.write(payload.astype("<f8").tobytes())


def load_field(path):
    """Inverse of save_field; a payload whose length does not match its
    header is refused."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        raw = fh.read()
    lattice = LatticeSpec(n=header["n"], spacing=header["spacing"])
    basis = build_algebra(header["algebra"])
    kind = header["field_kind"]
    if kind not in _FIELD_KINDS:
        raise ConfigurationError(f"unknown field_kind '{kind}'")
    cls = _FIELD_KINDS[kind]
    shape = cls.shape(lattice, basis)
    if len(raw) != 8 * math.prod(shape):
        raise DimensionMismatchError(
            f"{path}: payload holds {len(raw) / 8:g} values, its header asks "
            f"for {math.prod(shape)}")
    data = np.frombuffer(raw, dtype="<f8").reshape(shape[-3:] + shape[:-3])
    return cls(lattice, basis, np.moveaxis(data, (0, 1, 2), (-3, -2, -1)).copy())
