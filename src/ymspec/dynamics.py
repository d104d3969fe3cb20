"""Classical temporal-gauge evolution of lattice Cauchy data.

First-order system: da/dt = e, de_k/dt = sum_j (D_j F_jk - [a_j, F_jk])
with the magnetic curvature F_jk = D_j a_k - D_k a_j - [a_j, a_k].
Time stepping is classical fourth-order Runge-Kutta under an explicit
CFL bound.  The Gauss-law residual div_a e is monitored along the run
but never re-projected, so constraint propagation is itself observable.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    DivergenceError,
    StabilityError,
)
from .lattice import (
    LatticeSpec,
    VectorAlgebraField,
    _bracket,
    _diff,
    constraint_residual,
    field_norm,
)


@dataclass
class CauchyState:
    a: VectorAlgebraField
    e: VectorAlgebraField
    t: float = 0.0

    def __post_init__(self):
        if self.a.lattice != self.e.lattice or not self.a.basis.same_as(self.e.basis):
            raise ConfigurationError("a and e must share a lattice and basis")

    @property
    def lattice(self) -> LatticeSpec:
        return self.a.lattice

    def copy(self) -> "CauchyState":
        return CauchyState(self.a.copy(), self.e.copy(), self.t)


@dataclass
class EvolutionReport:
    times: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    constraint: list = field(default_factory=list)

    def record(self, t: float, en: float, cr: float):
        self.times.append(t)
        self.energy.append(en)
        self.constraint.append(cr)

    @property
    def energy_drift(self) -> float:
        """Max relative deviation of the energy from its initial value."""
        if not self.energy:
            return 0.0
        e0 = self.energy[0]
        scale = abs(e0) if e0 != 0 else 1.0
        return max(abs(e - e0) for e in self.energy) / scale

    @property
    def constraint_growth(self) -> float:
        """Max increase of the residual over its initial value."""
        if not self.constraint:
            return 0.0
        r0 = self.constraint[0]
        return max(r - r0 for r in self.constraint)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("t,energy,constraint_residual\n")
        for t, en, cr in zip(self.times, self.energy, self.constraint):
            buf.write(f"{t:.17g},{en:.17g},{cr:.17g}\n")
        return buf.getvalue()


# ---------------------------------------------------------------------------
# curvature and energy
# ---------------------------------------------------------------------------

def curvature_magnetic(a: VectorAlgebraField) -> np.ndarray:
    """Antisymmetric curvature F_jk = D_j a_k - D_k a_j - [a_j, a_k].

    Returned as an array of shape (3, 3, dim_g, n, n, n) with exact
    antisymmetry in the two leading indices.
    """
    h = a.lattice.spacing
    shape = (3,) + a.data.shape
    f = np.zeros(shape)
    for j in range(3):
        for k in range(j + 1, 3):
            val = (
                _diff(a.data[k], 1 + j, h)
                - _diff(a.data[j], 1 + k, h)
                - _bracket(a.basis, a.data[j], a.data[k])
            )
            f[j, k] = val
            f[k, j] = -val
    return f


def energy(state: CauchyState) -> float:
    """(1/2) integral of (B.B + E.E): each unordered curvature pair counted
    once, so the abelian sector reproduces the Maxwell energy and the value
    is conserved by the evolution equations."""
    f = curvature_magnetic(state.a)
    vol = state.lattice.volume_factor
    magnetic = 0.0
    for j in range(3):
        for k in range(j + 1, 3):
            magnetic += float(np.sum(f[j, k] * f[j, k]))
    electric = float(np.sum(state.e.data * state.e.data))
    return 0.5 * vol * (magnetic + electric)


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def _force(a: VectorAlgebraField) -> np.ndarray:
    """de_k/dt = sum_j (D_j F_jk - [a_j, F_jk])."""
    h = a.lattice.spacing
    f = curvature_magnetic(a)
    out = np.zeros_like(a.data)
    for k in range(3):
        for j in range(3):
            if j == k:
                continue
            out[k] += _diff(f[j, k], 1 + j, h) - _bracket(a.basis, a.data[j], f[j, k])
    return out


def cfl_bound(lattice: LatticeSpec) -> float:
    return 0.5 * lattice.spacing


def rk4_step(state: CauchyState, h: float) -> CauchyState:
    """One classical Runge-Kutta step of (a, e); rejects steps above the
    stability bound spacing/2.  Negative h steps backwards (the flow map
    is reversible to its order)."""
    if h == 0:
        raise ConfigurationError("time step must be nonzero")
    bound = cfl_bound(state.lattice)
    if abs(h) > bound:
        raise StabilityError(
            f"time step {h} exceeds the stability bound spacing/2 = {bound}"
        )
    lattice, basis = state.lattice, state.a.basis
    a0, e0 = state.a.data, state.e.data

    def deriv(a_arr, e_arr):
        af = VectorAlgebraField(lattice, basis, a_arr)
        return e_arr, _force(af)

    k1a, k1e = deriv(a0, e0)
    k2a, k2e = deriv(a0 + 0.5 * h * k1a, e0 + 0.5 * h * k1e)
    k3a, k3e = deriv(a0 + 0.5 * h * k2a, e0 + 0.5 * h * k2e)
    k4a, k4e = deriv(a0 + h * k3a, e0 + h * k3e)

    a_new = a0 + (h / 6.0) * (k1a + 2 * k2a + 2 * k3a + k4a)
    e_new = e0 + (h / 6.0) * (k1e + 2 * k2e + 2 * k3e + k4e)
    return CauchyState(
        VectorAlgebraField(lattice, basis, a_new),
        VectorAlgebraField(lattice, basis, e_new),
        state.t + h,
    )


def evolve(
    state: CauchyState,
    T: float,
    h: float,
    constraint_tol: float = 1e-6,
) -> tuple[CauchyState, EvolutionReport]:
    """Step the state to time t + T, recording energy and Gauss residual.

    Takes steps of h; when T is not a whole number of them (to 1e-9
    relative), a final shortened step lands exactly on t + T.  The initial
    residual must sit below constraint_tol relative to the electric norm
    (zero fields pass trivially); non-finite fields abort with the last
    finite state attached.
    """
    if T < 0:
        raise ConfigurationError("evolution span T must be >= 0")
    if h <= 0:
        raise ConfigurationError("time step h must be positive")
    steps = int(round(T / h))
    if abs(steps * h - T) <= 1e-9 * max(1.0, T):
        sizes = [h] * steps
    else:
        steps = int(np.floor(T / h))
        sizes = [h] * steps + [T - steps * h]

    r0 = constraint_residual(state.a, state.e)
    e_norm = field_norm(state.e)
    if e_norm > 0 and r0 > constraint_tol * max(e_norm, 1.0):
        raise ConfigurationError(
            f"initial Gauss residual {r0:.3e} exceeds tolerance "
            f"{constraint_tol:.1e} relative to |e| = {e_norm:.3e}; project the "
            "electric field first"
        )

    report = EvolutionReport()
    report.record(state.t, energy(state), r0)
    current = state
    for step, size in enumerate(sizes):
        previous = current
        current = rk4_step(current, size)
        if not (
            np.isfinite(current.a.data).all() and np.isfinite(current.e.data).all()
        ):
            raise DivergenceError(
                f"fields became non-finite at step {step + 1} (t = {current.t})",
                last_state=previous,
                step=step + 1,
            )
        report.record(
            current.t,
            energy(current),
            constraint_residual(current.a, current.e),
        )
    return current, report
