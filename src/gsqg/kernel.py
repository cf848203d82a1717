"""gSQG point-vortex interaction kernel and conserved quantities.

N point vortices at complex positions z_j with real intensities xi_j move
according to

    d(conj z_j)/dt = i c_alpha * sum_{k != j} xi_k |z_j - z_k|^(alpha-2) / (z_j - z_k)

with coupling c_alpha = -1 / (2^alpha Gamma(alpha/2)^2 sin(alpha pi / 2)).
The interaction exponent alpha lives in (0, 3); alpha = 2 (the 2D Euler
case) is excluded because c_alpha diverges there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as _gamma

# alpha = 2 is a pole of c_alpha: refuse a band around it instead of
# emitting enormous velocities.
ALPHA_GUARD = 1e-3

# Singularity guard relative to the configuration diameter.
DMIN_FACTOR = 1e-12


class DomainError(ValueError):
    """Parameter outside the admissible range (alpha, degenerate geometry...)."""


class SingularityError(RuntimeError):
    """Two vortices closer than the collision guard distance."""


def coupling_constant(alpha: float) -> float:
    """Coupling c_alpha of the interaction kernel.

    Negative for alpha in (0, 2), positive for alpha in (2, 3).
    Raises DomainError outside (0, 3) or within ALPHA_GUARD of 2.
    """
    check_alpha(alpha)
    return -1.0 / (2.0**alpha * _gamma(alpha / 2.0) ** 2 * np.sin(alpha * np.pi / 2.0))


def check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 3.0):
        raise DomainError(f"alpha must lie in (0, 3), got {alpha}")
    if abs(alpha - 2.0) <= ALPHA_GUARD:
        raise DomainError(
            f"alpha within {ALPHA_GUARD} of 2 (Euler pole of c_alpha), got {alpha}"
        )


@dataclass(frozen=True)
class VortexState:
    """Positions and intensities of N vortices at one time instant."""

    t: float
    z: np.ndarray          # complex positions, shape (N,)
    xi: np.ndarray         # real nonzero intensities, shape (N,)
    alpha: float
    c_alpha: float = field(init=False, repr=False)

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex)
        xi = np.asarray(self.xi, dtype=float)
        if z.ndim != 1 or xi.shape != z.shape:
            raise DomainError("z and xi must be 1-d arrays of equal length")
        if not (np.isfinite(self.t) and np.isfinite(z).all() and np.isfinite(xi).all()):
            raise DomainError("t, z and xi must be finite")
        if np.any(xi == 0.0):
            raise DomainError("all intensities must be nonzero")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "c_alpha", coupling_constant(self.alpha))
        if self.min_distance() == 0.0:
            raise DomainError("positions must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.z)

    def min_distance(self) -> float:
        return float(min_pair_distance(self.z))

    def diameter(self) -> float:
        return float(max_pair_distance(self.z))

    def dmin(self) -> float:
        return DMIN_FACTOR * self.diameter()


@dataclass(frozen=True)
class ConservedQuantities:
    """Center of vorticity C, interaction energy H, moment of inertia L."""

    C: complex
    H: float
    Lmom: float


def min_pair_distance(z: np.ndarray):
    """Smallest |z_j - z_k| over j != k along the last axis of z (one value
    per configuration; inf for fewer than two points)."""
    d = np.abs(z[..., :, None] - z[..., None, :])
    j = np.arange(z.shape[-1])
    d[..., j, j] = np.inf
    return d.min(axis=(-2, -1), initial=np.inf)


def max_pair_distance(z: np.ndarray):
    """Largest |z_j - z_k| along the last axis of z (one value per
    configuration; 0 for fewer than two points)."""
    return np.abs(z[..., :, None] - z[..., None, :]).max(axis=(-2, -1), initial=0.0)


def make_rhs(xi: np.ndarray, alpha: float, c_alpha: float, guard: float):
    """`rhs` and the minimum pairwise distance as a function of the positions
    alone, for fixed intensities, exponent and guard distance."""
    xi_c = xi.astype(complex)
    ic = 1j * c_alpha
    p = alpha - 2.0
    n = len(xi)

    def f(z: np.ndarray) -> tuple[np.ndarray, float]:
        diff = z[:, None] - z[None, :]
        dist = np.abs(diff)
        dist.reshape(-1)[::n + 1] = np.inf
        closest = dist.min()
        if closest < guard:
            raise SingularityError(f"pairwise distance {closest:.3e} "
                                   f"below guard {guard:.3e}")
        # the guard leaves zeros only on the diagonal: avoid 0**negative and 0/0
        dist.reshape(-1)[::n + 1] = 1.0
        diff.reshape(-1)[::n + 1] = 1.0
        kern = dist**p / diff
        kern.reshape(-1)[::n + 1] = 0.0
        return np.conj(ic * (kern @ xi_c)), closest

    return f


def rhs(state: VortexState, dmin: float | None = None) -> np.ndarray:
    """dz_j/dt for all vortices.

    Raises SingularityError when any pairwise distance is below `dmin`
    (defaults to the state's own guard distance).
    """
    guard = state.dmin() if dmin is None else dmin
    return make_rhs(state.xi, state.alpha, state.c_alpha, guard)(state.z)[0]


def velocity(state: VortexState, j: int, dmin: float | None = None) -> complex:
    """dz_j/dt of vortex j (0-based index)."""
    if not 0 <= j < state.n:
        raise IndexError(f"vortex index {j} out of range")
    return complex(rhs(state, dmin=dmin)[j])


def make_conserved(xi: np.ndarray, alpha: float, c_alpha: float):
    """`conserved` as a function of the positions alone, for fixed
    intensities and exponent (the pair table is built once)."""
    i, k = np.triu_indices(len(xi), 1)
    pair = xi[i] * xi[k]
    p = alpha - 2.0

    def q(z: np.ndarray) -> ConservedQuantities:
        C = complex(np.sum(xi * z))
        if len(xi) < 2:
            return ConservedQuantities(C=C, H=0.0, Lmom=0.0)
        d = np.abs(z[i] - z[k])
        # sums run over ordered pairs j != k: twice the upper triangle
        H = 2.0 * float(np.sum(pair * d**p)) / c_alpha
        Lmom = 2.0 * float(np.sum(pair * d**2))
        return ConservedQuantities(C=C, H=H, Lmom=Lmom)

    return q


def conserved(state: VortexState) -> ConservedQuantities:
    """Evaluate the three conserved quantities of the dynamics."""
    return make_conserved(state.xi, state.alpha, state.c_alpha)(state.z)


def signed_area(z1: complex, z2: complex, z3: complex) -> float:
    """Signed area of the triangle (z1, z2, z3); positive when the
    vertices wind counter-clockwise."""
    return float(np.imag(np.conj(z2 - z1) * (z3 - z1)) / 2.0)


def relative_motion_rate(state: VortexState, pair: tuple[int, int] = (1, 2)) -> float:
    """d/dt |z_p - z_q|^2 for a three-vortex state, in closed form.

    For the pair (2, 3) (0-based (1, 2)) this equals

        -4 c_alpha A xi_1 (|w13|^(alpha-4) - |w12|^(alpha-4))

    with A the counter-clockwise-positive signed area; other pairs follow
    by cyclic rotation of the indices.  The coefficient is forced by
    direct differentiation of the flow (see the finite-difference oracle
    in the tests): the mutual term of the pair drops out as purely
    rotational and only the third vortex changes the separation.
    """
    if state.n != 3:
        raise DomainError("relative motion form requires exactly 3 vortices")
    if set(pair) not in ({1, 2}, {0, 2}, {0, 1}):
        raise DomainError(f"pair must name two distinct vortices, got {pair}")
    # cyclic representative (p, q) so that (p, q, other) is a rotation of (0, 1, 2)
    p, q = {frozenset((1, 2)): (1, 2),
            frozenset((0, 2)): (2, 0),
            frozenset((0, 1)): (0, 1)}[frozenset(pair)]
    (other,) = set(range(3)) - {p, q}
    z, xi, alpha = state.z, state.xi, state.alpha
    A = signed_area(z[0], z[1], z[2])
    d_oq = abs(z[other] - z[q])
    d_op = abs(z[other] - z[p])
    return (
        -4.0
        * state.c_alpha
        * A
        * xi[other]
        * (d_oq ** (alpha - 4.0) - d_op ** (alpha - 4.0))
    )
