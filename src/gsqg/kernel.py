"""gSQG point-vortex interaction kernel and conserved quantities.

N point vortices at complex positions z_j with real intensities xi_j move
according to

    d(conj z_j)/dt = i c_alpha * sum_{k != j} xi_k |z_j - z_k|^(alpha-2) / (z_j - z_k)

with coupling c_alpha = -1 / (2^alpha Gamma(alpha/2)^2 sin(alpha pi / 2)).
The interaction exponent alpha lives in (0, 3); alpha = 2 (the 2D Euler
case) is excluded because c_alpha diverges there.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

# alpha = 2 is a pole of c_alpha: refuse a band around it instead of
# emitting enormous velocities.
ALPHA_GUARD = 1e-3

# Singularity guard relative to the configuration diameter.
DMIN_FACTOR = 1e-12

# The largest Gamma(alpha/2) whose square is finite (2^512 squared overflows).
_GAMMA_MAX = np.sqrt(np.finfo(float).max)

# Rational approximation of Gamma(2 + x) on [0, 1] (cephes `Gamma`, S. L.
# Moshier, Methods and Programs for Mathematical Functions, 1989),
# highest power first.
_GAMMA_P = (1.60119522476751861407E-4, 1.19135147006586384913E-3,
            1.04213797561761569935E-2, 4.76367800457137231464E-2,
            2.07448227648435975150E-1, 4.94214826801497100753E-1,
            9.99999999999999996796E-1)
_GAMMA_Q = (-2.31581873324120129819E-5, 5.39605580493303397842E-4,
            -4.45641913851797240494E-3, 1.18139785222060435552E-2,
            3.58236398605498653373E-2, -2.34591795718243348568E-1,
            7.14304917030273074085E-2, 1.00000000000000000320E0)


class DomainError(ValueError):
    """Parameter outside the admissible range (alpha, degenerate geometry...)."""


class SingularityError(RuntimeError):
    """Two vortices closer than the collision guard distance."""

    members: list[int]      # the rows of a batch below their guard, set by `make_rhs`


def coupling_constant(alpha: float) -> float:
    """Coupling c_alpha of the interaction kernel.

    Negative for alpha in (0, 2), positive for alpha in (2, 3).
    Raises DomainError where `check_alpha` does.
    """
    check_alpha(alpha)
    return -1.0 / (2.0**alpha * _gamma(alpha / 2.0) ** 2 * np.sin(alpha * np.pi / 2.0))


def _horner(c: tuple, x: float) -> float:
    """c[0] x^k + ... + c[k], summed in the order of cephes `polevl`."""
    ans = c[0]
    for ci in c[1:]:
        ans = ans * x + ci
    return ans


def _gamma(x: float) -> float:
    """Gamma(x) for x in (0, 1.5), with the steps and bits of cephes `Gamma`
    (the `scipy.special.gamma` of SciPy): shift the argument up to [2, 3),
    then apply the rational approximation there.  The result is a NumPy
    scalar, as SciPy's is."""
    z = np.float64(1.0)
    while x < 2.0:
        if x < 1e-9:
            return z / ((1.0 + 0.5772156649015329 * x) * x)
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * _horner(_GAMMA_P, x) / _horner(_GAMMA_Q, x)


def check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 3.0):
        raise DomainError(f"alpha must lie in (0, 3), got {alpha}")
    if abs(alpha - 2.0) <= ALPHA_GUARD:
        raise DomainError(
            f"alpha within {ALPHA_GUARD} of 2 (Euler pole of c_alpha), got {alpha}"
        )
    # below about 1.5e-154 c_alpha would be -0; a subnormal alpha overflows Gamma itself
    with np.errstate(over="ignore", divide="ignore"):
        if _gamma(alpha / 2.0) > _GAMMA_MAX:
            raise DomainError(f"alpha so small that Gamma(alpha/2)^2 overflows, got {alpha}")


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

    def dmin(self) -> float:
        return DMIN_FACTOR * float(max_pair_distance(self.z))


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


def make_rhs(xi: np.ndarray, alpha: float, c_alpha: float, guards):
    """`rhs` and the closest pairwise distance of each row of positions (b, n), for
    fixed intensities, exponent and b guards, each row with the bits it has alone."""
    # 0-d arrays: a ufunc converts a scalar operand on every call
    xi_c, ic, p = xi.astype(complex), np.array(1j * c_alpha), np.array(alpha - 2.0)
    n, guards = len(xi), list(guards)
    # one table per row for every call, diagonal 0: pairs j < k once, mirrored
    # by exact negation; 1-d flat indices into the raveled positions and tables
    i, k = np.triu_indices(n, 1)
    row = np.arange(len(guards))[:, None] * n
    zi, zk, upper, lower = (a.ravel() for a in (row + i, row + k, (row + i) * n + k,
                                                (row + k) * n + i))
    starts = np.arange(len(guards)) * len(i)     # each row's first pair
    kern = np.zeros((len(guards), n, n), dtype=complex)
    flat = kern.reshape(-1)

    def f(z: np.ndarray):
        zf = z.ravel()
        d = zf[zi]
        d -= zf[zk]
        dist = np.abs(d)
        closest = np.minimum.reduceat(dist, starts).tolist() if len(i) else [np.inf] * len(guards)
        if any(map(operator.lt, closest, guards)):
            e = SingularityError(f"closest pairwise distances {closest} below guards {guards}")
            e.members = [m for m, (c, g) in enumerate(zip(closest, guards)) if c < g]
            raise e
        operator.ipow(dist, p)      # dist **= p, with the scalar fast paths of **
        v = np.divide(dist, d, out=d)
        flat[upper] = v
        flat[lower] = np.negative(v, out=v)
        return np.conj(ic * (kern @ xi_c)), closest

    return f


def rhs(state: VortexState) -> np.ndarray:
    """dz_j/dt for all vortices, `make_rhs` of a batch of one; raises
    SingularityError when a pairwise distance is below `state.dmin()`."""
    return make_rhs(state.xi, state.alpha, state.c_alpha, [state.dmin()])(state.z[None])[0][0]


def make_conserved(xi: np.ndarray, alpha: float, c_alpha: float):
    """`conserved` as a function of the positions alone, for fixed
    intensities and exponent (the pair table is built once).  The positions
    may carry any leading batch axes, the vortex axis last; C, H and L come
    back as arrays over those axes, each row with the bits of that row
    alone."""
    i, k = np.triu_indices(len(xi), 1)
    pair = xi[i] * xi[k]
    p = alpha - 2.0

    def q(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # sums along a C-ordered last axis run in the order of one row alone;
        # z[..., i] would gather into an F-ordered array and sum across rows
        z = np.ascontiguousarray(z)
        C = np.sum(xi * z, axis=-1)
        if len(xi) < 2:     # no pairs: 2 * 0 / c_alpha would be -0 for c_alpha < 0
            return C, np.zeros(C.shape), np.zeros(C.shape)
        d = np.abs(operator.isub(np.take(z, i, axis=-1), np.take(z, k, axis=-1)))
        # sums run over ordered pairs j != k: twice the upper triangle
        H = 2.0 * np.sum(pair * d**p, axis=-1) / c_alpha
        Lmom = 2.0 * np.sum(pair * d**2, axis=-1)
        return C, H, Lmom

    return q


def conserved(state: VortexState) -> ConservedQuantities:
    """Evaluate the three conserved quantities of the dynamics."""
    C, H, Lmom = make_conserved(state.xi, state.alpha, state.c_alpha)(state.z)
    return ConservedQuantities(C=complex(C), H=float(H), Lmom=float(Lmom))
