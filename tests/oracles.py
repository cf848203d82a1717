"""Closed-form oracles the tests check the dynamics against.

`relative_motion_rate` gives d/dt |z_p - z_q|^2 of a three-vortex state in
closed form; `signed_area` is the triangle area it is built on.
`conserved_row` computes one row's conserved quantities on its own, and
`csv_per_value` formats a trajectory one value at a time with them, the
reference for the bytes of `Trajectory.to_csv`.  `l_terms_each_use` and
`quartic_coefficients_each_use` are the linearization with every term
computed where it is used, the reference for the bits of
`stability.l_terms` and `stability.quartic_coefficients`.
`pair_terms_mirrored` and `vortex_rates_mirrored` store the kernel at both
orders of a pair, kern[k, j] = -kern[j, k], and sum xi_k kern[j, k] over
k != j, the reference for the bits of `selfsimilar.pair_terms` and
`selfsimilar.vortex_rates`.  `cauchy_gaps_all_at_once` takes the Cauchy
gaps with every run's grid values alive at once, the reference for the bits
of `burstsim.convergence_study`.  No command needs them, so they live with
the tests.
"""

import io

import numpy as np

from gsqg.kernel import DomainError, VortexState, coupling_constant


def conserved_row(z: np.ndarray, xi: np.ndarray, alpha: float) -> tuple[complex, float, float]:
    """(C, H, L) of one configuration z of shape (N,), summed in the order
    of that row alone."""
    i, k = np.triu_indices(len(xi), 1)
    C = complex(np.sum(xi * z))
    if len(xi) < 2:
        return C, 0.0, 0.0
    pair = xi[i] * xi[k]
    d = np.abs(z[i] - z[k])
    H = 2.0 * float(np.sum(pair * d**(alpha - 2.0))) / coupling_constant(alpha)
    Lmom = 2.0 * float(np.sum(pair * d**2))
    return C, float(H), Lmom


def csv_per_value(traj) -> str:
    """`traj.to_csv()` written one NumPy scalar at a time with
    `f"{v:.17g}"`, and each row's conserved quantities from `conserved_row`."""
    n = traj.positions.shape[1]
    cols = (["t"] + [f"{part}_z{j}" for j in range(1, n + 1) for part in ("re", "im")]
            + ["H", "L", "C_re", "C_im"])
    buf = io.StringIO()
    buf.write(",".join(cols) + "\n")
    for t, z, xy in zip(traj.times, traj.positions, traj.positions.view(float)):
        C, H, Lmom = conserved_row(z, traj.xi, traj.alpha)
        vals = [t, *xy, H, Lmom, C.real, C.imag]
        buf.write(",".join(f"{v:.17g}" for v in vals) + "\n")
    return buf.getvalue()


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


def l_terms_each_use(z, xi, c_alpha, br):
    """(L13, L14, L23, L24) as the sum of ten terms, each computed at its
    use, with r2 and r3 alive throughout."""
    pre = -1j * c_alpha / np.abs(z[0]) ** 2
    z1sq = z[0] ** 2

    def term(m, bracket):
        return pre * np.conj(z1sq * m * bracket)

    r2, r3 = z[1] / z[0], z[2] / z[0]
    L13 = term(xi[2], br[1, 2]) + term(xi[0], br[0, 1]) + r2 * term(xi[1], br[0, 1])
    L14 = term(xi[2], br[1, 2]) + r2 * term(xi[2], br[0, 2])
    L23 = term(xi[1], br[1, 2]) + r3 * term(xi[1], br[0, 1])
    L24 = term(xi[1], br[1, 2]) + term(xi[0], br[0, 2]) + r3 * term(xi[1], br[0, 2])
    return L13, L14, L23, L24


def quartic_coefficients_each_use(L13, L14, L23, L24):
    """(c1, c2) with |L13|^2 and |L24|^2 computed at each use."""
    c1 = np.abs(L13) ** 2 + np.abs(L24) ** 2 + 2.0 * np.real(L23 * np.conj(L14))
    c2 = (np.abs(L13) ** 2 * np.abs(L24) ** 2 + np.abs(L23) ** 2 * np.abs(L14) ** 2
          - 2.0 * np.real(L14 * np.conj(L13) * L23 * np.conj(L24)))
    return c1, c2


def pair_terms_mirrored(z, alpha):
    """(kern, bracket) of `selfsimilar.pair_terms` with the kernel stored at
    both orders of each pair, kern[k, j] = -kern[j, k]."""
    kern, bracket = {}, {}
    for j, k in ((0, 1), (0, 2), (1, 2)):
        d = z[j] - z[k]
        r = np.abs(d)
        p = r ** (alpha - 2.0)
        kern[j, k] = p / d
        kern[k, j] = -kern[j, k]
        bracket[j, k] = (alpha - 2.0) * r ** (alpha - 4.0) - p / d**2
    return kern, bracket


def vortex_rates_mirrored(z, xi, c_alpha, kern):
    """(q, mean) of `selfsimilar.vortex_rates` as the sum of xi_k kern[j, k]
    over k != j, on the kern of `pair_terms_mirrored`."""
    q = [1j * c_alpha * (xi[k] * kern[j, k] + xi[m] * kern[j, m]) / np.conj(z[j])
         for j, k, m in ((0, 1, 2), (1, 0, 2), (2, 0, 1))]
    return q, (q[0] + q[1] + q[2]) / 3.0


def cauchy_gaps_all_at_once(runs, grid) -> tuple[float, ...]:
    """Sup-norm gaps between successive runs on the grid, from a list that
    holds every run's grid values."""
    vals = [traj.eval(grid) for traj in runs]
    return tuple(max(np.abs(a - b).max(axis=1).tolist()) for a, b in zip(vals, vals[1:]))
