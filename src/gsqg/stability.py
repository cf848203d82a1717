"""Linearized stability of self-similar triples.

Around a centered self-similar triple with rates (a, b), the shape
perturbation (x_2, x_3, conj x_2, conj x_3) evolves to linear order under
the 4x4 complex matrix

    L = [ -a-ib    0      L13    L14 ]
        [   0    -a-ib    L23    L24 ]
        [ conj(L13) conj(L14) -a+ib   0 ]
        [ conj(L23) conj(L24)   0   -a+ib ]

The stability requirement is that every eigenvalue of L has real part
exactly -a, which holds precisely when the quartic

    mu^4 + mu^2 (c1 - 2 b^2) + b^4 - b^2 c1 + c2 = 0

has four distinct real roots mu (the eigenvalues are then -a + i mu).
Solving for mu^2 reduces this to two explicit inequalities:

    c1^2 - 4 c2 > 0    and    2 b^2 - c1 - sqrt(c1^2 - 4 c2) > 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .kernel import DomainError, SingularityError, check_alpha, coupling_constant
from .selfsimilar import (Classification, TripleConfig, center, pair_terms,
                          selfsimilar_rate, verdict)

EIG_TOL = 1e-8


@dataclass(frozen=True)
class HypothesisReport:
    """One stability check; each field is the `to_json` key of its name
    (`a_rate` and `b_rate` as "a" and "b", `matrix` as "L")."""

    selfsimilar_ok: bool
    a_positive: bool
    eigen_ok: bool
    distinct: bool
    details: str
    a_rate: float
    b_rate: float
    c1: float = np.nan
    c2: float = np.nan
    mu: np.ndarray | None = None            # 4 reals, ascending
    matrix: np.ndarray | None = None        # the 4x4 complex L
    eigenvalues: np.ndarray | None = None

    @property
    def passed(self) -> bool:
        return (self.selfsimilar_ok and self.a_positive and self.mu is not None
                and self.eigen_ok and self.distinct)

    @property
    def mu_failure(self) -> str | None:
        """Why `mu` is None: the quartic's failure is the `details`."""
        if self.mu is not None:
            return None
        return self.details if self.matrix is not None else "prerequisites failed"

    def to_json(self) -> str:
        def c(v):
            return [float(v.real), float(v.imag)]

        obj = {
            "passed": self.passed,
            "selfsimilar_ok": self.selfsimilar_ok,
            "a_positive": self.a_positive,
            "eigen_ok": self.eigen_ok,
            "distinct": self.distinct,
            "details": self.details,
            "a": float(self.a_rate),
            "b": float(self.b_rate),
            "c1": float(self.c1),
            "c2": float(self.c2),
            "mu": [float(m) for m in self.mu] if self.mu is not None else None,
            "mu_failure": self.mu_failure,
            "L": {k: c(v) for k, v in zip(("L13", "L14", "L23", "L24"),
                                          self.matrix[:2, 2:].flat)}
            if self.matrix is not None else None,
            "eigenvalues": [c(e) for e in self.eigenvalues]
            if self.eigenvalues is not None else None,
        }
        return json.dumps(obj, indent=2)


def l_terms(z: np.ndarray, xi: np.ndarray, c_alpha: float,
            br: dict) -> tuple[np.ndarray, ...]:
    """Off-diagonal coefficients (L13, L14, L23, L24) of a centered triple
    given vortex axis first, with brackets `br` from `pair_terms`.

    Each is a sum of terms

        -(i c_alpha / |a1|^2) conj(a1^2 xi_m ((alpha-2)|d|^(alpha-4)
                                              - |d|^(alpha-2) / d^2))

    over the interactions that perturb each shape coordinate, with a2/a1
    or a3/a1 prefactors on the contributions routed through vortex 1.  The
    ten terms take seven distinct values; each is computed once and summed
    in the operand order of the ten-term form, so every element keeps its bits.
    Here and in `quartic_coefficients` a complex product whose right operand
    is a temporary is an `np.multiply` call: NumPy runs `a * temporary` as
    `temporary *= a` from 16,384 elements on, with other bits.
    """
    pre = -1j * c_alpha / np.abs(z[0]) ** 2
    z1sq = z[0] ** 2

    def term(m, bracket):
        return np.multiply(pre, np.conj(z1sq * m * bracket))

    # terms dropped after their last use, r3 built after r2: a scan peaks in vortex_rates
    r2, t212, t101 = z[1] / z[0], term(xi[2], br[1, 2]), term(xi[1], br[0, 1])
    L13 = t212 + term(xi[0], br[0, 1]) + r2 * t101
    L14 = t212 + np.multiply(r2, term(xi[2], br[0, 2]))
    del r2, t212
    r3, t112 = z[2] / z[0], term(xi[1], br[1, 2])
    L23 = t112 + r3 * t101
    del t101
    L24 = t112 + term(xi[0], br[0, 2]) + np.multiply(r3, term(xi[1], br[0, 2]))
    return L13, L14, L23, L24


def quartic_coefficients(L13, L14, L23, L24) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (c1, c2) of the eigenvalue quartic, in real arithmetic:

    c1 = |L13|^2 + |L24|^2 + 2 Re(L23 conj(L14)),
    c2 = |L13|^2 |L24|^2 + |L23|^2 |L14|^2 - 2 Re(L14 conj(L13) L23 conj(L24)).
    """
    s13, s24 = np.abs(L13) ** 2, np.abs(L24) ** 2
    c1 = s13 + s24 + 2.0 * np.real(np.multiply(L23, np.conj(L14)))
    c2 = (s13 * s24 + np.abs(L23) ** 2 * np.abs(L14) ** 2
          - 2.0 * np.real(np.multiply(L14, np.conj(L13)) * L23 * np.conj(L24)))
    return c1, c2


def quartic_mu2(b, c1, c2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """disc = c1^2 - 4 c2 and twice the roots in mu^2, 2 b^2 - c1 -+ sqrt(disc)
    (with sqrt(disc) read as 0 where disc <= 0)."""
    disc = c1 * c1 - 4.0 * c2
    base = 2.0 * b * b - c1
    s = np.sqrt(np.where(disc > 0.0, disc, 0.0))
    return disc, base - s, base + s


def mu_distinct(mu: np.ndarray) -> bool:
    """Whether the ascending roots `mu` are pairwise apart."""
    return bool(np.all(np.diff(mu) > 1e-9 * (1.0 + np.max(np.abs(mu)))))


def hypothesis_a_check(cfg: TripleConfig) -> HypothesisReport:
    """Full stability check of a candidate triple.

    Pipeline: center -> self-similarity rates (`verdict` must read a
    burst) -> `l_terms`, `quartic_coefficients` and `quartic_mu2`
    on a batch of one -> four distinct real mu, cross-checked against the
    eigenvalues of the assembled matrix by a general dense solver (LAPACK).
    """
    cen = center(cfg)
    a_rate, b_rate, residual = selfsimilar_rate(cen)
    ss_ok = verdict(a_rate, residual) is not Classification.NOT_SELF_SIMILAR
    a_pos = verdict(a_rate, 0.0) is Classification.BURST     # the rate alone
    if not (ss_ok and a_pos):
        return HypothesisReport(
            selfsimilar_ok=ss_ok, a_positive=a_pos, eigen_ok=False, distinct=False,
            details=f"residual={residual:.3e}, a={a_rate:.6g}", a_rate=a_rate, b_rate=b_rate)
    st = cen.state()
    if (dmin := st.min_distance()) < st.dmin():
        raise SingularityError(f"coincident vortices in linearization: |d|={dmin:.3e}")
    z = cen.a[:, None]
    L = l_terms(z, cen.xi[:, None], coupling_constant(cfg.alpha), pair_terms(z, cfg.alpha)[1])
    c1, c2 = quartic_coefficients(*L)
    disc, lo2, hi2 = (float(v[0]) for v in quartic_mu2(b_rate, c1, c2))
    D = np.diag([-a_rate - 1j * b_rate] * 2)
    T = np.reshape(L, (2, 2))
    M = np.block([[D, T], [T.conj(), D.conj()]])
    eigs = np.linalg.eigvals(M)
    mu, eig_ok, distinct = None, False, False
    # four distinct real mu exist exactly when disc > 0 and lo2 > 0
    if disc <= 0.0:
        detail = f"complex mu^2: c1^2 - 4 c2 = {disc:.6e} <= 0"
    elif lo2 <= 0.0:
        detail = f"negative mu^2: 2 b^2 - c1 - sqrt(disc) = {lo2:.6e} <= 0"
    else:
        r = np.sqrt([lo2 / 2.0, hi2 / 2.0])
        mu = np.array([-r[1], -r[0], r[0], r[1]])
        # oracle agreement: eigenvalues must be -a + i mu_j, mu ascending
        mismatch = float(np.max(np.abs(-a_rate + 1j * mu - eigs[np.argsort(eigs.imag)])))
        eig_ok = bool(mismatch <= EIG_TOL and np.max(np.abs(eigs.real + a_rate)) <= EIG_TOL)
        distinct = mu_distinct(mu)
        detail = f"max |eig - (-a + i mu)| = {mismatch:.3e}"
    return HypothesisReport(
        selfsimilar_ok=True, a_positive=True, eigen_ok=eig_ok, distinct=distinct,
        details=detail, a_rate=a_rate, b_rate=b_rate, c1=float(c1[0]), c2=float(c2[0]),
        mu=mu, matrix=M, eigenvalues=eigs)


def propagator_norm(M: np.ndarray, alpha: float, t: float) -> float:
    """Operator 2-norm of exp((log t / ((4-alpha) a)) M) for t in (0, 1], with
    M a report's 4x4 `matrix` and a = -Re M[0, 0], its `a_rate`.

    When every eigenvalue has real part -a the norm decays like
    t^(-1/(4-alpha)) up to a non-normality prefactor.
    """
    check_alpha(alpha)
    if np.shape(M) != (4, 4):
        raise DomainError(f"propagator needs a 4x4 matrix, got shape {np.shape(M)}")
    if not 0.0 < t <= 1.0:
        raise DomainError(f"propagator defined for t in (0, 1], got {t}")
    if (a := -M[0, 0].real) == 0.0:
        raise DomainError("propagator scaling undefined for a = 0")
    import scipy.linalg     # here: no command needs its ~6 MB and ~25 ms of import
    tau = np.log(t) / ((4.0 - alpha) * a)
    return float(np.linalg.norm(scipy.linalg.expm(tau * M), 2))
