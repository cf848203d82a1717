"""Self-similar three-vortex motions.

A centered triple (a_1, a_2, a_3) with intensities (xi_1, xi_2, xi_3)
evolves self-similarly, z_j(t) = a_j Z(t), exactly when

    i c_alpha sum_{k != j} xi_k |a_j - a_k|^(alpha-2) / (a_j - a_k)
        = conj(a_j) (a - i b)       for j = 1, 2, 3

with a common pair of real rates (a, b).  The scale factor is then

    Z(t) = ((4 - alpha) a t)^(1/(4-alpha)) * exp(i b / ((4 - alpha) a) * log t)

a burst for a > 0 (domain t > 0), a collapse for a < 0 (t < 0, with |t|
in place of t), and a relative equilibrium for a = 0.  The dynamics is
autonomous and rotation invariant, so a shift of t and a constant phase
give motions too; the singular time sits at t = 0 and the phase at 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .kernel import DomainError, VortexState, coupling_constant

# The self-similarity relation is algebraically exact; these thresholds
# only absorb floating-point noise.
SS_TOL = 1e-8
RATE_TOL = 1e-10


class Classification(Enum):
    RELATIVE_EQUILIBRIUM = "relative_equilibrium"
    BURST = "burst"
    COLLAPSE = "collapse"
    NOT_SELF_SIMILAR = "not_self_similar"


def verdict(a_rate: float, residual: float) -> Classification:
    """The one classification of a triple by its rates and residual; each test
    fails on NaN, so NaN rates are not self-similar."""
    if not residual <= SS_TOL:
        return Classification.NOT_SELF_SIMILAR
    if not abs(a_rate) > RATE_TOL:
        return Classification.RELATIVE_EQUILIBRIUM
    return Classification.BURST if a_rate > 0 else Classification.COLLAPSE


def known_keys(obj: dict, known: set, what: str) -> dict:
    """obj, after refusing any key outside known, naming the keys."""
    if unknown := sorted(set(obj) - known):
        raise ValueError(f"unknown {what} keys {unknown}")
    return obj


@dataclass(frozen=True)
class TripleConfig:
    """Candidate shape for a self-similar three-vortex motion."""

    a: np.ndarray          # three complex positions
    xi: np.ndarray         # three real nonzero intensities
    alpha: float

    def __post_init__(self):
        a = np.asarray(self.a, dtype=complex)
        xi = np.asarray(self.xi, dtype=float)
        if a.shape != (3,) or xi.shape != (3,):
            raise DomainError("TripleConfig needs exactly three vortices")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "xi", xi)
        VortexState(t=0.0, z=a, xi=xi, alpha=self.alpha)   # the vortex-set checks

    def state(self) -> VortexState:
        return VortexState(t=0.0, z=self.a.copy(), xi=self.xi.copy(), alpha=self.alpha)

    def to_json(self) -> str:
        return json.dumps(
            {
                "alpha": self.alpha,
                "positions": [[z.real, z.imag] for z in self.a],
                "intensities": list(self.xi),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "TripleConfig":
        obj = known_keys(json.loads(text), {"alpha", "positions", "intensities"}, "config")
        pos = np.array([complex(re, im) for re, im in obj["positions"]])
        return cls(a=pos, xi=np.array(obj["intensities"], dtype=float),
                   alpha=float(obj["alpha"]))


@dataclass(frozen=True)
class SelfSimilarMotion:
    """Rates of z_j(t) = a_j Z(t)."""

    a_rate: float
    b_rate: float
    alpha: float

    def classification(self) -> Classification:
        return verdict(self.a_rate, 0.0)


# Array forms of the triple pipeline, vortex axis first: z[j] and xi[j]
# hold vortex j over any batch shape, and one triple is a batch of one.
# The admissibility grid and the scalar checks share them, and each
# element depends on its own triple alone, so both get the same bits.

def centered(z: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Positions shifted so the center of vorticity sits at the origin."""
    return z - (xi[0] * z[0] + xi[1] * z[1] + xi[2] * z[2]) / (xi[0] + xi[1] + xi[2])


def pair_terms(z: np.ndarray, alpha: float) -> tuple[dict, dict]:
    """Pair values, once per pair j < k and stored under (j, k) alone:
    kern[j, k] = |d|^(alpha-2) / d at d = z_j - z_k, odd in d, and the
    bracket (alpha-2) |d|^(alpha-4) - |d|^(alpha-2) / d^2, even in d."""
    kern, bracket = {}, {}
    for j, k in ((0, 1), (0, 2), (1, 2)):
        d = z[j] - z[k]
        r = np.abs(d)
        p = r ** (alpha - 2.0)
        kern[j, k] = p / d
        bracket[j, k] = (alpha - 2.0) * r ** (alpha - 4.0) - p / d**2
    return kern, bracket


def vortex_rates(z: np.ndarray, xi: np.ndarray, c_alpha: float,
                 kern: dict) -> tuple[list, np.ndarray]:
    """q_j = (i c_alpha sum_{k != j} xi_k kern[j, k]) / conj(z_j) for each
    vortex of a centered triple, and their mean a - i b.  `pair_terms` stores
    j < k alone; j > k takes xi_k * -kern[k, j] in the mirrored sum's order."""
    q = [1j * c_alpha * (xi[1] * kern[0, 1] + xi[2] * kern[0, 2]) / np.conj(z[0]),
         1j * c_alpha * (xi[0] * -kern[0, 1] + xi[2] * kern[1, 2]) / np.conj(z[1]),
         1j * c_alpha * (xi[0] * -kern[0, 2] + xi[1] * -kern[1, 2]) / np.conj(z[2])]
    return q, (q[0] + q[1] + q[2]) / 3.0


def center(cfg: TripleConfig) -> TripleConfig:
    """Translate so the center of vorticity sits at the origin."""
    if float(np.sum(cfg.xi)) == 0.0:
        raise DomainError("zero total intensity: vorticity-weighted center undefined")
    return TripleConfig(a=centered(cfg.a[:, None], cfg.xi[:, None])[:, 0],
                        xi=cfg.xi, alpha=cfg.alpha)


@np.errstate(over="ignore", invalid="ignore")     # kernels that overflow give NaN rates
def selfsimilar_rate(cfg: TripleConfig) -> tuple[float, float, float]:
    """Rates (a, b) of the self-similarity relation plus its residual.

    Evaluates q_j = (i c_alpha sum_k ...) / conj(a_j) for each vortex and
    returns the mean of q_j split as (a, b) = (Re, -Im), with
    residual = max_j |q_j - mean|, the inputs of `verdict`; requires a
    centered configuration.
    """
    if np.any(cfg.a == 0.0):
        raise DomainError("vortex at the origin: q_j undefined")
    z, xi = cfg.a[:, None], cfg.xi[:, None]
    q, mean = vortex_rates(z, xi, coupling_constant(cfg.alpha), pair_terms(z, cfg.alpha)[0])
    residual = max(float(np.abs(qj - mean)[0]) for qj in q)
    return float(mean.real[0]), float(-mean.imag[0]), residual


def classify(cfg: TripleConfig) -> Classification:
    """Classify a centered triple by the self-similarity relation."""
    a_rate, _, residual = selfsimilar_rate(cfg)
    return verdict(a_rate, residual)


def zeta(motion: SelfSimilarMotion, t: float) -> complex:
    """Scale factor Z(t) of the self-similar motion.

    Domain: t > 0 on the burst branch (a > 0), t < 0 on the collapse
    branch (a < 0), where |t| replaces t.
    """
    a, b, alpha, kind = motion.a_rate, motion.b_rate, motion.alpha, motion.classification()
    if kind is Classification.RELATIVE_EQUILIBRIUM:
        raise DomainError("zeta undefined for a relative equilibrium (a = 0)")
    if kind is Classification.BURST and t <= 0:
        raise DomainError(f"burst branch needs t > 0, got t = {t}")
    if kind is Classification.COLLAPSE and t >= 0:
        raise DomainError(f"collapse branch needs t < 0, got t = {t}")
    s = abs(t)
    mod = ((4.0 - alpha) * abs(a) * s) ** (1.0 / (4.0 - alpha))
    phase = b / ((4.0 - alpha) * a) * np.log(s)
    return mod * np.exp(1j * phase)


def motion_from_config(cfg: TripleConfig) -> SelfSimilarMotion:
    """Build the SelfSimilarMotion whose shape coefficients are cfg.a.

    cfg must be centered and self-similar by `verdict`.
    """
    a_rate, b_rate, residual = selfsimilar_rate(cfg)
    if verdict(a_rate, residual) is Classification.NOT_SELF_SIMILAR:
        raise DomainError(f"configuration not self-similar (residual {residual:.2e})")
    return SelfSimilarMotion(a_rate=a_rate, b_rate=b_rate, alpha=cfg.alpha)


def reference_time(motion: SelfSimilarMotion) -> float:
    """Time at which |Z| = 1, i.e. the trajectory passes through the shape
    coefficients themselves."""
    a, alpha = motion.a_rate, motion.alpha
    if motion.classification() is Classification.RELATIVE_EQUILIBRIUM:
        raise DomainError("reference time undefined for a = 0")
    return np.sign(a) / ((4.0 - alpha) * abs(a))
