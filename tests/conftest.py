import os

import numpy as np
import pytest
from hypothesis import settings

import gsqg

# Tier-1 draws the same Hypothesis examples on every run and in every checkout:
# derandomized, with no example database. HYPOTHESIS_PROFILE=explore draws
# fresh random examples instead, for runs that gate nothing.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))

# measured reference values of this pipeline at (alpha=1, x=0.70190),
# cross-checked in tests against independent oracles
THM_ALPHA = 1.0
THM_X = 0.70190
THM_Y = 1.3035293651212112
THM_XI3 = -0.4562350972273099
THM_A3 = 0.6032625978666543 - 0.6942625194275067j
THM_A = 0.1230230912910152
THM_B = 0.3038251604604318

ACCEPTANCE_LOG: list[str] = []


def log_criterion(name: str, ok: bool, detail: str = "") -> None:
    ACCEPTANCE_LOG.append(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else ""))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LOG:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LOG:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def thm_cfg() -> gsqg.TripleConfig:
    return gsqg.oriented_config(THM_ALPHA, THM_X)


@pytest.fixture(scope="session")
def thm_centered(thm_cfg) -> gsqg.TripleConfig:
    return gsqg.center(thm_cfg)


@pytest.fixture(scope="session")
def thm_report(thm_cfg) -> gsqg.HypothesisReport:
    return gsqg.hypothesis_a_check(thm_cfg)


@pytest.fixture(scope="session")
def thm_motion(thm_centered) -> gsqg.SelfSimilarMotion:
    return gsqg.motion_from_config(thm_centered)


def random_state(seed: int, n: int, alpha: float, min_sep: float = 0.35) -> gsqg.VortexState:
    """Well-separated random vortex state (rejection sampled)."""
    rng = np.random.default_rng(seed)
    for _ in range(256):
        z = rng.uniform(-1.5, 1.5, n) + 1j * rng.uniform(-1.5, 1.5, n)
        xi = rng.uniform(0.4, 1.6, n) * rng.choice([-1.0, 1.0], n)
        st = gsqg.VortexState(t=0.0, z=z, xi=xi, alpha=alpha)
        if st.min_distance() >= min_sep:
            return st
    raise RuntimeError("rejection sampling failed")


def lattice_state(n: int, alpha: float, seed: int = 0) -> gsqg.VortexState:
    """n vortices on a jittered square lattice of unit spacing."""
    rng = np.random.default_rng(seed)
    side = int(np.ceil(np.sqrt(n)))
    k = np.arange(n)
    z = (k % side + 1j * (k // side)) + rng.uniform(-0.25, 0.25, n) * (1 + 1j)
    xi = rng.uniform(0.4, 1.6, n) * rng.choice([-1.0, 1.0], n)
    return gsqg.VortexState(t=0.0, z=z, xi=xi, alpha=alpha)
