import json

import numpy as np
import pytest

import gsqg
from gsqg.kernel import DomainError
from gsqg.selfsimilar import Classification


@pytest.fixture(scope="module")
def scenario(thm_cfg):
    return gsqg.BurstScenario(
        triple=thm_cfg,
        background=((1.0 + 0.0j, 1.0),),
        t_ini_sequence=(1e-4, 5e-5, 2.5e-5, 1.25e-5),
        horizon=1e-3,
    )


@pytest.fixture(scope="module")
def lone_scenario(thm_cfg):
    return gsqg.BurstScenario(
        triple=thm_cfg, background=(), t_ini_sequence=(1e-4, 5e-5, 2.5e-5),
        horizon=1e-3,
    )


CFG = gsqg.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14)


# ---------------------------------------------------------------- construction

def test_initial_state_limits(scenario):
    tiny = gsqg.make_burst_initial(scenario, 1e-10)
    assert np.max(np.abs(tiny.z[:3] - scenario.burst_site)) <= 1e-3


def test_initial_state_pure_triple(lone_scenario):
    st = gsqg.make_burst_initial(lone_scenario, 1e-4)
    assert st.n == 3
    Z = gsqg.zeta(lone_scenario.motion, 1e-4)
    assert np.allclose(st.z, lone_scenario.triple.a * Z)


def test_initial_state_with_background(scenario):
    st = gsqg.make_burst_initial(scenario, 1e-6)
    assert st.n == 4
    spread = max(abs(st.z[i] - st.z[k]) for i in range(3) for k in range(i + 1, 3))
    # the closest pair is inside the triple, far below the background gap
    assert 0.5 * spread <= st.min_distance() <= spread


def test_separation_guard(thm_cfg):
    s = gsqg.BurstScenario(triple=thm_cfg, background=(), t_ini_sequence=(1.0, 0.5, 0.25),
                           horizon=2.0)
    with pytest.raises(DomainError):
        gsqg.make_burst_initial(s, 1.0)   # spread ~ O(1) exceeds rho_sep/2


def test_scenario_validation(thm_cfg):
    with pytest.raises(DomainError):
        gsqg.BurstScenario(triple=thm_cfg, background=((0.1 + 0j, 1.0),),
                           t_ini_sequence=(1e-4, 5e-5, 2.5e-5), horizon=1e-3)
    with pytest.raises(DomainError):
        gsqg.BurstScenario(triple=thm_cfg, t_ini_sequence=(1e-4, 2e-4, 4e-4),
                           horizon=1e-3)
    # the horizon lies past the first t_ini and is finite; rho_sep is
    # finite and positive
    for kw in (dict(horizon=1e-5), dict(horizon=1e-4), dict(horizon=np.inf),
               dict(horizon=np.nan), dict(rho_sep=np.nan), dict(rho_sep=0.0),
               dict(rho_sep=-1.0), dict(rho_sep=np.inf)):
        with pytest.raises(DomainError):
            gsqg.BurstScenario(triple=thm_cfg, t_ini_sequence=(1e-4, 5e-5, 2.5e-5), **kw)


# (field named in the message, scenario arguments with v in one entry)
NON_FINITE = [
    ("t_ini_sequence", lambda v: dict(t_ini_sequence=(v, 5e-5, 2.5e-5))),
    ("burst_site", lambda v: dict(burst_site=complex(v, 0.0))),
    ("background", lambda v: dict(background=((complex(1.0, v), 1.0),))),
    ("background", lambda v: dict(background=((1.0 + 0j, v),))),
]


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field, kwargs", NON_FINITE,
                         ids=["t_ini", "site", "position", "intensity"])
def test_scenario_rejects_non_finite_fields(thm_cfg, field, kwargs, value):
    # NaN compares False, so it used to pass the ordering and separation checks
    args = dict(t_ini_sequence=(1e-4, 5e-5, 2.5e-5), horizon=1e-3) | kwargs(value)
    with pytest.raises(DomainError, match=f"^{field}"):
        gsqg.BurstScenario(triple=thm_cfg, **args)


@pytest.mark.parametrize("flag", ["false", 0])
def test_scenario_time_reversed_must_be_a_json_boolean(scenario, flag):
    obj = json.loads(scenario.to_json())
    obj["time_reversed"] = flag
    with pytest.raises(DomainError, match="time_reversed must be a JSON boolean"):
        gsqg.BurstScenario.from_json(json.dumps(obj))


def test_merged_intensity_bookkeeping(scenario):
    assert scenario.merged_intensity == float(np.sum(scenario.triple.xi))


# ---------------------------------------------------------------- runs

def test_run_exponent_pure_triple(lone_scenario):
    _, diag = gsqg.run_burst(lone_scenario, 1e-4, CFG)
    assert diag.exponent_fit == pytest.approx(1.0 / 3.0, abs=1e-3)


def test_run_exponent_with_background(scenario):
    _, diag = gsqg.run_burst(scenario, 1e-4, CFG)
    assert diag.exponent_fit == pytest.approx(1.0 / 3.0, abs=5e-3)
    assert diag.background_drift <= 1e-2


def test_background_separation_preserved(scenario):
    traj, _ = gsqg.run_burst(scenario, 1e-4, CFG)
    bg0 = np.array([p for p, _ in scenario.background])
    drift = np.max(np.abs(traj.positions[:, 3:] - bg0[None, :]))
    assert drift <= scenario.rho_sep / 2


def test_time_reversed_run_contracts(scenario):
    rev = gsqg.collapse_scenario(scenario)
    traj, _ = gsqg.run_burst(rev, 1e-5, CFG)
    z = traj.positions[:, :3]
    spread = np.max(np.abs(z[:, [0, 0, 1]] - z[:, [1, 2, 2]]), axis=1)
    # |Z| ~ |t|^(1/3): contraction over [1e-3, 1e-5] is 10^(-2/3) = 0.215
    assert spread[-1] < 0.25 * spread[0]
    assert traj.times[0] == pytest.approx(-scenario.horizon)


def test_determinism_identical_runs(scenario):
    t1, _ = gsqg.run_burst(scenario, 5e-5, CFG)
    t2, _ = gsqg.run_burst(scenario, 5e-5, CFG)
    assert np.array_equal(t1.positions, t2.positions)
    assert np.array_equal(t1.times, t2.times)


# ---------------------------------------------------------------- convergence

def test_cauchy_gaps_pure_triple(lone_scenario):
    # every seeded run lies on the same exact self-similar orbit, so the
    # gaps sit at integrator-noise level outright
    diag = gsqg.convergence_study(lone_scenario, CFG)
    gaps = diag.cauchy_gaps
    assert len(gaps) == 2
    assert all(g <= 1e-10 for g in gaps)


def test_cauchy_gaps_with_background(scenario):
    diag = gsqg.convergence_study(scenario, CFG)
    gaps = diag.cauchy_gaps
    assert len(gaps) == 3
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))


# ---------------------------------------------------------------- reversal

def test_collapse_scenario_involution(scenario):
    back = gsqg.collapse_scenario(gsqg.collapse_scenario(scenario))
    assert np.array_equal(back.triple.xi, scenario.triple.xi)
    assert np.allclose(back.triple.a, scenario.triple.a, atol=1e-15)
    assert back.time_reversed == scenario.time_reversed
    assert back.background == scenario.background


def test_collapse_scenario_flips_classification(scenario):
    rev = gsqg.collapse_scenario(scenario)
    assert gsqg.classify(scenario.triple) is Classification.BURST
    assert gsqg.classify(rev.triple) is Classification.COLLAPSE


def test_mirror_time_trajectories_lone(lone_scenario):
    # without background the reversed scenario's exact seeding matches the
    # burst run mirrored in time
    fwd, _ = gsqg.run_burst(lone_scenario, 1e-4, CFG)
    rev, _ = gsqg.run_burst(gsqg.collapse_scenario(lone_scenario), 1e-4, CFG)
    for t in np.geomspace(1.2e-4, 0.9e-3, 9):
        assert np.max(np.abs(fwd.eval(float(t)) - rev.eval(float(-t)))) <= 1e-8


def test_mirror_time_trajectories_handoff(scenario):
    # with background the mirror of the integrated end state retraces the
    # whole run under negated intensities
    fwd, _ = gsqg.run_burst(scenario, 1e-4, CFG)
    end = fwd.final_state()
    handoff = gsqg.VortexState(t=-end.t, z=end.z, xi=-end.xi, alpha=end.alpha)
    rev = gsqg.integrate(handoff, -1e-4, CFG)
    for t in np.geomspace(1.2e-4, 0.9e-3, 9):
        assert np.max(np.abs(fwd.eval(float(t)) - rev.eval(float(-t)))) <= 1e-8


# ---------------------------------------------------------------- io

def test_scenario_json_roundtrip(scenario):
    text = scenario.to_json()
    back = gsqg.BurstScenario.from_json(text)
    assert np.allclose(back.triple.a, scenario.triple.a)
    assert back.t_ini_sequence == scenario.t_ini_sequence
    assert back.horizon == scenario.horizon
    assert back.background == scenario.background
    obj = json.loads(text)
    assert set(obj) >= {"triple", "background", "t_ini", "horizon"}
