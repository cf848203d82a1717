import json
import weakref

import numpy as np
import pytest

import gsqg
from gsqg.kernel import DomainError
from gsqg.selfsimilar import Classification

from oracles import cauchy_gaps_all_at_once


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


@pytest.fixture(scope="module")
def crowd_scenario(thm_cfg):
    # 17 vortices, 136 pairs: a lockstep batch holds one run
    return gsqg.BurstScenario(
        triple=thm_cfg,
        background=tuple((2.0 + 0.8 * k + 0.3j * (k % 2), 0.5 - (k % 3) * 0.4)
                         for k in range(14)),
        t_ini_sequence=(1e-4, 5e-5, 2.5e-5), horizon=1e-3,
    )


CFG = gsqg.IntegratorConfig(rel_tol=1e-10)


def fresh_runs(s):
    """The study's runs, integrated in one `integrate_batch` call."""
    return gsqg.integrate_batch([gsqg.make_burst_initial(s, t_ini) for t_ini in s.t_ini_sequence],
                                s.horizon, CFG)


# ---------------------------------------------------------------- construction

def test_initial_state_limits(scenario):
    tiny = gsqg.make_burst_initial(scenario, 1e-10)
    assert np.max(np.abs(tiny.z[:3])) <= 1e-3      # the triple sits at the origin


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
    ("background", lambda v: dict(background=((complex(1.0, v), 1.0),))),
    ("background", lambda v: dict(background=((1.0 + 0j, v),))),
]


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field, kwargs", NON_FINITE,
                         ids=["t_ini", "position", "intensity"])
def test_scenario_rejects_non_finite_fields(thm_cfg, field, kwargs, value):
    # NaN compares False, so it used to pass the ordering and separation checks
    args = dict(t_ini_sequence=(1e-4, 5e-5, 2.5e-5), horizon=1e-3) | kwargs(value)
    with pytest.raises(DomainError, match=f"^{field}"):
        gsqg.BurstScenario(triple=thm_cfg, **args)


def test_scenario_refuses_a_relative_equilibrium():
    # equal intensities on an equilateral triangle rotate rigidly: a = 0
    eq = gsqg.TripleConfig(a=np.exp(2j * np.pi * np.arange(3) / 3), xi=np.ones(3), alpha=1.0)
    with pytest.raises(DomainError, match="relative equilibrium"):
        gsqg.BurstScenario(triple=eq, t_ini_sequence=(1e-4, 5e-5, 2.5e-5))


def test_scenario_refuses_nan_rates(nan_triple):
    # NaN rates are not self-similar, so no branch seeds or integrates them
    with np.errstate(all="ignore"), pytest.raises(
            DomainError, match=r"^configuration not self-similar \(residual nan\)$"):
        gsqg.BurstScenario(triple=nan_triple, t_ini_sequence=(1e-4, 5e-5, 2.5e-5))


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


def test_cauchy_study_evaluates_each_run_once(scenario, monkeypatch):
    # each run forms each of its grid values once, as it steps, and eval is never called
    grid = np.geomspace(scenario.t_ini_sequence[0], scenario.horizon,
                        gsqg.burstsim.CAUCHY_GRID)
    given, values = [], []
    real_batch, real_dense = gsqg.burstsim.integrate_batch, gsqg.integrator._dense
    monkeypatch.setattr(gsqg.burstsim, "integrate_batch",
                        lambda states, *args: given.extend([args[2]] * len(states))
                        or real_batch(states, *args))
    monkeypatch.setattr(gsqg.integrator, "_dense",
                        lambda r, s: values.append(np.shape(s)) or real_dense(r, s))
    monkeypatch.setattr(gsqg.Trajectory, "eval", None)
    diag = gsqg.convergence_study(scenario, CFG)
    assert len(given) == len(scenario.t_ini_sequence)
    assert all(at.tobytes() == grid.tobytes() for at in given)
    assert values == [()] * (len(scenario.t_ini_sequence) * gsqg.burstsim.CAUCHY_GRID)
    monkeypatch.undo()
    # the gaps with every run's grid values alive at once, and those of
    # evaluating both runs of a pair at every grid time, from fresh runs: the
    # study's runs carry no dense output
    runs = fresh_runs(scenario)
    two_eval = tuple(max(float(np.max(np.abs(a.eval(t) - b.eval(t)))) for t in grid.tolist())
                     for a, b in zip(runs, runs[1:]))
    for want in (cauchy_gaps_all_at_once(runs, grid), two_eval):
        assert np.array(diag.cauchy_gaps).view(np.uint64).tolist() == \
            np.array(want).view(np.uint64).tolist()


def test_cauchy_study_holds_two_runs_grid_values_at_once(crowd_scenario, monkeypatch):
    # one run per batch: when a batch begins, only the previous run's grid
    # values live, so at most two runs' values do while it steps
    refs, alive = [], []
    real_batch = gsqg.burstsim.integrate_batch

    def tracked(states, *args):
        alive.append(sum(r() is not None for r in refs))
        runs = real_batch(states, *args)
        refs.extend(weakref.ref(traj.values) for traj in runs)
        return runs

    monkeypatch.setattr(gsqg.burstsim, "integrate_batch", tracked)
    diag = gsqg.convergence_study(crowd_scenario, CFG)
    assert alive == [0, 1, 1] and len(refs) == 3
    assert not any(r() is not None for r in refs)
    assert all(traj.values is None for traj in diag.runs)


def test_cauchy_study_failure_names_the_first_failing_t_ini(scenario, monkeypatch):
    # on a step budget between the attempts of the second and the third run,
    # the third and the fourth fail; the error names the third, as a loop
    # over the runs in t_ini order would
    runs = gsqg.convergence_study(scenario, CFG).runs
    attempts = [len(r.h) + r.rejected + r.singular for r in runs]
    assert attempts == sorted(set(attempts))
    monkeypatch.setattr(gsqg.integrator, "MAX_STEPS", (attempts[1] + attempts[2]) // 2)
    with pytest.raises(RuntimeError, match=r"^integration failed at t=\S+ "
                                           r"\(t_ini=2\.5e-05\)$"):
        gsqg.convergence_study(scenario, CFG)


def test_cauchy_study_stores_no_segment(crowd_scenario, monkeypatch):
    # one run per batch; every step a run keeps is its start row alone, (n,),
    # never the (5, n) dense output, and the runs come back without segments
    sizes, kept = [], []
    real_batch, real_run = gsqg.burstsim.integrate_batch, gsqg.integrator._Run

    class Kept(real_run):
        def __init__(self, *args):
            super().__init__(*args)
            kept.append(self)

    monkeypatch.setattr(gsqg.integrator, "_Run", Kept)
    monkeypatch.setattr(gsqg.burstsim, "integrate_batch",
                        lambda states, *args: sizes.append(len(states)) or real_batch(states, *args))
    diag = gsqg.convergence_study(crowd_scenario, CFG)
    assert sizes == [1, 1, 1] and len(kept) == 3
    assert sum(len(r.segments) for r in kept) > 300
    assert all(seg.shape == (17,) for r in kept for seg in r.segments)
    assert all(traj.segments == [] for traj in diag.runs)
    with pytest.raises(ValueError, match="^trajectory carries no dense output$"):
        diag.runs[0].eval(crowd_scenario.horizon)


def test_cauchy_study_in_batches_keeps_the_bits_of_one_batch(crowd_scenario):
    diag = gsqg.convergence_study(crowd_scenario, CFG)
    runs = fresh_runs(crowd_scenario)
    for got, want in zip(diag.runs, runs):
        for field in ("times", "positions", "h"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
        assert (got.status, got.rejected, got.singular) == \
            (want.status, want.rejected, want.singular)
    grid = np.geomspace(crowd_scenario.t_ini_sequence[0], crowd_scenario.horizon,
                        gsqg.burstsim.CAUCHY_GRID)
    assert np.array(diag.cauchy_gaps).tobytes() == \
        np.array(cauchy_gaps_all_at_once(runs, grid)).tobytes()


def test_cauchy_study_failure_integrates_no_later_batch(crowd_scenario, monkeypatch):
    # a step budget between the attempts of the first and the second run:
    # the second fails and the third, in a batch of its own, never steps
    runs = gsqg.convergence_study(crowd_scenario, CFG).runs
    attempts = [len(r.h) + r.rejected + r.singular for r in runs]
    assert attempts == sorted(set(attempts))
    monkeypatch.setattr(gsqg.integrator, "MAX_STEPS", (attempts[0] + attempts[1]) // 2)
    calls, real_batch = [], gsqg.burstsim.integrate_batch

    def counted(states, *args):
        calls.append(len(states))
        return real_batch(states, *args)

    monkeypatch.setattr(gsqg.burstsim, "integrate_batch", counted)
    with pytest.raises(RuntimeError, match=r"^integration failed at t=\S+ "
                                           r"\(t_ini=5e-05\)$"):
        gsqg.convergence_study(crowd_scenario, CFG)
    assert calls == [1, 1]


# ---------------------------------------------------------------- reversal

def test_collapse_scenario_involution(scenario):
    back = gsqg.collapse_scenario(gsqg.collapse_scenario(scenario))
    assert np.array_equal(back.triple.xi, scenario.triple.xi)
    assert np.allclose(back.triple.a, scenario.triple.a, atol=1e-15)
    assert back.motion.a_rate == pytest.approx(scenario.motion.a_rate, rel=1e-12)
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
    # the triple sits at the origin: there is no site to write
    assert set(json.loads(text)) == {"triple", "background", "t_ini", "horizon", "rho_sep"}
    with pytest.raises(TypeError):
        gsqg.BurstScenario(triple=scenario.triple, burst_site=1.0 + 0j)
