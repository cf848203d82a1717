from itertools import count
from types import SimpleNamespace

import numpy as np
import pytest

import gsqg
from gsqg.integrator import Status, Trajectory, _dense, _initial_step

from conftest import lattice_state, random_state


def pair_state(alpha=1.0):
    return gsqg.VortexState(t=0.0, z=np.array([0.5, -0.5], dtype=complex),
                            xi=np.array([1.0, 1.0]), alpha=alpha)


def pair_exact(t):
    # equal unit vortices at radius 1/2 rotate with angular velocity 1/pi
    return 0.5 * np.exp(1j * t / np.pi) * np.array([1.0, -1.0])


PERIOD = 2 * np.pi**2


# ---------------------------------------------------------------- accuracy

def test_two_vortex_period_return():
    traj = gsqg.integrate(pair_state(), PERIOD,
                          gsqg.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13))
    assert traj.status is Status.COMPLETED
    assert np.max(np.abs(traj.positions[-1] - pair_state().z)) <= 1e-7


def test_two_vortex_exact_solution_midway():
    traj = gsqg.integrate(pair_state(), PERIOD / 3,
                          gsqg.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-14))
    assert np.max(np.abs(traj.final_state().z - pair_exact(PERIOD / 3))) <= 1e-9


def test_selfsimilar_trajectory_fidelity(thm_centered, thm_motion):
    t0 = gsqg.reference_time(thm_motion)
    st = gsqg.VortexState(t=t0, z=thm_centered.a * gsqg.zeta(thm_motion, t0),
                          xi=thm_centered.xi, alpha=1.0)
    traj = gsqg.integrate(st, 10 * t0, gsqg.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-14))
    worst = 0.0
    for t, z in zip(traj.times, traj.positions):
        exact = thm_centered.a * gsqg.zeta(thm_motion, t)
        worst = max(worst, np.max(np.abs(z - exact)) / np.max(np.abs(exact)))
    assert worst <= 1e-6


def test_convergence_order_at_least_three():
    # error against the exact rotation vs. mean accepted step size
    errs, hs = [], []
    for tol in (1e-5, 1e-7, 1e-9):
        traj = gsqg.integrate(pair_state(), PERIOD / 5,
                              gsqg.IntegratorConfig(rel_tol=tol, abs_tol=tol * 1e-3))
        errs.append(np.max(np.abs(traj.final_state().z - pair_exact(PERIOD / 5))))
        hs.append((PERIOD / 5) / (len(traj.times) - 1))
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert order >= 3.0


def test_dense_output_matches_exact():
    traj = gsqg.integrate(pair_state(), 3.0,
                          gsqg.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13))
    for t in np.linspace(0.05, 2.95, 17):
        assert np.max(np.abs(traj.eval(t) - pair_exact(t))) <= 1e-8


# ---------------------------------------------------------------- reversibility

def test_forward_backward_roundtrip():
    fwd = gsqg.integrate(pair_state(), 4.0,
                         gsqg.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13))
    one_way_err = np.max(np.abs(fwd.final_state().z - pair_exact(4.0)))
    back = gsqg.integrate(fwd.final_state(), 0.0,
                          gsqg.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13))
    roundtrip = np.max(np.abs(back.final_state().z - pair_state().z))
    assert roundtrip <= 10 * max(one_way_err, 1e-12)


def test_backward_time_three_vortices():
    st = random_state(17, 3, 1.5)
    fwd = gsqg.integrate(st, 0.8, gsqg.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-14))
    back = gsqg.integrate(fwd.final_state(), 0.0,
                          gsqg.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-14))
    assert np.all(np.diff(back.times) < 0)
    assert np.max(np.abs(back.final_state().z - st.z)) <= 1e-8


# ---------------------------------------------------------------- conservation

@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.5])
@pytest.mark.parametrize("n", [3, 4])
def test_conserved_drift(alpha, n):
    st = random_state(int(100 * alpha + n), n, alpha)
    c0 = gsqg.conserved(st)
    traj = gsqg.integrate(st, 1.0, gsqg.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13))
    assert traj.status is Status.COMPLETED
    c1 = gsqg.conserved(traj.final_state())
    scale_H = max(abs(c0.H), 1.0)
    scale_L = max(abs(c0.Lmom), 1.0)
    assert abs(c1.H - c0.H) / scale_H <= 1e-8
    assert abs(c1.Lmom - c0.Lmom) / scale_L <= 1e-8
    assert abs(c1.C - c0.C) <= 1e-8


# ---------------------------------------------------------------- collapse

def test_collapse_time_extrapolation(thm_centered, thm_motion):
    # time-inverted burst: exact collapse at t = 0
    t0 = gsqg.reference_time(thm_motion)
    st = gsqg.VortexState(t=-t0, z=thm_centered.a, xi=-thm_centered.xi, alpha=1.0)
    traj = gsqg.integrate(st, 1.0, gsqg.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-14))
    assert traj.status is Status.COLLAPSE_DETECTED
    t_star, _ = gsqg.collapse_time_fit(traj)
    assert abs(t_star - 0.0) <= 1e-4 * t0


def test_collapse_exponent(thm_centered, thm_motion):
    t0 = gsqg.reference_time(thm_motion)
    st = gsqg.VortexState(t=-t0, z=thm_centered.a, xi=-thm_centered.xi, alpha=1.0)
    traj = gsqg.integrate(st, 1.0, gsqg.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-14))
    _, expo = gsqg.collapse_time_fit(traj)
    assert expo == pytest.approx(1.0 / (4.0 - 1.0), abs=1e-3)


def test_collapse_final_sample_sits_at_guard_radius(thm_centered, thm_motion, monkeypatch):
    # the reported event state is the dense-output crossing of the guard,
    # not the overshooting step endpoint
    t0 = gsqg.reference_time(thm_motion)
    st = gsqg.VortexState(t=-t0, z=thm_centered.a, xi=-thm_centered.xi, alpha=1.0)
    monkeypatch.setattr(gsqg.integrator, "GUARD_FRACTION", 1e-4)
    dmin = 1e-4 * st.min_distance()
    traj = gsqg.integrate(st, 0.5, gsqg.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13))
    assert traj.status is Status.COLLAPSE_DETECTED
    assert traj.min_distances()[-1] == pytest.approx(dmin, rel=1e-6)
    assert traj.times[-1] == traj.t_event


def test_collapse_fit_at_loose_tolerance(thm_centered, thm_motion):
    # at rel_tol 1e-8 the first linear fit puts t* before the last samples
    t0 = gsqg.reference_time(thm_motion)
    st = gsqg.VortexState(t=-t0, z=thm_centered.a, xi=-thm_centered.xi, alpha=1.0)
    traj = gsqg.integrate(st, 1.0, gsqg.IntegratorConfig(rel_tol=1e-8, abs_tol=1e-11))
    assert traj.status is Status.COLLAPSE_DETECTED
    t_star, expo = gsqg.collapse_time_fit(traj)
    assert t_star < traj.times[-1]
    assert abs(t_star - 0.0) <= 1e-4 * t0
    assert np.isfinite(expo)


def test_collapse_fit_needs_four_samples_before_t_star():
    # only the last three samples are usable and the fitted t* is not
    # preceded by enough of them
    d = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 2.0, 1.0]) ** (1.0 / 3.0)
    traj = SimpleNamespace(times=np.arange(8.0), alpha=1.0, min_distances=lambda: d)
    with pytest.raises(ValueError, match="too few to fit"):
        gsqg.collapse_time_fit(traj)


def test_relative_equilibrium_never_collapses():
    w = np.exp(2j * np.pi * np.arange(3) / 3)
    st = gsqg.VortexState(t=0.0, z=w, xi=np.array([1.0, 1.0, 1.0]), alpha=1.5)
    traj = gsqg.integrate(st, 2.0, gsqg.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12))
    assert traj.status is Status.COMPLETED


def test_step_budget_failure(monkeypatch):
    monkeypatch.setattr(gsqg.integrator, "MAX_STEPS", 3)
    traj = gsqg.integrate(pair_state(), PERIOD,
                          gsqg.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13))
    assert traj.status is Status.STEP_FAILURE
    assert traj.t_event is not None


def test_tiny_tolerance_fails_with_finite_times(thm_centered):
    # at 1e-300 the initial-step norms overflow; the run must end in a
    # step failure, not "complete" at t = nan
    st = gsqg.VortexState(t=0.0, z=thm_centered.a, xi=-thm_centered.xi, alpha=1.0)
    cfg = gsqg.IntegratorConfig(rel_tol=1e-300, abs_tol=1e-303)
    assert _initial_step(gsqg.rhs(st), st.z, 3.0, cfg) == 1e-6
    traj = gsqg.integrate(st, 3.0, cfg)
    assert traj.status is Status.STEP_FAILURE
    assert np.isfinite(traj.times).all() and np.isfinite(traj.t_event)


def test_nan_error_norm_rejects_the_step(monkeypatch):
    monkeypatch.setattr(gsqg.integrator, "_error_norm", lambda *args: float("nan"))
    traj = gsqg.integrate(pair_state(), 1.0)
    assert traj.status is Status.STEP_FAILURE
    assert len(traj.times) == 1


def test_rejected_steps_mid_run_restart_from_the_step_start(monkeypatch):
    # a rejected attempt overwrites the stage buffer; the retry and the
    # attempt after two rejections in a row must start from f(z) again
    norm, calls = gsqg.integrator._error_norm, count(1)

    def rejecting(*args):
        return 2.0 if next(calls) in (10, 20, 21) else norm(*args)

    monkeypatch.setattr(gsqg.integrator, "_error_norm", rejecting)
    traj = gsqg.integrate(pair_state(), PERIOD / 3,
                          gsqg.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-14))
    assert next(calls) > 22
    assert np.max(np.abs(traj.final_state().z - pair_exact(PERIOD / 3))) <= 1e-11


def test_singular_retry_mid_run_restarts_from_the_step_start(monkeypatch):
    # a stage inside the guard aborts the attempt after it wrote stages 2-3
    make, calls = gsqg.integrator.make_rhs, count(1)

    def make_once_singular(*args):
        f = make(*args)

        def g(z):
            if next(calls) == 40:
                raise gsqg.SingularityError("forced")
            return f(z)
        return g

    monkeypatch.setattr(gsqg.integrator, "make_rhs", make_once_singular)
    traj = gsqg.integrate(pair_state(), PERIOD / 3,
                          gsqg.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-14))
    assert next(calls) > 41
    assert np.max(np.abs(traj.final_state().z - pair_exact(PERIOD / 3))) <= 1e-11


# ---------------------------------------------------------------- bookkeeping

def test_times_strictly_monotone():
    traj = gsqg.integrate(pair_state(), 2.0, gsqg.IntegratorConfig(rel_tol=1e-8,
                                                                   abs_tol=1e-11))
    assert np.all(np.diff(traj.times) > 0)


def test_csv_header_and_precision():
    traj = gsqg.integrate(pair_state(), 0.5, gsqg.IntegratorConfig(rel_tol=1e-8,
                                                                   abs_tol=1e-11))
    lines = traj.to_csv().splitlines()
    assert lines[0] == "t,re_z1,im_z1,re_z2,im_z2,H,L,C_re,C_im"
    first = lines[1].split(",")
    assert len(first) == 9
    assert float(first[1]) == 0.5   # 17 significant digits round-trip
    assert abs(float(lines[-1].split(",")[5]) - gsqg.conserved(pair_state()).H) <= 1e-9


@pytest.mark.parametrize("make_state,t1", [
    (lambda: random_state(5, 3, 1.5), 0.3),
    (lambda: lattice_state(99, 1.0), 0.05),
])
def test_csv_conserved_columns_are_exact(make_state, t1):
    st = make_state()
    traj = gsqg.integrate(st, t1, gsqg.IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9))
    rows = traj.to_csv().splitlines()[1:]
    assert len(rows) == len(traj.times) > 2
    for row, t, z in zip(rows, traj.times, traj.positions):
        c = gsqg.conserved(gsqg.VortexState(t=float(t), z=z, xi=st.xi, alpha=st.alpha))
        assert [float(v) for v in row.split(",")[-4:]] == [c.H, c.Lmom, c.C.real,
                                                           c.C.imag]


def _scan_index(traj, t):
    """The step a linear scan picks: the first one covering t."""
    for k, (t0, h) in enumerate(zip(traj.times, traj.h)):
        if -1e-12 <= (t - t0) / h <= 1.0 + 1e-12:
            return k
    return len(traj.segments) - 1


def _probe_times(traj):
    """Step boundaries, a few ulps either side of them, interior points and
    the span ends pushed out to the edge of the tolerance."""
    ts = list(traj.times)
    ts += [np.nextafter(t, np.inf) for t in traj.times]
    ts += [np.nextafter(t, -np.inf) for t in traj.times]
    ts += list(0.5 * (traj.times[1:] + traj.times[:-1]))
    ts += list(traj.times[:-1] + 1e-3 * np.diff(traj.times))
    lo, hi = sorted((traj.times[0], traj.times[-1]))
    ts += [lo - 5e-13, hi + 5e-13]
    return ts


def _run(kind, thm_centered, thm_motion, monkeypatch):
    """A forward run, a backward run and a run stopped at the collapse guard."""
    if kind == "forward":
        traj = gsqg.integrate(random_state(17, 3, 1.5), 0.8,
                              gsqg.IntegratorConfig(rel_tol=1e-8, abs_tol=1e-11))
    elif kind == "backward":
        st = random_state(17, 3, 1.5)
        traj = gsqg.integrate(gsqg.VortexState(t=0.8, z=st.z, xi=st.xi, alpha=st.alpha),
                              0.0, gsqg.IntegratorConfig(rel_tol=1e-8, abs_tol=1e-11))
        assert np.all(np.diff(traj.times) < 0)
    else:
        t0 = gsqg.reference_time(thm_motion)
        st = gsqg.VortexState(t=-t0, z=thm_centered.a, xi=-thm_centered.xi, alpha=1.0)
        monkeypatch.setattr(gsqg.integrator, "GUARD_FRACTION", 1e-4)
        traj = gsqg.integrate(st, 0.5, gsqg.IntegratorConfig(rel_tol=1e-8, abs_tol=1e-11))
        assert traj.status is Status.COLLAPSE_DETECTED
    assert len(traj.times) == len(traj.h) + 1 == len(traj.segments) + 1
    return traj


@pytest.mark.parametrize("run", ["forward", "backward", "collapse"])
def test_eval_picks_the_step_a_scan_picks(run, thm_centered, thm_motion, monkeypatch):
    traj = _run(run, thm_centered, thm_motion, monkeypatch)
    # the same step layout with each step's interpolant replaced by its index
    marked = Trajectory(
        times=traj.times, positions=traj.positions, xi=traj.xi, alpha=traj.alpha,
        status=traj.status, h=traj.h,
        segments=[np.array([[k], [0], [0], [0], [0]], dtype=complex)
                  for k in range(len(traj.segments))])
    for t in _probe_times(traj):
        k = _scan_index(traj, t)
        assert marked.eval(t)[0] == k
        assert np.array_equal(traj.eval(t),
                              _dense(traj.segments[k], (t - traj.times[k]) / traj.h[k]))


@pytest.mark.parametrize("run", ["forward", "backward", "collapse"])
def test_eval_at_step_ends_returns_the_samples(run, thm_centered, thm_motion, monkeypatch):
    # times[k] ends step k - 1, whose interpolant reaches positions[k]; on a
    # collapse run the last sample is the guard crossing inside the last step.
    # t + h is rounded to the ulps of t, so (times[k] - times[k-1]) / h is 1
    # only to about ulp(t) / h (7e-13 in the last collapse steps, where the
    # positions shrink 1e4-fold): the error is measured on the run's scale.
    traj = _run(run, thm_centered, thm_motion, monkeypatch)
    scale = np.max(np.abs(traj.positions))
    for t, z in zip(traj.times[1:], traj.positions[1:]):
        assert np.max(np.abs(traj.eval(t) - z)) <= 1e-14 * scale


@pytest.mark.parametrize("t1", [np.nan, np.inf, -np.inf])
def test_non_finite_end_time_rejected(t1):
    with pytest.raises(ValueError):
        gsqg.integrate(pair_state(), t1)


def test_config_validation():
    with pytest.raises(ValueError):
        gsqg.IntegratorConfig(rel_tol=0.5)
    with pytest.raises(ValueError):
        gsqg.integrate(pair_state(), 0.0)

