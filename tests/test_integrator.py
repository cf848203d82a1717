import dataclasses
import gc
import tracemalloc
from itertools import count
from types import SimpleNamespace

import numpy as np
import pytest

import gsqg
from gsqg.integrator import Status, Trajectory, _dense, _initial_step
from gsqg.kernel import min_pair_distance

from conftest import THM_X, lattice_state, random_state
from oracles import csv_per_value


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
                          gsqg.IntegratorConfig(rel_tol=1e-10))
    assert traj.status is Status.COMPLETED
    assert np.max(np.abs(traj.positions[-1] - pair_state().z)) <= 1e-7


def test_two_vortex_exact_solution_midway():
    traj = gsqg.integrate(pair_state(), PERIOD / 3,
                          gsqg.IntegratorConfig(rel_tol=1e-11))
    assert np.max(np.abs(traj.final_state().z - pair_exact(PERIOD / 3))) <= 1e-9


def test_selfsimilar_trajectory_fidelity(thm_centered, thm_motion):
    t0 = gsqg.reference_time(thm_motion)
    st = gsqg.VortexState(t=t0, z=thm_centered.a * gsqg.zeta(thm_motion, t0),
                          xi=thm_centered.xi, alpha=1.0)
    traj = gsqg.integrate(st, 10 * t0, gsqg.IntegratorConfig(rel_tol=1e-11))
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
                              gsqg.IntegratorConfig(rel_tol=tol))
        errs.append(np.max(np.abs(traj.final_state().z - pair_exact(PERIOD / 5))))
        hs.append((PERIOD / 5) / (len(traj.times) - 1))
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert order >= 3.0


def test_dense_output_matches_exact():
    traj = gsqg.integrate(pair_state(), 3.0,
                          gsqg.IntegratorConfig(rel_tol=1e-10))
    for t in np.linspace(0.05, 2.95, 17):
        assert np.max(np.abs(traj.eval(t) - pair_exact(t))) <= 1e-8


# ---------------------------------------------------------------- reversibility

def test_forward_backward_roundtrip():
    fwd = gsqg.integrate(pair_state(), 4.0,
                         gsqg.IntegratorConfig(rel_tol=1e-10))
    one_way_err = np.max(np.abs(fwd.final_state().z - pair_exact(4.0)))
    back = gsqg.integrate(fwd.final_state(), 0.0,
                          gsqg.IntegratorConfig(rel_tol=1e-10))
    roundtrip = np.max(np.abs(back.final_state().z - pair_state().z))
    assert roundtrip <= 10 * max(one_way_err, 1e-12)


def test_backward_time_three_vortices():
    st = random_state(17, 3, 1.5)
    fwd = gsqg.integrate(st, 0.8, gsqg.IntegratorConfig(rel_tol=1e-11))
    back = gsqg.integrate(fwd.final_state(), 0.0,
                          gsqg.IntegratorConfig(rel_tol=1e-11))
    assert np.all(np.diff(back.times) < 0)
    assert np.max(np.abs(back.final_state().z - st.z)) <= 1e-8


# ---------------------------------------------------------------- conservation

@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.5])
@pytest.mark.parametrize("n", [3, 4])
def test_conserved_drift(alpha, n):
    st = random_state(int(100 * alpha + n), n, alpha)
    c0 = gsqg.conserved(st)
    traj = gsqg.integrate(st, 1.0, gsqg.IntegratorConfig(rel_tol=1e-10))
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
    traj = gsqg.integrate(st, 1.0, gsqg.IntegratorConfig(rel_tol=1e-11))
    assert traj.status is Status.COLLAPSE_DETECTED
    t_star, _ = gsqg.collapse_time_fit(traj)
    assert abs(t_star - 0.0) <= 1e-4 * t0


def test_collapse_exponent(thm_centered, thm_motion):
    t0 = gsqg.reference_time(thm_motion)
    st = gsqg.VortexState(t=-t0, z=thm_centered.a, xi=-thm_centered.xi, alpha=1.0)
    traj = gsqg.integrate(st, 1.0, gsqg.IntegratorConfig(rel_tol=1e-11))
    _, expo = gsqg.collapse_time_fit(traj)
    assert expo == pytest.approx(1.0 / (4.0 - 1.0), abs=1e-3)


def test_collapse_final_sample_sits_at_guard_radius(thm_centered, thm_motion, monkeypatch):
    # the reported event state is the dense-output crossing of the guard,
    # not the overshooting step endpoint
    t0 = gsqg.reference_time(thm_motion)
    st = gsqg.VortexState(t=-t0, z=thm_centered.a, xi=-thm_centered.xi, alpha=1.0)
    monkeypatch.setattr(gsqg.integrator, "GUARD_FRACTION", 1e-4)
    dmin = 1e-4 * st.min_distance()
    traj = gsqg.integrate(st, 0.5, gsqg.IntegratorConfig(rel_tol=1e-10))
    assert traj.status is Status.COLLAPSE_DETECTED
    assert min_pair_distance(traj.positions)[-1] == pytest.approx(dmin, rel=1e-6)


def test_collapse_fit_at_loose_tolerance(thm_centered, thm_motion):
    # at rel_tol 1e-8 the first linear fit puts t* before the last samples
    t0 = gsqg.reference_time(thm_motion)
    st = gsqg.VortexState(t=-t0, z=thm_centered.a, xi=-thm_centered.xi, alpha=1.0)
    traj = gsqg.integrate(st, 1.0, gsqg.IntegratorConfig(rel_tol=1e-8))
    assert traj.status is Status.COLLAPSE_DETECTED
    t_star, expo = gsqg.collapse_time_fit(traj)
    assert t_star < traj.times[-1]
    assert abs(t_star - 0.0) <= 1e-4 * t0
    assert np.isfinite(expo)


def test_collapse_fit_needs_four_samples_before_t_star():
    # only the last three samples are usable and the fitted t* is not
    # preceded by enough of them
    d = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 2.0, 1.0]) ** (1.0 / 3.0)
    # two vortices, one at the origin: the pair distance is d
    traj = SimpleNamespace(times=np.arange(8.0), alpha=1.0,
                           positions=np.stack([np.zeros(8), d], axis=1).astype(complex))
    with pytest.raises(ValueError, match="too few to fit"):
        gsqg.collapse_time_fit(traj)


def _pair_trajectory(d):
    """Two vortices, one at the origin, whose pair distance runs through d
    at the times 0, 1, 2, ..."""
    d = np.asarray(d, dtype=float)
    return SimpleNamespace(times=np.arange(float(len(d))), alpha=1.0,
                           positions=np.stack([np.zeros(len(d)), d], axis=1).astype(complex))


def test_collapse_fit_refuses_too_few_samples():
    with pytest.raises(ValueError, match="too few samples to fit a collapse law"):
        gsqg.collapse_time_fit(_pair_trajectory(np.linspace(1.0, 0.1, 7)))


def test_collapse_fit_refuses_growing_distances():
    with pytest.raises(ValueError, match="distances not shrinking"):
        gsqg.collapse_time_fit(_pair_trajectory(np.linspace(0.1, 1.0, 12)))


def test_relative_equilibrium_never_collapses():
    w = np.exp(2j * np.pi * np.arange(3) / 3)
    st = gsqg.VortexState(t=0.0, z=w, xi=np.array([1.0, 1.0, 1.0]), alpha=1.5)
    traj = gsqg.integrate(st, 2.0, gsqg.IntegratorConfig(rel_tol=1e-9))
    assert traj.status is Status.COMPLETED


@pytest.mark.parametrize("t1", [1.0, -1.0])
def test_zero_error_norm_takes_the_largest_growth(t1):
    # a lone vortex does not move, so every step's error norm is exactly 0;
    # the controller's limit as err -> 0+ grows each step tenfold
    st = gsqg.VortexState(t=0.0, z=[0.3 + 0.1j], xi=[1.0], alpha=1.0)
    traj = gsqg.integrate(st, t1)
    assert traj.status is Status.COMPLETED and traj.times[-1] == t1
    assert np.array_equal(traj.positions, np.full((len(traj.times), 1), 0.3 + 0.1j))
    assert len(traj.h) > 2 and np.array_equal(traj.h[1:-1], traj.h[:-2] * 10.0)


def test_step_budget_failure(monkeypatch):
    monkeypatch.setattr(gsqg.integrator, "MAX_STEPS", 3)
    traj = gsqg.integrate(pair_state(), PERIOD,
                          gsqg.IntegratorConfig(rel_tol=1e-10))
    assert traj.status is Status.STEP_FAILURE


def test_tiny_tolerance_fails_with_finite_times(thm_centered):
    # at 1e-300 the initial-step norms overflow; the run must end in a
    # step failure, not "complete" at t = nan
    st = gsqg.VortexState(t=0.0, z=thm_centered.a, xi=-thm_centered.xi, alpha=1.0)
    cfg = gsqg.IntegratorConfig(rel_tol=1e-300)
    assert _initial_step(gsqg.rhs(st), st.z, 3.0, cfg) == 1e-6
    traj = gsqg.integrate(st, 3.0, cfg)
    assert traj.status is Status.STEP_FAILURE
    assert np.isfinite(traj.times).all()


def test_nan_error_norm_rejects_the_step(monkeypatch):
    monkeypatch.setattr(gsqg.integrator, "_error_norm", lambda *args: [float("nan")])
    traj = gsqg.integrate(pair_state(), 1.0)
    assert traj.status is Status.STEP_FAILURE
    assert len(traj.times) == 1


def test_rejected_steps_mid_run_restart_from_the_step_start(monkeypatch):
    # a rejected attempt overwrites the stage buffer; the retry and the
    # attempt after two rejections in a row must start from f(z) again
    norm, calls = gsqg.integrator._error_norm, count(1)

    def rejecting(*args):
        return [2.0] if next(calls) in (10, 20, 21) else norm(*args)

    monkeypatch.setattr(gsqg.integrator, "_error_norm", rejecting)
    traj = gsqg.integrate(pair_state(), PERIOD / 3,
                          gsqg.IntegratorConfig(rel_tol=1e-11))
    assert next(calls) > 22
    assert np.max(np.abs(traj.final_state().z - pair_exact(PERIOD / 3))) <= 1e-11


def test_singular_retry_mid_run_restarts_from_the_step_start(monkeypatch):
    # a stage inside the guard aborts the attempt after it wrote stages 2-3
    make, calls = gsqg.integrator.make_rhs, count(1)

    def make_once_singular(*args):
        f = make(*args)

        def g(z):
            if next(calls) == 40:
                e = gsqg.SingularityError("forced")
                e.members = [0]
                raise e
            return f(z)
        return g

    monkeypatch.setattr(gsqg.integrator, "make_rhs", make_once_singular)
    traj = gsqg.integrate(pair_state(), PERIOD / 3,
                          gsqg.IntegratorConfig(rel_tol=1e-11))
    assert next(calls) > 41
    assert np.max(np.abs(traj.final_state().z - pair_exact(PERIOD / 3))) <= 1e-11


# ---------------------------------------------------------------- bookkeeping

def test_times_strictly_monotone():
    traj = gsqg.integrate(pair_state(), 2.0, gsqg.IntegratorConfig(rel_tol=1e-8))
    assert np.all(np.diff(traj.times) > 0)


def test_csv_header_and_precision():
    traj = gsqg.integrate(pair_state(), 0.5, gsqg.IntegratorConfig(rel_tol=1e-8))
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
    traj = gsqg.integrate(st, t1, gsqg.IntegratorConfig(rel_tol=1e-6))
    rows = traj.to_csv().splitlines()[1:]
    assert len(rows) == len(traj.times) > 2
    for row, t, z in zip(rows, traj.times, traj.positions):
        c = gsqg.conserved(gsqg.VortexState(t=float(t), z=z, xi=st.xi, alpha=st.alpha))
        assert [float(v) for v in row.split(",")[-4:]] == [c.H, c.Lmom, c.C.real,
                                                           c.C.imag]


def _collapse_state(alpha=1.0, x=THM_X):
    # time-inverted burst: exact collapse at t = 0
    cen = gsqg.center(gsqg.oriented_config(alpha, x))
    t0 = gsqg.reference_time(gsqg.motion_from_config(cen))
    return gsqg.VortexState(t=-t0, z=cen.a, xi=-cen.xi, alpha=alpha)


@pytest.mark.parametrize("alpha, x, rel_tol, rule", [
    (1.0, THM_X, 1e-10, "underflow"), (1.0, THM_X, 1e-8, "underflow"),
    (2.5, 0.7, 1e-8, "guard")])
def test_collapse_stop_rule(alpha, x, rel_tol, rule):
    # a collapse stops where the minimum distance crosses the guard radius,
    # located inside the step by bisection on the dense output, or where the
    # step size underflows once that distance has contracted below
    # max(1e3 guard, 1e-2 initial distance); the reference collapse takes
    # the second rule
    st = _collapse_state(alpha, x)
    guard = max(gsqg.integrator.GUARD_FRACTION * st.min_distance(), st.dmin())
    traj = gsqg.integrate(st, 1.0, gsqg.IntegratorConfig(rel_tol=rel_tol))
    assert traj.status is Status.COLLAPSE_DETECTED
    last = min_pair_distance(traj.positions)[-1] / guard
    if rule == "guard":
        assert last == pytest.approx(1.0, rel=1e-6)
    else:
        assert 2.0 < last < max(1e3, 1e-2 / gsqg.integrator.GUARD_FRACTION)


@pytest.mark.parametrize("kind", ["pair", "random5", "lattice99", "collapse"])
def test_csv_bytes_match_per_value_formatter(kind):
    st, t1 = {"pair": lambda: (pair_state(), 0.5),
              "random5": lambda: (random_state(5, 5, 1.5), 0.3),
              "lattice99": lambda: (lattice_state(99, 1.0), 0.05),
              "collapse": lambda: (_collapse_state(), 1.0)}[kind]()
    traj = gsqg.integrate(st, t1, gsqg.IntegratorConfig(rel_tol=1e-8))
    if kind == "collapse":
        assert traj.status is Status.COLLAPSE_DETECTED
    assert traj.to_csv() == csv_per_value(traj)


@pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0)])
def test_eval_of_no_times_is_empty(shape):
    traj = gsqg.integrate(pair_state(), 0.5, gsqg.IntegratorConfig(rel_tol=1e-8))
    z = traj.eval(np.empty(shape))
    assert z.shape == shape + (2,) and z.dtype == complex


def _scan_index(traj, t):
    """The step a linear scan picks: the first one that t does not lie past."""
    for k, (t0, h) in enumerate(zip(traj.times, traj.h)):
        if (t - t0) / h <= 1.0 + 1e-12:
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
                              gsqg.IntegratorConfig(rel_tol=1e-8))
    elif kind == "backward":
        st = random_state(17, 3, 1.5)
        traj = gsqg.integrate(gsqg.VortexState(t=0.8, z=st.z, xi=st.xi, alpha=st.alpha),
                              0.0, gsqg.IntegratorConfig(rel_tol=1e-8))
        assert np.all(np.diff(traj.times) < 0)
    else:
        t0 = gsqg.reference_time(thm_motion)
        st = gsqg.VortexState(t=-t0, z=thm_centered.a, xi=-thm_centered.xi, alpha=1.0)
        monkeypatch.setattr(gsqg.integrator, "GUARD_FRACTION", 1e-4)
        traj = gsqg.integrate(st, 0.5, gsqg.IntegratorConfig(rel_tol=1e-8))
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
def test_eval_of_an_array_is_the_scalar_eval_of_each_time(run, thm_centered, thm_motion,
                                                         monkeypatch):
    # every probe time in one call, in one block of rows or in blocks of
    # three (the last one short), with the bits of one call per time; the
    # shape of t leads the result's
    traj = _run(run, thm_centered, thm_motion, monkeypatch)
    ts = np.array(_probe_times(traj))
    ts = ts[:len(ts) // 3 * 3 - 2]
    each = np.array([traj.eval(t) for t in ts])
    for block in (256, 9):
        monkeypatch.setattr(gsqg.integrator, "PAIR_BLOCK", block)
        assert traj.eval(ts).view(np.uint64).tolist() == each.view(np.uint64).tolist()
    assert traj.eval(ts[:6].reshape(3, 2)).shape == (3, 2, 3)
    assert traj.eval(ts[0]).shape == (3,)


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


def test_eval_holds_its_result_once():
    # the blocks of rows fill one preallocated result; concatenating them held
    # the result twice at the end of the call
    traj = gsqg.integrate(lattice_state(20, 1.0), 0.5, gsqg.IntegratorConfig(rel_tol=1e-8))
    ts = np.linspace(traj.times[0], traj.times[-1], 3000)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        z = traj.eval(ts)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(traj.h) > 10 and z.nbytes == 3000 * 20 * 16
    assert peak < 1.2 * z.nbytes, (peak, z.nbytes)


@pytest.mark.parametrize("t1", [np.nan, np.inf, -np.inf])
def test_non_finite_end_time_rejected(t1):
    with pytest.raises(ValueError):
        gsqg.integrate(pair_state(), t1)


def test_config_validation():
    with pytest.raises(ValueError):
        gsqg.IntegratorConfig(rel_tol=0.5)
    with pytest.raises(ValueError):
        gsqg.integrate(pair_state(), 0.0)


def test_config_derives_abs_tol_from_rel_tol():
    assert gsqg.IntegratorConfig().abs_tol == 1e-13
    assert gsqg.IntegratorConfig(rel_tol=1e-8).abs_tol == 1e-8 * 1e-3
    low = gsqg.IntegratorConfig(rel_tol=2.2250738585072014e-305)
    assert low.abs_tol >= np.finfo(float).tiny
    with pytest.raises(TypeError):
        gsqg.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13)


@pytest.mark.parametrize("rel_tol", [1e-320, 5e-324, 2.2e-305, 0.0, -1e-10, 2e-2, np.nan])
def test_config_refuses_rel_tol_out_of_range(rel_tol):
    # at 1e-320 the error scale of _error_norm was subnormal, and the run
    # divided by it ("invalid value encountered in divide")
    with pytest.raises(gsqg.DomainError,
                       match=r"^rel_tol must lie in \[2\.2250738585072014e-305, 1e-2\]"):
        gsqg.IntegratorConfig(rel_tol=rel_tol)


# ---------------------------------------------------------------- lockstep batches

def _same_run(a, b):
    """Every array of two trajectories bit for bit, and their stop and counts."""
    assert (a.status, a.rejected, a.singular) == (b.status, b.rejected, b.singular)
    for x, y in ((a.times, b.times), (a.positions, b.positions), (a.h, b.h)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()
    assert len(a.segments) == len(b.segments)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a.segments, b.segments))


def _scaled_collapses(scales):
    # the collapse triple shrunk or grown: the same xi, each run collapsing
    # (or not, within the span) at its own pass
    st = _collapse_state()
    return [gsqg.VortexState(t=st.t, z=s * st.z, xi=st.xi, alpha=1.0) for s in scales]


def _lattice_members(k):
    st = lattice_state(99, 1.0)
    rng = np.random.default_rng(k)
    return [gsqg.VortexState(t=0.01 * j, z=st.z + 0.02 * (rng.uniform(-1, 1, 99)
                                                          + 1j * rng.uniform(-1, 1, 99)),
                             xi=st.xi, alpha=1.0) for j in range(k)]


def _both_ways(span):
    st = random_state(17, 3, 1.5)
    return [gsqg.VortexState(t=t, z=st.z * (1 + 0.1 * j), xi=st.xi, alpha=1.5)
            for j, t in enumerate(span)]


# (states, t1, rel_tol, GUARD_FRACTION, MAX_STEPS, statuses of the members)
BATCHES = {
    # four seeded bursts among one background vortex (N = 4), as the study runs them
    "bursts_n4": (lambda: [gsqg.make_burst_initial(gsqg.BurstScenario(
        triple=gsqg.oriented_config(1.0, THM_X), background=((1.0 + 0j, 1.0),)), t)
        for t in (1e-4, 5e-5, 2.5e-5, 1.25e-5)], 1e-3, 1e-8, None, None, ["completed"] * 4),
    # N = 99 in one batch, started at different times
    "lattice_n99": (lambda: _lattice_members(3), 0.05, 1e-6, None, None, ["completed"] * 3),
    # forward and backward runs to one t1, ending at different passes
    "both_ways": (lambda: _both_ways((-0.8, 0.5, -0.2, 0.9)), 0.0, 1e-8, None, None,
                  ["completed"] * 4),
    # rejected steps, a singular retry, guard crossings at different passes,
    # and a run that completes
    "guard": (lambda: _scaled_collapses((1.0, 0.8, 1.3)), 0.5, 1e-3, 1e-4, None,
              ["collapse_detected", "collapse_detected", "completed"]),
    # the same runs on a budget that two of them exhaust
    "budget": (lambda: _scaled_collapses((1.0, 0.8, 1.3)), 0.5, 1e-3, 1e-4, 60,
               ["step_failure", "step_failure", "completed"]),
    # the reference collapse stopping on step underflow, beside guard crossings
    "underflow": (lambda: _scaled_collapses((1.0, 0.9, 1.1)), 1.0, 1e-8, None, None,
                  ["collapse_detected"] * 3),
}


@pytest.mark.parametrize("case", list(BATCHES))
def test_batch_members_keep_the_bits_they_have_alone(case, monkeypatch):
    make, t1, rel_tol, guard, budget, statuses = BATCHES[case]
    if guard is not None:
        monkeypatch.setattr(gsqg.integrator, "GUARD_FRACTION", guard)
    if budget is not None:
        monkeypatch.setattr(gsqg.integrator, "MAX_STEPS", budget)
    states, cfg = make(), gsqg.IntegratorConfig(rel_tol=rel_tol)
    together = gsqg.integrate_batch(states, t1, cfg)
    alone = [gsqg.integrate(st, t1, cfg) for st in states]
    for a, b in zip(together, alone):
        _same_run(a, b)
    assert [traj.status.value for traj in together] == statuses
    # the runs end at different passes
    assert len({len(traj.h) + traj.rejected + traj.singular for traj in together}) > 1
    if case == "guard":
        # each path ran: rejections, a singular retry, a crossing at the guard
        assert min(traj.rejected for traj in together[:2]) > 0
        assert sum(traj.singular for traj in together) > 0
        for st, traj in zip(states[:2], together):
            # on the guard radius, not above it as after a step underflow
            assert min_pair_distance(traj.positions)[-1] == pytest.approx(
                1e-4 * st.min_distance(), rel=1e-3)
    if case == "underflow":
        for st, traj in zip(states, together):
            guard = gsqg.integrator.GUARD_FRACTION * st.min_distance()
            assert min_pair_distance(traj.positions)[-1] > 2.0 * guard
    if case == "budget":
        assert [len(t.h) + t.rejected + t.singular for t in together[:2]] == [60, 60]


def test_one_rhs_closure_per_batch_and_one_per_shrink(monkeypatch):
    # the batch's first call takes every run's first stage; when runs leave,
    # one closure is built for the runs still live; xi and alpha must match
    states, sizes, make = _both_ways((-0.8, 0.5, -0.2, 0.9)), [], gsqg.integrator.make_rhs
    monkeypatch.setattr(gsqg.integrator, "make_rhs",
                        lambda *args: sizes.append(len(args[3])) or make(*args))
    together = gsqg.integrate_batch(states, 0.0, gsqg.IntegratorConfig(rel_tol=1e-8))
    ends = [len(traj.h) + traj.rejected for traj in together]
    assert sum(traj.singular for traj in together) == 0 and len(set(ends)) == 4
    assert sizes == [4] + [sum(e > end for e in ends) for end in sorted(ends)[:-1]]
    other = gsqg.VortexState(t=0.3, z=states[0].z, xi=-states[0].xi, alpha=1.5)
    with pytest.raises(gsqg.DomainError, match="share xi and alpha"):
        gsqg.integrate_batch([states[0], other], 0.0)


# ---------------------------------------------------------------- values at given times

def _sorted_from(ts, t0, t1):
    """ts in the direction of integration from t0 to t1."""
    return np.array(sorted(ts, reverse=bool(t1 < t0)))


def _same_run_at(got, dense, at):
    """A run given `at` against the same run with dense output: the same samples
    and counts, no segments, and eval(at) bit for bit in eval's span, which ends
    1e-12 past the run's end, NaN past it."""
    _same_run(dataclasses.replace(got, segments=dense.segments), dense)
    assert got.segments == [] and got.values.shape == (len(at), dense.positions.shape[1])
    sign = np.sign(dense.times[-1] - dense.times[0])
    reached = sign * (at - dense.times[-1]) <= 1e-12
    assert got.values[reached].tobytes() == dense.eval(at[reached]).tobytes()
    assert np.isnan(got.values[~reached]).all()
    return reached


@pytest.mark.parametrize("run", ["forward", "backward", "collapse"])
def test_values_at_given_times_are_eval_of_the_dense_run(run, thm_centered, thm_motion,
                                                         monkeypatch):
    # step boundaries, their neighbouring floats, interior points, both ends of
    # the span and past them within the 1e-12 tolerance (before t0 too), each
    # taken once as eval takes it; a collapse run reads NaN past its stop
    dense = _run(run, thm_centered, thm_motion, monkeypatch)
    t0, t1 = dense.times[0], {"forward": 0.8, "backward": 0.0, "collapse": 0.5}[run]
    st = gsqg.VortexState(t=t0, z=dense.positions[0], xi=dense.xi, alpha=dense.alpha)
    at = _sorted_from(_probe_times(dense) + [t1], t0, t1)
    assert at[0] == t0 - np.sign(t1 - t0) * 5e-13
    got = gsqg.integrate_batch([st], t1, gsqg.IntegratorConfig(rel_tol=1e-8), at)[0]
    reached = _same_run_at(got, dense, at)
    assert reached.sum() > 3 * len(dense.times) and (run == "collapse") == (not reached.all())


@pytest.mark.parametrize("case", list(BATCHES))
def test_batch_values_at_given_times_are_eval_of_each_dense_run(case, monkeypatch):
    # batches of four runs (N = 3 and 4) and of one (N = 99), forward and
    # backward runs, guard crossings, a step budget and step underflow; the
    # times lie in every run's span: the sample times of all runs, their
    # midpoints, and both ends
    make, t1, rel_tol, guard, budget, _ = BATCHES[case]
    if guard is not None:
        monkeypatch.setattr(gsqg.integrator, "GUARD_FRACTION", guard)
    if budget is not None:
        monkeypatch.setattr(gsqg.integrator, "MAX_STEPS", budget)
    states, cfg = make(), gsqg.IntegratorConfig(rel_tol=rel_tol)
    dense = gsqg.integrate_batch(states, t1, cfg)
    signs = {np.sign(t1 - st.t) for st in states}
    t0 = max((st.t for st in states), key=lambda t: -abs(t1 - t)) if len(signs) == 1 else t1
    ts = np.concatenate([t for d in dense for t in (d.times, 0.5 * (d.times[1:] + d.times[:-1]))])
    lo, hi = sorted((t0, t1))
    at = _sorted_from([t for t in ts if lo <= t <= hi] + [t0, t1], t0, t1)
    got = gsqg.integrate_batch(states, t1, cfg, at)
    for g, d in zip(got, dense):
        _same_run_at(g, d, at)
    empty = gsqg.integrate_batch(states, t1, cfg, np.array([]))
    for g, d in zip(empty, dense):
        _same_run_at(g, d, np.array([]))


def test_given_times_outside_the_span_or_out_of_order_are_refused():
    st, cfg = random_state(17, 3, 1.5), gsqg.IntegratorConfig(rel_tol=1e-8)
    later = gsqg.VortexState(t=0.3, z=st.z, xi=st.xi, alpha=st.alpha)
    for states, t1, at, t0 in (([st], 0.8, [0.5, 0.8 + 2e-12], 0.0),
                               ([st], 0.8, [-2e-12, 0.5], 0.0),
                               ([st], -0.8, [-0.5, 0.1], 0.0),
                               ([st], 0.8, [0.2, np.nan], 0.0),
                               ([st, later], 0.8, [0.2, 0.5], 0.3)):
        with pytest.raises(gsqg.DomainError,
                           match=rf"^t=\[.*\] outside trajectory span \[{t0}, {t1}\]$"):
            gsqg.integrate_batch(states, t1, cfg, at)
    for t1, at in ((0.8, [0.5, 0.2]), (-0.8, [-0.2, -0.5, -0.3])):
        with pytest.raises(gsqg.DomainError,
                           match="^at must be sorted in the direction of integration$"):
            gsqg.integrate_batch([st], t1, cfg, at)
    # the ends of the span with the tolerance eval allows, and repeated times
    got = gsqg.integrate_batch([st], -0.8, cfg, [5e-13, 0.0, -0.5, -0.5, -0.8 - 5e-13])[0]
    assert not np.isnan(got.values).any()


def test_a_run_given_times_holds_no_dense_output():
    # it keeps the start of each step, one of the five coefficient rows, so it
    # holds four fifths of the segments' bytes less than the dense run, and its
    # values more
    st = gsqg.make_burst_initial(gsqg.BurstScenario(
        triple=gsqg.oriented_config(1.0, THM_X),
        background=tuple((2.0 + 0.8 * k + 0.3j * (k % 2), 0.5 - (k % 3) * 0.4)
                         for k in range(14))), 2.5e-5)
    cfg, at = gsqg.IntegratorConfig(rel_tol=1e-10), np.geomspace(1e-4, 1e-3, 120)
    peaks, runs = [], []
    for kw in ({}, {"at": at}):
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            runs.append(gsqg.integrate_batch([st], 1e-3, cfg, **kw)[0])
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    dense, given = runs
    segments = sum(seg.nbytes for seg in dense.segments)
    assert len(dense.h) > 100 and given.segments == []
    assert peaks[1] <= peaks[0] - 0.8 * segments + given.values.nbytes, (peaks, segments)
