import gc
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import gsqg
from gsqg import kernel
from gsqg.integrator import Status, Trajectory, pair_rows
from gsqg.kernel import (DomainError, make_conserved, make_rhs, max_pair_distance,
                         min_pair_distance)

from conftest import THM_A, THM_B, lattice_state, random_state
from oracles import conserved_row, csv_per_value, relative_motion_rate, signed_area


# ---------------------------------------------------------------- coupling

def test_coupling_alpha1_closed_form():
    # Gamma(1/2)^2 = pi, sin(pi/2) = 1 -> c_1 = -1/(2 pi)
    assert gsqg.coupling_constant(1.0) == pytest.approx(-1.0 / (2 * np.pi), rel=1e-15)


@pytest.mark.parametrize("alpha", [0.3, 0.75, 1.0, 1.5, 1.9, 2.1, 2.5, 2.9])
def test_coupling_matches_arbitrary_precision(alpha):
    mpmath.mp.dps = 50
    a = mpmath.mpf(alpha)
    exact = -1 / (2**a * mpmath.gamma(a / 2) ** 2 * mpmath.sin(a * mpmath.pi / 2))
    assert gsqg.coupling_constant(alpha) == pytest.approx(float(exact), rel=1e-13)


def test_coupling_signs():
    assert gsqg.coupling_constant(1.5) < 0
    assert gsqg.coupling_constant(2.5) > 0


@pytest.mark.parametrize("alpha", [0.0, 3.0, -1.0, 2.0, 2.0005, 1.9995, 1e-300, 1e-155])
def test_coupling_domain_errors(alpha):
    with pytest.raises(DomainError):
        gsqg.coupling_constant(alpha)


def _sweep_alphas(lo, hi, step=1e-3):
    """The alphas `gsqg.sweep(lo, hi, step)` visits."""
    return [lo + k * step for k in range(int(round((hi - lo) / step)) + 1)]


# arguments x = alpha/2 of Gamma: a dense grid over (0, 1.5) with the points
# where the cephes steps switch; the alphas of the desk sweep and of both
# sweep ranges of the benchmark's sweep workload; and tiny arguments, where
# Gamma(x) ~ 1/x
_GAMMA_ARGS = {
    "grid": np.concatenate([np.arange(1, 150_000) * 1e-5,
                            [0.5, 1.0, 1e-9, np.nextafter(1e-9, 0.0), np.nextafter(1.0, 0.0),
                             np.nextafter(1.0, 2.0), np.nextafter(1.5, 0.0)]]),
    "sweeps": np.array([a for lo, hi in [(0.9, 1.999), (2.001, 2.2), (0.95, 1.05), (2.10, 2.16)]
                        for a in _sweep_alphas(lo, hi)]) / 2.0,
    "tiny": np.geomspace(1e-300, 1e-6, 3001),
}


@pytest.mark.parametrize("name", sorted(_GAMMA_ARGS))
def test_gamma_port_matches_scipy_bitwise(name):
    xs = _GAMMA_ARGS[name]
    got = np.array([kernel._gamma(x) for x in xs.tolist()])
    assert np.array_equal(got.view(np.int64), scipy.special.gamma(xs).view(np.int64))


@pytest.mark.parametrize("name", sorted(_GAMMA_ARGS))
def test_coupling_matches_scipy_formula_bitwise(name):
    # c_alpha with SciPy's Gamma, one scalar at a time as coupling_constant
    # computes it; below alpha ~ 1.5e-154 Gamma(alpha/2)^2 overflows to inf,
    # the formula gives -0, and coupling_constant refuses the alpha
    alphas = [a for a in (2.0 * _GAMMA_ARGS[name]).tolist() if abs(a - 2.0) > gsqg.ALPHA_GUARD]
    with np.errstate(over="ignore"):
        want = [-1.0 / (2.0**a * scipy.special.gamma(a / 2.0) ** 2 * np.sin(a * np.pi / 2.0))
                for a in alphas]
    refused = [a for a, c in zip(alphas, want) if c == 0.0]
    for a in refused:
        with pytest.raises(DomainError):
            gsqg.coupling_constant(a)
    alphas, want = zip(*[(a, c) for a, c in zip(alphas, want) if c != 0.0])
    got = [gsqg.coupling_constant(a) for a in alphas]
    assert all(type(c) is np.float64 for c in got)
    assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))
    assert (len(refused) > 0) == (name == "tiny")


# ---------------------------------------------------------------- velocity

def test_pair_velocity_hand_value():
    st_ = gsqg.VortexState(t=0.0, z=np.array([0.5, -0.5], dtype=complex),
                           xi=np.array([1.0, 1.0]), alpha=1.0)
    assert complex(gsqg.rhs(st_)[0]) == pytest.approx(1j / (2 * np.pi), abs=1e-15)


def test_single_vortex_is_still():
    st_ = gsqg.VortexState(t=0.0, z=np.array([0.3 + 0.2j]), xi=np.array([1.0]), alpha=1.0)
    assert complex(gsqg.rhs(st_)[0]) == 0.0


def test_opposite_pair_translates():
    st_ = gsqg.VortexState(t=0.0, z=np.array([0.5, -0.5], dtype=complex),
                           xi=np.array([1.0, -1.0]), alpha=1.3)
    v = gsqg.rhs(st_)
    assert v[0] == pytest.approx(v[1], rel=1e-14)


def test_equal_pair_tangential_opposite():
    st_ = gsqg.VortexState(t=0.0, z=np.array([0.5, -0.5], dtype=complex),
                           xi=np.array([1.0, 1.0]), alpha=1.5)
    v = gsqg.rhs(st_)
    assert v[0] == pytest.approx(-v[1], rel=1e-14)
    # tangential: perpendicular to the separation (purely imaginary here)
    assert abs(v[0].real) < 1e-15 * abs(v[0])


def test_rhs_matches_selfsimilar_derivative(thm_centered, thm_motion):
    # positions a_j Z(t) must move with velocity a_j dZ/dt (dZ/dt by
    # central differences of the closed-form scale factor)
    t = gsqg.reference_time(thm_motion)
    h = 1e-6
    Z = gsqg.zeta(thm_motion, t)
    dZ = (gsqg.zeta(thm_motion, t + h) - gsqg.zeta(thm_motion, t - h)) / (2 * h)
    st_ = gsqg.VortexState(t=t, z=thm_centered.a * Z, xi=thm_centered.xi, alpha=1.0)
    v = gsqg.rhs(st_)
    expect = thm_centered.a * dZ
    assert np.max(np.abs(v - expect)) <= 1e-8 * np.max(np.abs(expect))


def test_velocity_singularity_guard():
    st_ = gsqg.VortexState(t=0.0, z=np.array([0.0, 1e-9], dtype=complex),
                           xi=np.array([1.0, 1.0]), alpha=1.0)
    with pytest.raises(gsqg.SingularityError):
        make_rhs(st_.xi, st_.alpha, st_.c_alpha, [1e-6])(st_.z[None])


def plain_rhs(st_: gsqg.VortexState) -> np.ndarray:
    """The defining sum, one vortex and one partner at a time."""
    out = []
    for j in range(st_.n):
        s = sum(st_.xi[k] * abs(st_.z[j] - st_.z[k]) ** (st_.alpha - 2.0)
                / (st_.z[j] - st_.z[k]) for k in range(st_.n) if k != j)
        out.append(np.conj(1j * st_.c_alpha * s))
    return np.array(out)


@pytest.mark.parametrize("alpha", [1.0, 2.5])
@pytest.mark.parametrize("n", [2, 3, 99])
def test_rhs_matches_plain_sum(n, alpha):
    st_ = lattice_state(n, alpha, seed=n)
    expect = plain_rhs(st_)
    assert np.max(np.abs(gsqg.rhs(st_) - expect)) <= 1e-13 * np.max(np.abs(expect))


def _rhs_per_call_tables(xi, alpha, c_alpha, guard):
    """`make_rhs` with its pair tables allocated on every call."""
    xi_c = xi.astype(complex)
    n = len(xi)

    def f(z):
        diff = z[:, None] - z[None, :]
        dist = np.abs(diff)
        dist.reshape(-1)[::n + 1] = np.inf
        closest = dist.min()
        if closest < guard:
            raise gsqg.SingularityError("below guard")
        dist.reshape(-1)[::n + 1] = 1.0
        diff.reshape(-1)[::n + 1] = 1.0
        kern = dist**(alpha - 2.0) / diff
        kern.reshape(-1)[::n + 1] = 0.0
        return np.conj(1j * c_alpha * (kern @ xi_c)), closest

    return f


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.3, 1.5, 2.5, 2.9])
@pytest.mark.parametrize("n", [2, 3, 4, 17, 99])
def test_rhs_tables_reused_bitwise(n, alpha):
    # the reused tables give the bits of fresh ones, call after call, and
    # after a call that stopped at the guard; no result is a view of them
    st_ = lattice_state(n, alpha, seed=n)
    guard = 0.5 * st_.min_distance()
    f = make_rhs(st_.xi, alpha, st_.c_alpha, [guard])
    ref = _rhs_per_call_tables(st_.xi, alpha, st_.c_alpha, guard)
    rng = np.random.default_rng(n)
    zs = [st_.z + 0.05 * k * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
          for k in range(4)]
    # edge cases of the one-triangle table: on an unjittered lattice, and on
    # it turned by 45 degrees, pair differences are purely real, purely
    # imaginary or have |Re d| = |Im d| (the tie of Smith's division); then
    # one pair just above the guard
    side = int(np.ceil(np.sqrt(n)))
    grid = np.arange(n) % side + 1j * (np.arange(n) // side)
    near = grid.copy()
    near[1] = near[0] + np.nextafter(guard, np.inf)
    seen = []
    for k, z in enumerate(zs + [grid, (1 + 1j) * grid, near]):
        if k == 2:
            pinched = z.copy()
            pinched[1] = pinched[0] + 0.1 * guard
            with pytest.raises(gsqg.SingularityError):
                f(pinched[None])
        v, closest = f(z[None])
        v_ref, closest_ref = ref(z)
        assert np.array_equal(v[0].view(np.float64), v_ref.view(np.float64))
        assert closest == [closest_ref]
        seen.append((v, v.copy()))
    for v, kept in seen:
        assert np.array_equal(v, kept)


def test_singularity_guard_threshold():
    # the closest pair is (1, 2), off the first row of the distance matrix
    st_ = gsqg.VortexState(t=0.0, z=np.array([0.0, 1.0, 1.0 + 1e-3j]),
                           xi=np.array([1.0, 1.0, -0.5]), alpha=1.5)
    assert st_.min_distance() == pytest.approx(1e-3, rel=1e-12)
    with pytest.raises(gsqg.SingularityError):
        make_rhs(st_.xi, st_.alpha, st_.c_alpha, [1.001e-3])(st_.z[None])
    v, closest = make_rhs(st_.xi, st_.alpha, st_.c_alpha, [0.999e-3])(st_.z[None])
    assert np.array_equal(gsqg.rhs(st_), v[0])     # below the guard of st_.dmin()
    assert closest == [st_.min_distance()]


@pytest.mark.parametrize("n", [2, 4, 99])
def test_rhs_batch_rows_keep_their_bits_and_name_the_rows_below_guard(n):
    # a batch of three configurations, each row guarded by its own distance,
    # gives each row the velocities and distance of that row alone
    st_ = lattice_state(n, 1.3, seed=n)
    rng = np.random.default_rng(n)
    zs = st_.z + 0.05 * (rng.uniform(-1, 1, (3, n)) + 1j * rng.uniform(-1, 1, (3, n)))
    guards = [0.5 * float(min_pair_distance(z)) for z in zs]
    v, closest = make_rhs(st_.xi, 1.3, st_.c_alpha, guards)(zs)
    assert v.shape == (3, n) and len(closest) == 3
    for z, guard, row, c in zip(zs, guards, v, closest):
        alone, (c_alone,) = make_rhs(st_.xi, 1.3, st_.c_alpha, [guard])(z[None])
        assert row.tobytes() == alone[0].tobytes() and c == c_alone == min_pair_distance(z)
    # rows 0 and 2 below their guards, row 1 not
    with pytest.raises(gsqg.SingularityError) as err:
        make_rhs(st_.xi, 1.3, st_.c_alpha, [3 * guards[0], guards[1], 3 * guards[2]])(zs)
    assert err.value.members == [0, 2]
    with pytest.raises(gsqg.SingularityError) as err:
        make_rhs(st_.xi, 1.3, st_.c_alpha, [3 * guards[0]])(zs[:1])
    assert err.value.members == [0]


# ---------------------------------------------------------------- conserved

def test_conserved_trivial_pair():
    st_ = gsqg.VortexState(t=0.0, z=np.array([0.5, -0.5], dtype=complex),
                           xi=np.array([1.0, 1.0]), alpha=1.0)
    c = gsqg.conserved(st_)
    assert c.C == pytest.approx(0.0, abs=1e-15)
    assert c.Lmom == pytest.approx(2.0, rel=1e-14)


def test_conserved_vanish_on_constructed_triple(thm_cfg):
    c = gsqg.conserved(thm_cfg.state())
    assert abs(c.H) <= 1e-10
    assert abs(c.Lmom) <= 1e-10


def test_conserved_label_permutation_invariant():
    st_ = random_state(3, 4, 1.5)
    c0 = gsqg.conserved(st_)
    perm = np.array([2, 0, 3, 1])
    c1 = gsqg.conserved(gsqg.VortexState(t=0.0, z=st_.z[perm], xi=st_.xi[perm], alpha=1.5))
    assert c1.H == pytest.approx(c0.H, rel=1e-13)
    assert c1.Lmom == pytest.approx(c0.Lmom, rel=1e-13)
    assert c1.C == pytest.approx(c0.C, abs=1e-13)


def _bits(*values) -> list[int]:
    return np.array(values, dtype=complex).view(np.uint64).tolist()


@pytest.mark.parametrize("alpha", [0.7, 1.3, 2.5])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 20, 99])
def test_conserved_batch_rows_keep_their_bits(n, alpha):
    # a batch spanning several to_csv blocks, C- and F-ordered: every row
    # equals the batch of one and the row-alone oracle bit for bit, and the
    # blocked CSV equals the per-value one
    rng = np.random.default_rng(n)
    per_block = pair_rows(n)
    rows = 2 * per_block + 7
    z = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    xi = rng.uniform(0.4, 1.6, n) * rng.choice([-1.0, 1.0], n)
    q = make_conserved(xi, alpha, gsqg.coupling_constant(alpha))
    for batch in (z, np.asfortranarray(z)):
        C, H, L = q(batch)
        assert C.shape == H.shape == L.shape == (rows,)
        for r in range(rows):
            assert _bits(C[r], H[r], L[r]) == _bits(*q(z[r])) == _bits(
                *conserved_row(z[r], xi, alpha))
    traj = Trajectory(times=np.arange(rows, dtype=float), positions=z, xi=xi, alpha=alpha,
                      status=Status.COMPLETED, h=np.ones(rows - 1), segments=[])
    assert traj.to_csv() == csv_per_value(traj)


def test_conserved_holds_two_complex_pair_arrays():
    # one row of 99 vortices: the pair differences are taken in place into the
    # first gathered array, so no third complex pair array is made
    st = lattice_state(99, 1.0)
    q = make_conserved(st.xi, 1.0, gsqg.coupling_constant(1.0))
    z = st.z[None]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        q(z)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    pair_bytes = 99 * 98 // 2 * 16
    assert peak < 2.5 * pair_bytes, (peak, pair_bytes)


def test_conserved_returns_python_scalars():
    c = gsqg.conserved(random_state(3, 4, 1.5))
    assert (type(c.C), type(c.H), type(c.Lmom)) == (complex, float, float)
    lone = gsqg.conserved(gsqg.VortexState(t=0.0, z=[1j], xi=[2.0], alpha=1.0))
    # no pairs: H and L are +0 even though c_alpha < 0
    assert _bits(lone.H, lone.Lmom) == _bits(0.0, 0.0)
    assert lone.C == 2j


# ---------------------------------------------------------------- geometry

def test_signed_area_orientation():
    assert signed_area(0, 1, 1j) == pytest.approx(0.5)
    assert signed_area(0, 1j, 1) == pytest.approx(-0.5)
    assert signed_area(0, 1, 2) == 0.0


def test_relative_motion_rate_equilateral_and_collinear():
    w = np.exp(2j * np.pi * np.arange(3) / 3)
    st_ = gsqg.VortexState(t=0.0, z=w, xi=np.array([1.0, 2.0, -0.5]), alpha=1.2)
    assert relative_motion_rate(st_, (1, 2)) == pytest.approx(0.0, abs=1e-14)
    st2 = gsqg.VortexState(t=0.0, z=np.array([0.0, 1.0, 2.5], dtype=complex),
                           xi=np.array([1.0, 1.0, 1.0]), alpha=1.2)
    assert relative_motion_rate(st2, (1, 2)) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("pair", [(1, 2), (0, 2), (0, 1)])
def test_relative_motion_rate_matches_finite_difference(pair):
    # independent oracle: centered difference of |w_pq(t)|^2 along an
    # integrated trajectory
    st_ = random_state(11, 3, 1.4)
    h = 1e-5
    cfg = gsqg.IntegratorConfig(rel_tol=1e-12)
    plus = gsqg.integrate(st_, h, cfg).final_state()
    minus = gsqg.integrate(st_, -h, cfg).final_state()
    p, q = pair

    def d2(s):
        return abs(s.z[p] - s.z[q]) ** 2

    fd = (d2(plus) - d2(minus)) / (2 * h)
    assert relative_motion_rate(st_, pair) == pytest.approx(fd, rel=1e-6)


def test_relative_motion_consistent_with_rate(thm_centered):
    # for a self-similar shape, d/dt |w_pq|^2 = 2 a |a_pq|^2 at unit scale
    a, _, _ = gsqg.selfsimilar_rate(thm_centered)
    st_ = thm_centered.state()
    for pair in [(1, 2), (0, 2), (0, 1)]:
        expect = 2 * a * abs(st_.z[pair[0]] - st_.z[pair[1]]) ** 2
        assert relative_motion_rate(st_, pair) == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------- invariants

@pytest.mark.parametrize("seed,n,alpha", [(1, 3, 0.5), (2, 4, 1.0), (3, 3, 1.5),
                                          (4, 4, 2.5), (5, 5, 1.2)])
def test_center_of_vorticity_stationary(seed, n, alpha):
    st_ = random_state(seed, n, alpha)
    v = gsqg.rhs(st_)
    assert abs(np.sum(st_.xi * v)) <= 1e-12 * np.sum(np.abs(st_.xi) * np.abs(v))


@settings(max_examples=25, deadline=None)
@given(phi=st.floats(0.0, 2 * np.pi), seed=st.integers(0, 50))
def test_rotation_equivariance(phi, seed):
    st_ = random_state(seed, 3, 1.5)
    v = gsqg.rhs(st_)
    rot = gsqg.VortexState(t=0.0, z=st_.z * np.exp(1j * phi), xi=st_.xi, alpha=1.5)
    vr = gsqg.rhs(rot)
    assert np.max(np.abs(vr - v * np.exp(1j * phi))) <= 1e-12 * np.max(np.abs(v))


@settings(max_examples=25, deadline=None)
@given(wx=st.floats(-2.0, 2.0), wy=st.floats(-2.0, 2.0), seed=st.integers(0, 50))
def test_translation_invariance(wx, wy, seed):
    st_ = random_state(seed, 3, 0.8)
    v = gsqg.rhs(st_)
    tr = gsqg.VortexState(t=0.0, z=st_.z + (wx + 1j * wy), xi=st_.xi, alpha=0.8)
    assert np.max(np.abs(gsqg.rhs(tr) - v)) <= 1e-12 * np.max(np.abs(v))


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(0.1, 10.0), seed=st.integers(0, 50))
def test_scaling_covariance(lam, seed):
    alpha = 1.5
    st_ = random_state(seed, 3, alpha)
    v = gsqg.rhs(st_)
    sc = gsqg.VortexState(t=0.0, z=st_.z * lam, xi=st_.xi, alpha=alpha)
    assert np.max(np.abs(gsqg.rhs(sc) - v * lam ** (alpha - 3.0))) \
        <= 1e-10 * np.max(np.abs(v)) * lam ** (alpha - 3.0)


def test_time_reversal_negates_rhs_exactly():
    st_ = random_state(9, 4, 1.5)
    flipped = gsqg.VortexState(t=0.0, z=st_.z, xi=-st_.xi, alpha=1.5)
    assert np.array_equal(gsqg.rhs(flipped), -gsqg.rhs(st_))


def test_state_validation():
    with pytest.raises(DomainError):
        gsqg.VortexState(t=0.0, z=np.array([0.0, 0.0], dtype=complex),
                         xi=np.array([1.0, 1.0]), alpha=1.0)
    with pytest.raises(DomainError):
        gsqg.VortexState(t=0.0, z=np.array([0.0, 1.0], dtype=complex),
                         xi=np.array([1.0, 0.0]), alpha=1.0)


@pytest.mark.parametrize("field,value", [("t", np.nan), ("z", np.inf),
                                         ("z", complex(0.0, np.nan)),
                                         ("xi", np.nan), ("xi", -np.inf)])
def test_state_rejects_non_finite(field, value):
    data = {"t": 0.0, "z": np.array([0.5, -0.5], dtype=complex),
            "xi": np.array([1.0, 1.0])}
    if field == "t":
        data["t"] = value
    else:
        data[field] = data[field].copy()
        data[field][1] = value
    with pytest.raises(DomainError):
        gsqg.VortexState(alpha=1.0, **data)


@pytest.mark.parametrize("rows", [None, 5])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 99])
def test_pair_distances_match_a_pair_loop(n, rows):
    rng = np.random.default_rng(n)
    shape = (n,) if rows is None else (rows, n)
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    lo, hi = min_pair_distance(z), max_pair_distance(z)
    assert np.shape(lo) == np.shape(hi) == shape[:-1]
    for cfg, dlo, dhi in zip(z.reshape(rows or 1, n), np.ravel(lo), np.ravel(hi), strict=True):
        d = [np.abs(cfg[j] - cfg[k]) for j in range(n) for k in range(j + 1, n)]
        assert (dlo, dhi) == ((min(d), max(d)) if n >= 2 else (np.inf, 0.0))


def test_rate_magnitude_cross_checked(thm_centered):
    # the self-similarity rate agrees with the relative-motion identity
    a, b, res = gsqg.selfsimilar_rate(thm_centered)
    assert res < 1e-14
    assert a == pytest.approx(THM_A, abs=1e-14)
    assert b == pytest.approx(THM_B, abs=1e-14)
