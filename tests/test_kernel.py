import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gsqg
from gsqg.kernel import DomainError, make_rhs, max_pair_distance, min_pair_distance

from conftest import THM_A, THM_B, lattice_state, random_state


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


@pytest.mark.parametrize("alpha", [0.0, 3.0, -1.0, 2.0, 2.0005, 1.9995])
def test_coupling_domain_errors(alpha):
    with pytest.raises(DomainError):
        gsqg.coupling_constant(alpha)


# ---------------------------------------------------------------- velocity

def test_pair_velocity_hand_value():
    st_ = gsqg.VortexState(t=0.0, z=np.array([0.5, -0.5], dtype=complex),
                           xi=np.array([1.0, 1.0]), alpha=1.0)
    assert gsqg.velocity(st_, 0) == pytest.approx(1j / (2 * np.pi), abs=1e-15)


def test_single_vortex_is_still():
    st_ = gsqg.VortexState(t=0.0, z=np.array([0.3 + 0.2j]), xi=np.array([1.0]), alpha=1.0)
    assert gsqg.velocity(st_, 0) == 0.0


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
        gsqg.rhs(st_, dmin=1e-6)


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


def test_singularity_guard_threshold():
    # the closest pair is (1, 2), off the first row of the distance matrix
    st_ = gsqg.VortexState(t=0.0, z=np.array([0.0, 1.0, 1.0 + 1e-3j]),
                           xi=np.array([1.0, 1.0, -0.5]), alpha=1.5)
    assert st_.min_distance() == pytest.approx(1e-3, rel=1e-12)
    with pytest.raises(gsqg.SingularityError):
        gsqg.rhs(st_, dmin=1.001e-3)
    with pytest.raises(gsqg.SingularityError):
        make_rhs(st_.xi, st_.alpha, st_.c_alpha, 1.001e-3)(st_.z)
    v, closest = make_rhs(st_.xi, st_.alpha, st_.c_alpha, 0.999e-3)(st_.z)
    assert np.array_equal(gsqg.rhs(st_, dmin=0.999e-3), v)
    assert closest == st_.min_distance()


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


# ---------------------------------------------------------------- geometry

def test_signed_area_orientation():
    assert gsqg.signed_area(0, 1, 1j) == pytest.approx(0.5)
    assert gsqg.signed_area(0, 1j, 1) == pytest.approx(-0.5)
    assert gsqg.signed_area(0, 1, 2) == 0.0


def test_relative_motion_rate_equilateral_and_collinear():
    w = np.exp(2j * np.pi * np.arange(3) / 3)
    st_ = gsqg.VortexState(t=0.0, z=w, xi=np.array([1.0, 2.0, -0.5]), alpha=1.2)
    assert gsqg.relative_motion_rate(st_, (1, 2)) == pytest.approx(0.0, abs=1e-14)
    st2 = gsqg.VortexState(t=0.0, z=np.array([0.0, 1.0, 2.5], dtype=complex),
                           xi=np.array([1.0, 1.0, 1.0]), alpha=1.2)
    assert gsqg.relative_motion_rate(st2, (1, 2)) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("pair", [(1, 2), (0, 2), (0, 1)])
def test_relative_motion_rate_matches_finite_difference(pair):
    # independent oracle: centered difference of |w_pq(t)|^2 along an
    # integrated trajectory
    st_ = random_state(11, 3, 1.4)
    h = 1e-5
    cfg = gsqg.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-15)
    plus = gsqg.integrate(st_, h, cfg).final_state()
    minus = gsqg.integrate(st_, -h, cfg).final_state()
    p, q = pair

    def d2(s):
        return abs(s.z[p] - s.z[q]) ** 2

    fd = (d2(plus) - d2(minus)) / (2 * h)
    assert gsqg.relative_motion_rate(st_, pair) == pytest.approx(fd, rel=1e-6)


def test_relative_motion_consistent_with_rate(thm_centered):
    # for a self-similar shape, d/dt |w_pq|^2 = 2 a |a_pq|^2 at unit scale
    a, _, _ = gsqg.selfsimilar_rate(thm_centered)
    st_ = thm_centered.state()
    for pair in [(1, 2), (0, 2), (0, 1)]:
        expect = 2 * a * abs(st_.z[pair[0]] - st_.z[pair[1]]) ** 2
        assert gsqg.relative_motion_rate(st_, pair) == pytest.approx(expect, rel=1e-12)


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
