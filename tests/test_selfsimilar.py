import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gsqg
from gsqg.kernel import DomainError, coupling_constant
from gsqg.selfsimilar import Classification, pair_terms, verdict, vortex_rates

from conftest import THM_A, THM_B, random_state
from oracles import pair_terms_mirrored, relative_motion_rate, vortex_rates_mirrored


def equilateral(alpha=1.5, xi=(1.0, 1.0, 1.0)):
    w = np.exp(2j * np.pi * np.arange(3) / 3)
    return gsqg.TripleConfig(a=w, xi=np.array(xi), alpha=alpha)


# ---------------------------------------------------------------- rates

def test_rate_on_reference_triple(thm_centered):
    a, b, res = gsqg.selfsimilar_rate(thm_centered)
    assert res <= 1e-8
    assert a == pytest.approx(THM_A, abs=1e-12)
    assert b == pytest.approx(THM_B, abs=1e-12)


def test_rate_cross_checked_against_relative_motion(thm_centered):
    # independent oracle: d/dt |w_23|^2 = 2 a |a_23|^2 at unit scale
    a, _, _ = gsqg.selfsimilar_rate(thm_centered)
    st = thm_centered.state()
    rate = relative_motion_rate(st, (1, 2))
    assert a == pytest.approx(rate / (2 * abs(st.z[1] - st.z[2]) ** 2), rel=1e-12)


def test_rate_cross_checked_against_integration(thm_centered, thm_motion):
    # third route: the integrated scale factor obeys |Z|^(4-alpha) affine
    # in t with slope (4-alpha) a
    t0 = gsqg.reference_time(thm_motion)
    st = gsqg.VortexState(t=t0, z=thm_centered.a, xi=thm_centered.xi, alpha=1.0)
    traj = gsqg.integrate(st, 2.0 * t0, gsqg.IntegratorConfig(rel_tol=1e-12))
    scale = np.abs(traj.positions[:, 0]) / abs(thm_centered.a[0])
    slope, _ = np.polyfit(traj.times, scale ** (4.0 - 1.0), 1)
    assert slope / 3.0 == pytest.approx(THM_A, rel=1e-9)


def test_rate_on_reference_triple_keeps_the_mirrored_kernel_bits(thm_centered):
    z, xi = thm_centered.a[:, None], thm_centered.xi[:, None]
    q, mean = vortex_rates_mirrored(z, xi, coupling_constant(1.0), pair_terms_mirrored(z, 1.0)[0])
    want = (mean.real[0], -mean.imag[0], max(np.abs(qj - mean)[0] for qj in q))
    assert [v.hex() for v in gsqg.selfsimilar_rate(thm_centered)] == [
        float(v).hex() for v in want]


_COORD = st.floats(-10.0, 10.0)


@settings(max_examples=200, deadline=None)
@given(pos=st.lists(st.tuples(_COORD, _COORD), min_size=3, max_size=3),
       xi=st.lists(st.one_of(st.floats(-5.0, -0.1), st.floats(0.1, 5.0)), min_size=3,
                   max_size=3, unique=True),
       alpha=st.one_of(st.floats(0.1, 1.99), st.floats(2.01, 2.9)))
def test_rates_keep_the_mirrored_kernel_bits(pos, xi, alpha):
    # three distinct intensities, so no term of a q_j equals another's
    z = np.array([complex(*p) for p in pos])
    assume(len(set(pos)) == 3 and np.all(z != 0.0))
    z, xi, ca = z[:, None], np.array(xi)[:, None], coupling_constant(alpha)
    with np.errstate(all="ignore"):     # near-coincident vortices overflow, as on a grid
        kern, bracket = pair_terms(z, alpha)
        kern0, bracket0 = pair_terms_mirrored(z, alpha)
        q, mean = vortex_rates(z, xi, ca, kern)
        q0, mean0 = vortex_rates_mirrored(z, xi, ca, kern0)
    assert sorted(kern) == sorted(bracket) == [(0, 1), (0, 2), (1, 2)]
    for got, want in zip([*q, mean, *bracket.values()], [*q0, mean0, *bracket0.values()]):
        assert got.tobytes() == want.tobytes()


def test_rates_keep_the_mirrored_nan_signs():
    # a subnormal x gap makes two kernel values NaN: which NaN a q_j keeps,
    # and so its sign bit, follows the operand order of the mirrored sum
    z = np.array([1j, 2.225e-309 + 1j, 2j])[:, None]
    xi = np.array([-1.0, -2.0, -3.0])[:, None]
    ca = coupling_constant(1.0)
    with np.errstate(all="ignore"):
        q, mean = vortex_rates(z, xi, ca, pair_terms(z, 1.0)[0])
        q0, mean0 = vortex_rates_mirrored(z, xi, ca, pair_terms_mirrored(z, 1.0)[0])
    assert np.isnan(q[1]).all() and np.isnan(mean).all()
    assert [v.tobytes() for v in [*q, mean]] == [v.tobytes() for v in [*q0, mean0]]


def test_equilateral_is_relative_equilibrium():
    a, b, res = gsqg.selfsimilar_rate(equilateral())
    assert res <= 1e-14
    assert a == pytest.approx(0.0, abs=1e-14)
    assert b != pytest.approx(0.0, abs=1e-6)


def test_perturbed_triple_not_selfsimilar(thm_centered):
    rng = np.random.default_rng(0)
    pert = thm_centered.a + 1e-2 * (rng.normal(size=3) + 1j * rng.normal(size=3))
    cfg = gsqg.center(gsqg.TripleConfig(a=pert, xi=thm_centered.xi, alpha=1.0))
    _, _, res = gsqg.selfsimilar_rate(cfg)
    assert res > gsqg.SS_TOL


def test_rate_rejects_vortex_at_origin():
    cfg = gsqg.TripleConfig(a=np.array([0.0, 1.0, 1j]), xi=np.array([1.0, 1.0, 1.0]),
                            alpha=1.0)
    with pytest.raises(DomainError):
        gsqg.selfsimilar_rate(cfg)


# ---------------------------------------------------------------- H, L

def test_H_L_zero_on_construction(thm_cfg):
    q = gsqg.conserved(thm_cfg.state())
    H, L = q.H, q.Lmom
    assert abs(H) <= 1e-10 and abs(L) <= 1e-10


def test_H_L_nonzero_for_equal_equilateral():
    # the pair sum is positive; H carries the 1/c_alpha prefactor whose
    # sign is negative below alpha = 2
    q = gsqg.conserved(equilateral().state())
    H, L = q.H, q.Lmom
    assert L > 0
    assert np.sign(H) == np.sign(gsqg.coupling_constant(1.5))
    assert abs(H) > 0.1


@pytest.mark.parametrize("lam", [0.5, 2.0, 3.7])
def test_H_L_scaling(lam):
    cfg = equilateral(alpha=1.3, xi=(1.0, 2.0, -0.7))
    q = gsqg.conserved(cfg.state())
    H0, L0 = q.H, q.Lmom
    scaled = gsqg.TripleConfig(a=cfg.a * lam, xi=cfg.xi, alpha=cfg.alpha)
    q = gsqg.conserved(scaled.state())
    H1, L1 = q.H, q.Lmom
    assert H1 == pytest.approx(H0 * lam ** (1.3 - 2.0), rel=1e-12)
    assert L1 == pytest.approx(L0 * lam**2, rel=1e-12)


# ---------------------------------------------------------------- zeta

def test_zeta_unit_normalization():
    mo = gsqg.SelfSimilarMotion(a_rate=1.0 / 3.0, b_rate=0.0, alpha=1.0)
    assert gsqg.zeta(mo, 1.0) == pytest.approx(1.0)


def test_zeta_power_is_affine(thm_motion):
    alpha = thm_motion.alpha
    ts = np.linspace(1.0, 5.0, 40)
    vals = np.array([abs(gsqg.zeta(thm_motion, t)) ** (4 - alpha) for t in ts])
    slope, icpt = np.polyfit(ts, vals, 1)
    assert slope == pytest.approx((4 - alpha) * thm_motion.a_rate, rel=1e-12)
    assert icpt == pytest.approx(0.0, abs=1e-12)


def test_zeta_domain_errors(thm_motion):
    with pytest.raises(DomainError):
        gsqg.zeta(thm_motion, 0.0)     # at the singular time
    with pytest.raises(DomainError):
        gsqg.zeta(thm_motion, -1.0)    # wrong side for a burst
    collapse = gsqg.SelfSimilarMotion(a_rate=-thm_motion.a_rate, b_rate=thm_motion.b_rate,
                                      alpha=thm_motion.alpha)
    for t in (0.0, 1.0):
        with pytest.raises(DomainError, match="collapse branch needs t < 0"):
            gsqg.zeta(collapse, t)
    still = gsqg.SelfSimilarMotion(a_rate=0.0, b_rate=0.3, alpha=1.0)
    with pytest.raises(DomainError, match="relative equilibrium"):
        gsqg.zeta(still, 1.0)


def test_reference_time_refuses_a_relative_equilibrium():
    with pytest.raises(DomainError, match="a = 0"):
        gsqg.reference_time(gsqg.SelfSimilarMotion(a_rate=0.0, b_rate=0.3, alpha=1.0))


def test_trajectory_from_zeta_solves_the_dynamics(thm_centered, thm_motion):
    # plug a_j Z(t) into the equations of motion on a grid
    for t in np.geomspace(0.5, 20.0, 8):
        h = 1e-6 * t
        Z = gsqg.zeta(thm_motion, t)
        dZ = (gsqg.zeta(thm_motion, t + h) - gsqg.zeta(thm_motion, t - h)) / (2 * h)
        st = gsqg.VortexState(t=t, z=thm_centered.a * Z, xi=thm_centered.xi, alpha=1.0)
        resid = gsqg.rhs(st) - thm_centered.a * dZ
        assert np.max(np.abs(resid)) <= 1e-8 * np.max(np.abs(gsqg.rhs(st)))


# ---------------------------------------------------------------- classify

def test_classify_burst(thm_centered):
    assert gsqg.classify(thm_centered) is Classification.BURST


def test_classify_collapse_under_time_inversion(thm_centered):
    flipped = gsqg.TripleConfig(a=thm_centered.a, xi=-thm_centered.xi, alpha=1.0)
    assert gsqg.classify(flipped) is Classification.COLLAPSE


def test_classify_relative_equilibrium():
    assert gsqg.classify(equilateral()) is Classification.RELATIVE_EQUILIBRIUM


def test_classify_generic_not_selfsimilar():
    st = random_state(21, 3, 1.5)
    cfg = gsqg.center(gsqg.TripleConfig(a=st.z, xi=st.xi, alpha=1.5))
    assert gsqg.classify(cfg) is Classification.NOT_SELF_SIMILAR


# ---------------------------------------------------------------- verdict

NSS, RE = Classification.NOT_SELF_SIMILAR, Classification.RELATIVE_EQUILIBRIUM
BURST, COLLAPSE = Classification.BURST, Classification.COLLAPSE
_SS, _RATE = gsqg.SS_TOL, gsqg.RATE_TOL
_INF = np.inf

# (a_rate, residual, verdict): NaN, +-inf, 0 and each threshold with the
# floats on either side of it
VERDICTS = [
    (1.0, np.nan, NSS), (1.0, _INF, NSS), (1.0, -_INF, BURST), (1.0, 0.0, BURST),
    (1.0, np.nextafter(_SS, 0.0), BURST), (1.0, _SS, BURST),
    (1.0, np.nextafter(_SS, _INF), NSS), (-1.0, np.nextafter(_SS, _INF), NSS),
    (np.nan, 0.0, RE), (np.nan, np.nan, NSS), (_INF, 0.0, BURST), (-_INF, 0.0, COLLAPSE),
    (_INF, np.nan, NSS), (0.0, 0.0, RE), (-0.0, 0.0, RE), (0.0, _INF, NSS),
    (np.nextafter(_RATE, 0.0), 0.0, RE), (_RATE, 0.0, RE),
    (np.nextafter(_RATE, _INF), 0.0, BURST), (np.nextafter(-_RATE, 0.0), 0.0, RE),
    (-_RATE, 0.0, RE), (np.nextafter(-_RATE, -_INF), 0.0, COLLAPSE),
    (np.nextafter(_RATE, _INF), _SS, BURST), (np.nextafter(-_RATE, -_INF), _SS, COLLAPSE),
]


@pytest.mark.parametrize("a_rate, residual, expected", VERDICTS)
def test_verdict_table(a_rate, residual, expected):
    assert verdict(a_rate, residual) is expected


class _PastPrerequisites(Exception):
    pass


@pytest.mark.parametrize("a_rate, residual, expected", VERDICTS)
def test_every_reader_agrees_with_the_verdict(thm_centered, monkeypatch, a_rate, residual,
                                             expected):
    # each reader sees the table's rates in place of the reference triple's
    monkeypatch.setattr(gsqg.selfsimilar, "selfsimilar_rate", lambda cfg: (a_rate, 0.3, residual))
    monkeypatch.setattr(gsqg.stability, "selfsimilar_rate", lambda cfg: (a_rate, 0.3, residual))
    assert gsqg.classify(thm_centered) is expected
    if expected is NSS:
        with pytest.raises(DomainError, match="not self-similar"):
            gsqg.motion_from_config(thm_centered)
    else:
        assert gsqg.motion_from_config(thm_centered).classification() is verdict(a_rate, 0.0)
    if residual == 0.0:
        assert gsqg.SelfSimilarMotion(a_rate, 0.3, 1.0).classification() is expected

    def past(*args):
        raise _PastPrerequisites
    monkeypatch.setattr(gsqg.stability, "l_terms", past)
    try:
        rep = gsqg.hypothesis_a_check(thm_centered)
        ok = (rep.selfsimilar_ok, rep.a_positive)
    except _PastPrerequisites:      # both prerequisites held
        ok = (True, True)
    assert ok == (expected is not NSS, bool(a_rate > _RATE))     # a_positive: the rate alone


def test_nan_rates_are_not_self_similar(nan_triple):
    with np.errstate(all="ignore"):     # the pair kernels overflow by construction
        assert np.isnan(gsqg.selfsimilar_rate(nan_triple)).all()
        assert gsqg.classify(nan_triple) is NSS
        with pytest.raises(DomainError, match=r"not self-similar \(residual nan\)"):
            gsqg.motion_from_config(nan_triple)
        assert not gsqg.hypothesis_a_check(nan_triple).selfsimilar_ok


@pytest.mark.xfail(strict=True, reason="SS_TOL, RATE_TOL, EIG_TOL and the floor of "
                   "mu_distinct are absolute, while the rates scale as s^(alpha-4)")
def test_verdict_is_scale_free(thm_centered):
    # the reference burst scaled by s is the same motion with its clock
    # rescaled; at 1e-3 the residual exceeds SS_TOL, at 1e3 the mu fail
    # the distinctness floor, at 2000 the rate falls below RATE_TOL
    wrong = []
    for s in (1e-3, 1e3, 2000.0):
        cfg = gsqg.TripleConfig(a=thm_centered.a * s, xi=thm_centered.xi, alpha=1.0)
        if gsqg.classify(cfg) is not BURST or not gsqg.hypothesis_a_check(cfg).passed:
            wrong.append(s)
    assert wrong == []


# ---------------------------------------------------------------- center

def test_center_idempotent(thm_cfg):
    c1 = gsqg.center(thm_cfg)
    c2 = gsqg.center(c1)
    assert np.max(np.abs(c1.a - c2.a)) <= 1e-15
    assert abs(np.sum(c1.xi * c1.a)) <= 1e-14


def test_center_undoes_translation(thm_cfg):
    shifted = gsqg.TripleConfig(a=thm_cfg.a + (0.7 - 1.3j), xi=thm_cfg.xi, alpha=1.0)
    assert np.max(np.abs(gsqg.center(shifted).a - gsqg.center(thm_cfg).a)) <= 1e-13


def test_center_zero_total_intensity():
    cfg = gsqg.TripleConfig(a=np.array([0.5, -0.5, 1j]), xi=np.array([1.0, 1.0, -2.0]),
                            alpha=1.0)
    with pytest.raises(DomainError):
        gsqg.center(cfg)


# ---------------------------------------------------------------- equivalence sampling

def test_constructed_zero_H_L_families_are_selfsimilar():
    # configurations solved to satisfy H = L = 0 must pass the rate
    # residual test; generic ones must fail it clearly
    rng = np.random.default_rng(42)
    good = 0
    while good < 50:
        alpha = rng.uniform(0.5, 2.9)
        if abs(alpha - 2.0) <= 2e-3:
            continue
        x = rng.uniform(0.35, 0.98)
        try:
            cfg = gsqg.oriented_config(alpha, x)
        except DomainError:
            continue
        _, _, res = gsqg.selfsimilar_rate(gsqg.center(cfg))
        assert res <= 1e-8
        good += 1


def test_generic_triples_fail_the_residual():
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 50:
        st = random_state(int(rng.integers(1e6)), 3, 1.5)
        cfg = gsqg.center(gsqg.TripleConfig(a=st.z, xi=st.xi, alpha=1.5))
        q = gsqg.conserved(cfg.state())
        H, L = q.H, q.Lmom
        if abs(H) < 1e-3 and abs(L) < 1e-3:
            continue
        _, _, res = gsqg.selfsimilar_rate(cfg)
        assert res > 1e-4
        checked += 1


def test_distance_ratios_constant_along_burst(thm_centered, thm_motion):
    t0 = gsqg.reference_time(thm_motion)
    st = gsqg.VortexState(t=t0, z=thm_centered.a, xi=thm_centered.xi, alpha=1.0)
    traj = gsqg.integrate(st, 6.0 * t0, gsqg.IntegratorConfig(rel_tol=1e-12))
    z = traj.positions
    r1 = np.abs(z[:, 1] - z[:, 2]) / np.abs(z[:, 0] - z[:, 2])
    r2 = np.abs(z[:, 0] - z[:, 1]) / np.abs(z[:, 1] - z[:, 2])
    assert np.ptp(r1) <= 1e-6 * r1[0]
    assert np.ptp(r2) <= 1e-6 * r2[0]


def test_separation_scaling_exponent(thm_centered, thm_motion):
    t0 = gsqg.reference_time(thm_motion)
    st = gsqg.VortexState(t=t0, z=thm_centered.a, xi=thm_centered.xi, alpha=1.0)
    traj = gsqg.integrate(st, 30.0 * t0, gsqg.IntegratorConfig(rel_tol=1e-12))
    w12 = np.abs(traj.positions[:, 0] - traj.positions[:, 1])
    # the singular time of the motion sits at t = 0
    slope, _ = np.polyfit(np.log(traj.times), np.log(w12), 1)
    assert slope == pytest.approx(1.0 / 3.0, abs=1e-3)


# ---------------------------------------------------------------- io

def test_config_json_roundtrip(thm_cfg):
    back = gsqg.TripleConfig.from_json(thm_cfg.to_json())
    assert np.array_equal(back.a, thm_cfg.a)
    assert np.array_equal(back.xi, thm_cfg.xi)
    assert back.alpha == thm_cfg.alpha


@pytest.mark.parametrize("old, new", [('"intensities": [1.0', '"intensities": [NaN'),
                                      ('"positions": [[0.5', '"positions": [[NaN'),
                                      ('"positions": [[0.5', '"positions": [[Infinity')])
def test_config_json_rejects_non_finite(thm_cfg, old, new):
    text = thm_cfg.to_json()
    assert old in text
    with pytest.raises(DomainError):
        gsqg.TripleConfig.from_json(text.replace(old, new))


@pytest.mark.parametrize("change", [
    dict(alpha=np.nan), dict(alpha=0.0), dict(alpha=2.0), dict(alpha=3.5),
    dict(a=[np.nan, 1.0, 1j]), dict(xi=[1.0, np.inf, 1.0]), dict(xi=[1.0, 0.0, 1.0]),
    dict(a=[0.0, 1.0, 1.0]), dict(a=[0.0, 1.0], xi=[1.0, 1.0]),
])
def test_config_rejects_bad_vortex_set(change):
    kw = dict(a=np.array([0.0, 1.0, 1j]), xi=np.array([1.0, 1.0, 1.0]), alpha=1.5)
    kw.update(change)
    with pytest.raises(DomainError):
        gsqg.TripleConfig(**kw)
