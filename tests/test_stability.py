import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gsqg
from gsqg.search import _margin_grid, _past_triangle, _reduced_triple, _y_solve_grid
from gsqg.selfsimilar import centered, pair_terms
from gsqg.stability import l_terms, quartic_coefficients, quartic_mu2

from conftest import THM_A
from oracles import l_terms_each_use, quartic_coefficients_each_use


def make_matrix(L13, L14, L23, L24, a=0.5, b=2.0):
    M = np.array([
        [-a - 1j * b, 0, L13, L14],
        [0, -a - 1j * b, L23, L24],
        [np.conj(L13), np.conj(L14), -a + 1j * b, 0],
        [np.conj(L23), np.conj(L24), 0, -a + 1j * b],
    ], dtype=complex)
    return M


# ---------------------------------------------------------------- L matrix

def test_l_matrix_trace_and_structure(thm_centered, thm_report):
    a, b, _ = gsqg.selfsimilar_rate(thm_centered)
    E = thm_report.matrix
    assert -E[0, 0].real == a
    assert np.trace(E) == pytest.approx(-4 * a, rel=1e-12)
    assert E[0, 0] == E[1, 1] == pytest.approx(-a - 1j * b)
    assert E[2, 2] == E[3, 3] == pytest.approx(-a + 1j * b)
    # bottom-left block is the entrywise conjugate of the top-right
    assert np.array_equal(E[2:, :2], np.conj(E[:2, 2:]))
    assert E[0, 1] == E[1, 0] == E[2, 3] == E[3, 2] == 0.0


def test_l_matrix_term_dropout(thm_centered):
    # with xi_3 and xi_1 switched off, the top-right corner keeps only the
    # vortex-1-routed term with the a2/a1 prefactor
    a1, a2, _ = thm_centered.a
    alpha = thm_centered.alpha
    near_zero = 1e-300
    z = thm_centered.a[:, None]
    ca = gsqg.coupling_constant(alpha)
    L13 = l_terms(z, np.array([[near_zero], [1.0], [near_zero]]), ca,
                  pair_terms(z, alpha)[1])[0]
    d = a1 - a2
    bracket = (alpha - 2) * abs(d) ** (alpha - 4) - abs(d) ** (alpha - 2) / d**2
    expect = (-1j * ca / abs(a1) ** 2) * (a2 / a1) * np.conj(a1**2 * 1.0 * bracket)
    assert L13[0] == pytest.approx(expect, rel=1e-13)


def test_l_matrix_rejects_coincident_points(thm_cfg, monkeypatch):
    # the guard sits far below the distance ratio of any triple the reduced
    # construction builds, so the factor moves to either side of the
    # reference triple's ratio
    a = gsqg.center(thm_cfg).a
    d = np.abs(a[:, None] - a[None, :])[np.triu_indices(3, 1)]
    ratio = d.min() / d.max()
    monkeypatch.setattr(gsqg.kernel, "DMIN_FACTOR", ratio * (1 + 1e-9))
    with pytest.raises(gsqg.SingularityError, match="coincident"):
        gsqg.hypothesis_a_check(thm_cfg)
    monkeypatch.setattr(gsqg.kernel, "DMIN_FACTOR", ratio * (1 - 1e-9))
    assert gsqg.hypothesis_a_check(thm_cfg).passed


def _assert_linearization_is_the_each_use_form(z, xi, alpha):
    """l_terms and quartic_coefficients of the triples z, xi (vortex axis
    first) against the forms that compute each term at its use, bit for bit."""
    ca = gsqg.coupling_constant(alpha)
    with np.errstate(all="ignore"):
        z = centered(z, xi)
        br = pair_terms(z, alpha)[1]
        got, want = l_terms(z, xi, ca, br), l_terms_each_use(z, xi, ca, br)
        c_got, c_want = quartic_coefficients(*got), quartic_coefficients_each_use(*got)
    for g, w in zip(got + c_got, want + c_want):
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


_POINT = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(alpha=st.one_of(st.floats(0.05, 1.99), st.floats(2.01, 2.95)), triples=st.lists(
    st.tuples(_POINT, _POINT, _POINT, st.floats(0.1, 3.0), st.floats(-3.0, -0.1),
              st.floats(3.5, 9.0)), min_size=1, max_size=12))
def test_l_terms_are_the_ten_term_sum_bitwise(alpha, triples):
    # three distinct intensities per triple, so that a term read with the
    # wrong xi shows, which xi_1 = xi_2 = 1 of the reduced triples hides
    t = np.array(triples, dtype=complex).T
    _assert_linearization_is_the_each_use_form(t[:3], t[3:].real, alpha)


@pytest.mark.parametrize("alpha", [1.0, 2.13])
def test_l_terms_on_the_desk_grid_are_the_ten_term_sum_bitwise(alpha):
    xs = np.concatenate([[5e-5], np.arange(1e-4, 1.0 - 1e-12, 1e-4), [1.0 - 1e-12]])
    xs = xs[~_past_triangle(xs, alpha)]
    y, valid = _y_solve_grid(xs, alpha)
    z, xi, shaped = _reduced_triple(xs, y, -1)
    assert (valid & shaped).sum() > 4000
    _assert_linearization_is_the_each_use_form(z[:, valid & shaped], xi[:, valid & shaped],
                                               alpha)


# ---------------------------------------------------------------- mu machinery

def test_mu_coefficients_trivial():
    c1, c2 = quartic_coefficients(*make_matrix(1.0, 0.0, 0.0, 1.0)[:2, 2:].flat)
    assert (c1, c2) == (2.0, 1.0)


def test_mu_coefficients_decoupled():
    L13, L24 = 0.7 - 0.2j, -1.1 + 0.4j
    c1, c2 = quartic_coefficients(*make_matrix(L13, 0.0, 0.0, L24)[:2, 2:].flat)
    assert c1 == pytest.approx(abs(L13) ** 2 + abs(L24) ** 2)
    assert c2 == pytest.approx(abs(L13) ** 2 * abs(L24) ** 2)


def test_mu_roots_worked_example():
    # b^2 = 5, c1 = 4, c2 = 3: disc = 4, twice mu^2 in {4, 8}
    disc, lo2, hi2 = quartic_mu2(np.sqrt(5.0), 4.0, 3.0)
    assert disc == 4.0
    assert np.allclose([lo2, hi2], [4.0, 8.0])


def test_mu_roots_complex_failure():
    rep = gsqg.hypothesis_a_check(gsqg.oriented_config(1.0, 0.9))
    assert rep.a_positive and rep.mu is None and not rep.passed
    assert rep.mu_failure.startswith("complex mu^2: c1^2 - 4 c2 = ")


def test_mu_roots_negative_failure():
    rep = gsqg.hypothesis_a_check(gsqg.oriented_config(0.9, 0.7))
    assert rep.a_positive and rep.mu is None and not rep.passed
    assert rep.mu_failure.startswith("negative mu^2: 2 b^2 - c1 - sqrt(disc) = ")


# ---------------------------------------------------------------- eigenvalues

def test_eigen4_cross_checks_mu_roots(thm_report):
    assert thm_report.mu is not None
    eigs = thm_report.eigenvalues
    assert np.max(np.abs(eigs.real + thm_report.a_rate)) <= 1e-8
    assert np.allclose(np.sort(eigs.imag), np.sort(thm_report.mu), atol=1e-8)


def test_repeated_eigenvalues_flagged():
    # c1 = 2, c2 = 1 with b = 2: disc = 0, quartic (mu^2 - 3)^2
    M = make_matrix(1.0, 0.0, 0.0, 1.0, a=0.5, b=2.0)
    disc, lo2, hi2 = quartic_mu2(2.0, *quartic_coefficients(*M[:2, 2:].flat))
    assert disc == 0.0 and lo2 == hi2      # the strict inequality disc > 0 fails
    eigs = np.linalg.eigvals(M)
    assert np.allclose(np.sort(eigs.imag), [-np.sqrt(3), -np.sqrt(3),
                                            np.sqrt(3), np.sqrt(3)], atol=1e-9)
    assert np.allclose(eigs.real, -0.5, atol=1e-12)


# ---------------------------------------------------------------- hypothesis check

def test_hypothesis_passes_on_reference(thm_report):
    assert thm_report.passed
    assert thm_report.mu is not None and len(thm_report.mu) == 4
    assert thm_report.a_rate == pytest.approx(THM_A, abs=1e-12)


def test_hypothesis_fails_below_lower_exponent():
    for x in (0.55, 0.70, 0.85):
        cfg = gsqg.oriented_config(0.9, x)
        assert not gsqg.hypothesis_a_check(cfg).passed


def test_hypothesis_fails_for_relative_equilibrium():
    w = np.exp(2j * np.pi * np.arange(3) / 3)
    cfg = gsqg.TripleConfig(a=w, xi=np.array([1.0, 1.0, 1.0]), alpha=1.5)
    rep = gsqg.hypothesis_a_check(cfg)
    assert not rep.passed and not rep.a_positive
    assert rep.matrix is None and rep.mu_failure == "prerequisites failed"


def test_report_json_has_intermediates(thm_report):
    import json

    obj = json.loads(thm_report.to_json())
    assert obj["passed"] is True
    assert len(obj["mu"]) == 4 and len(obj["eigenvalues"]) == 4
    assert set(obj["L"]) == {"L13", "L14", "L23", "L24"}


# ---------------------------------------------------------------- spectrum invariants

@pytest.mark.parametrize("seed", range(6))
def test_spectrum_conjugation_closed_and_trace(seed):
    rng = np.random.default_rng(seed)
    L = rng.normal(size=4) + 1j * rng.normal(size=4)
    a, b = rng.uniform(0.05, 0.5), rng.uniform(-1, 1)
    M = make_matrix(*L, a=a, b=b)
    eigs = np.linalg.eigvals(M)
    # multiset closure under conjugation
    for lam in eigs:
        assert np.min(np.abs(np.conj(lam) - eigs)) <= 1e-10
    assert np.trace(M) == pytest.approx(-4 * a, rel=1e-10)
    assert np.sum(eigs) == pytest.approx(-4 * a, abs=1e-10)


def test_mu_eigen_agreement_on_sweep_sample():
    # 200 admissible parameter points spread over the open stability window
    pts = []
    for alpha in np.linspace(1.15, 1.95, 9):
        xs = np.arange(0.3, 1.0, 7e-4)
        margin = np.minimum(*_margin_grid(alpha, xs))
        good = xs[margin > 0]
        take = good[:: max(1, len(good) // 24)]
        pts += [(alpha, float(x)) for x in take]
    assert len(pts) >= 200
    worst = 0.0
    for alpha, x in pts[:220]:
        rep = gsqg.hypothesis_a_check(gsqg.oriented_config(alpha, x))
        assert rep.passed
        predicted = np.sort(rep.mu)
        from_eigs = np.sort(rep.eigenvalues.imag)
        worst = max(worst, float(np.max(np.abs(predicted - from_eigs))))
        worst = max(worst, float(np.max(np.abs(rep.eigenvalues.real + rep.a_rate))))
    assert worst <= 1e-7


def test_intensity_scaling_homogeneity(thm_centered):
    # scaling all intensities by lam scales (a, b, L) by lam and leaves the
    # eigenvalue condition's truth value unchanged
    lam = 3.7
    rep0 = gsqg.hypothesis_a_check(thm_centered)
    scaled = gsqg.TripleConfig(a=thm_centered.a, xi=lam * thm_centered.xi,
                               alpha=thm_centered.alpha)
    rep1 = gsqg.hypothesis_a_check(scaled)
    assert rep1.a_rate == pytest.approx(lam * rep0.a_rate, rel=1e-12)
    assert rep1.b_rate == pytest.approx(lam * rep0.b_rate, rel=1e-12)
    assert np.allclose(rep1.matrix[:2, 2:], lam * rep0.matrix[:2, 2:],
                       rtol=1e-12)
    assert (rep1.mu is not None) == (rep0.mu is not None)


# ---------------------------------------------------------------- symmetry properties

_WINDOW_ALPHAS = (1.1, 1.3, 1.5, 1.7, 1.9, 2.05, 2.1)


@functools.cache
def _window(alpha):
    rec = gsqg.sweep(alpha, alpha, coarse=1e-3, refine_tol=1e-6).records[0]
    return rec.x_minus, rec.x_plus


def _admissible_triple(alpha, u):
    """Burst triple at the fraction u of the admissible x window."""
    lo, hi = _window(alpha)
    return gsqg.oriented_config(alpha, lo + u * (hi - lo))


def _assert_quartic_data_close(rep, a, b, c1, c2):
    """(a, b) to 1e-12 of |a + ib|, c1 to 1e-12 relative and c2 to 1e-12
    of c1^2, the size of its terms: c2 passes through 0 inside the window
    at alpha = 1.9, where its own relative change reaches 3e-11."""
    got = np.array([rep.a_rate, rep.b_rate, rep.c1, rep.c2])
    scale = np.array([np.hypot(a, b), np.hypot(a, b), abs(c1), c1 * c1])
    assert np.all(np.abs(got - [a, b, c1, c2]) <= 1e-12 * scale)


@settings(max_examples=30, deadline=None)
@given(alpha=st.sampled_from(_WINDOW_ALPHAS), u=st.floats(0.05, 0.95),
       half_turn=st.booleans(), wx=st.floats(-2.0, 2.0), wy=st.floats(-2.0, 2.0))
def test_rates_and_quartic_invariant_under_translation_and_half_turn(alpha, u, half_turn,
                                                                      wx, wy):
    cfg = _admissible_triple(alpha, u)
    base = gsqg.hypothesis_a_check(cfg)
    a = -cfg.a if half_turn else cfg.a
    rep = gsqg.hypothesis_a_check(gsqg.TripleConfig(a=a + (wx + 1j * wy), xi=cfg.xi,
                                                    alpha=alpha))
    _assert_quartic_data_close(rep, base.a_rate, base.b_rate, base.c1, base.c2)
    assert rep.passed == base.passed


@pytest.mark.xfail(strict=True, reason=(
    "l_terms adds the rotation-invariant (alpha-2)|d|^(alpha-4) to |d|^(alpha-2)/d^2, "
    "which turns by exp(-2i phi) under a rotation by phi, so c1, c2 and the verdict "
    "depend on the orientation of the triple; a quarter turn fails the reference"))
def test_quartic_invariant_under_quarter_turn(thm_cfg, thm_report):
    rep = gsqg.hypothesis_a_check(gsqg.TripleConfig(a=1j * thm_cfg.a, xi=thm_cfg.xi,
                                                    alpha=thm_cfg.alpha))
    _assert_quartic_data_close(rep, thm_report.a_rate, thm_report.b_rate, thm_report.c1,
                               thm_report.c2)
    assert rep.passed == thm_report.passed


@settings(max_examples=30, deadline=None)
@given(alpha=st.sampled_from(_WINDOW_ALPHAS), u=st.floats(0.05, 0.95),
       lam=st.floats(0.1, 10.0))
def test_intensity_scaling_scales_rates_and_quartic(alpha, u, lam):
    # (a, b) and L scale by lam, so c1 by lam^2 and c2 by lam^4
    cfg = _admissible_triple(alpha, u)
    base = gsqg.hypothesis_a_check(cfg)
    rep = gsqg.hypothesis_a_check(gsqg.TripleConfig(a=cfg.a, xi=lam * cfg.xi, alpha=alpha))
    _assert_quartic_data_close(rep, lam * base.a_rate, lam * base.b_rate, lam**2 * base.c1,
                               lam**4 * base.c2)
    assert rep.passed == base.passed


# ---------------------------------------------------------------- propagator

def test_propagator_identity_at_t1(thm_report):
    assert gsqg.propagator_norm(thm_report.matrix, 1.0, 1.0) == pytest.approx(1.0)


@pytest.mark.parametrize("alpha, matrix", [
    (4.0, "reference"), (np.nan, "reference"), (5.0, "reference"), (2.0, "reference"),
    (-1.0, "reference"), (1.0, None), (1.0, np.eye(2, dtype=complex))])
def test_propagator_refuses_alpha_off_its_domain_and_a_matrix_not_4x4(thm_report, alpha,
                                                                       matrix):
    # None is the matrix of a report whose prerequisites failed
    M = thm_report.matrix if isinstance(matrix, str) else matrix
    with pytest.raises(gsqg.DomainError):
        gsqg.propagator_norm(M, alpha, 0.5)


def test_propagator_exact_power_for_normal_matrix():
    # zero off-diagonal block: the matrix is normal with Re(eig) = -a
    M = make_matrix(0.0, 0.0, 0.0, 0.0, a=0.25, b=0.8)
    alpha = 1.0
    for t in (0.5, 1e-2, 1e-5):
        assert gsqg.propagator_norm(M, alpha, t) == pytest.approx(
            t ** (-1.0 / (4 - alpha)), rel=1e-12)


def test_propagator_slope_asymptotics(thm_report):
    # the reference matrix is far from normal: the decay prefactor kappa
    # oscillates boundedly, so the power law only emerges over very many
    # decades; the pinned window [1e-6, 1e-1] is recorded separately in
    # the acceptance suite
    M = thm_report.matrix
    ts = np.geomspace(1e-60, 1e-1, 40)
    norms = np.array([gsqg.propagator_norm(M, 1.0, t) for t in ts])
    slope, _ = np.polyfit(np.log(ts), np.log(norms), 1)
    assert slope == pytest.approx(-1.0 / 3.0, abs=0.05)
    kappa = norms * ts ** (1.0 / 3.0)
    assert np.all(kappa > 1.0) and np.all(kappa < 2e3)   # recorded, bounded
