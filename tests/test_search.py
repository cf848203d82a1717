import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gsqg
from gsqg import search
from gsqg.cli import main
from gsqg.kernel import DomainError, coupling_constant
from gsqg.search import (EPS_Y, K_SECTION, Y_TOL, YMAX, NoRootError, _margin_grid,
                         _past_triangle, _reduced_triple, _refine, _side_constant,
                         _side_residual, _y_solve_grid)
from gsqg.selfsimilar import centered, pair_terms, vortex_rates
from gsqg.stability import l_terms, quartic_coefficients, quartic_mu2

from conftest import THM_X, THM_Y, THM_XI3
from oracles import pair_terms_mirrored, vortex_rates_mirrored


# ---------------------------------------------------------------- y_from_x

def test_y_reference_value():
    assert gsqg.y_from_x(THM_X, 1.0) == pytest.approx(1.30353, abs=5e-5)


def test_y_at_x_equal_one():
    for alpha in (0.7, 1.0, 1.4, 2.3):
        assert gsqg.y_from_x(1.0, alpha) == pytest.approx(1.0, abs=1e-10)


def test_y_matches_cardano_spot():
    assert gsqg.y_from_x(0.8, 1.0) == pytest.approx(gsqg.cardano_y(0.8), abs=1e-12)


def test_y_cardano_oracle_agreement():
    rng = np.random.default_rng(5)
    xs = rng.uniform(0.51, 1.0, 100)
    for x in xs:
        assert abs(gsqg.y_from_x(float(x), 1.0) - gsqg.cardano_y(float(x))) <= 1e-10


def test_y_residual_meets_tolerance():
    for x, alpha in [(0.6, 1.3), (0.45, 2.5), (0.9, 0.7)]:
        y = gsqg.y_from_x(x, alpha)
        g = y**2 - y ** (alpha - 2) - x ** (alpha - 2) + x**2
        assert abs(g) <= 1e-11


def test_y_no_root_error():
    # for tiny x the root lies beyond the bracket cap
    with pytest.raises(NoRootError):
        gsqg.y_from_x(0.01, 1.0)


@pytest.mark.parametrize("x", [0.0, -0.5, 1.5, np.nan])
def test_y_refuses_x_outside_its_domain(x):
    with pytest.raises(DomainError, match=r"x must lie in \(0, 1\]"):
        gsqg.y_from_x(x, 1.0)


# ---------------------------------------------------------------- cardano

def test_cardano_reference_and_unit():
    assert gsqg.cardano_y(THM_X) == pytest.approx(1.30353, abs=5e-5)
    assert gsqg.cardano_y(1.0) == pytest.approx(1.0, rel=1e-14)


def test_cardano_discriminant_bound():
    xs = np.arange(0.5 + 1e-5, 1.0, 1e-5)
    assert float(np.min(gsqg.cardano_discriminant(xs))) >= 0.0515


def test_cardano_discriminant_positive_at_both_ends_of_its_domain():
    # D increases on (1/2, 1], so its ends bound it: cardano_y needs no D <= 0 refusal
    assert gsqg.cardano_discriminant(np.nextafter(0.5, 1.0)) == pytest.approx(0.0515, abs=1e-4)
    assert gsqg.cardano_discriminant(1.0) == 0.25
    assert np.isfinite(gsqg.cardano_y(np.nextafter(0.5, 1.0)))


def test_cardano_domain():
    with pytest.raises(DomainError):
        gsqg.cardano_y(0.5)
    with pytest.raises(DomainError):
        gsqg.cardano_y(1.2)


# ---------------------------------------------------------------- construction

def test_reduced_config_reference_values(thm_cfg):
    assert thm_cfg.xi[2] == pytest.approx(THM_XI3, abs=5e-5)
    assert abs(thm_cfg.a[2].imag) == pytest.approx(0.69426, abs=5e-5)
    assert abs(thm_cfg.a[2].real) == pytest.approx(0.60326, abs=5e-5)


def test_construction_side_identities():
    for alpha, x in [(1.0, THM_X), (1.4, 0.6), (2.4, 0.45), (0.8, 0.85)]:
        y = gsqg.y_from_x(x, alpha)
        cfg = gsqg.oriented_config(alpha, x)
        assert abs(cfg.a[0] - cfg.a[2]) == pytest.approx(x, abs=1e-12)
        assert abs(cfg.a[1] - cfg.a[2]) == pytest.approx(y, abs=1e-12)


def test_isoceles_third_vortex_on_axis():
    # x = y puts the third vortex on the imaginary axis (the isoceles
    # shape only sits on the side curve at x = y = 1, so probe the
    # constructor alone)
    z, _, valid = _reduced_triple(np.array([0.9]), np.array([0.9]), -1)
    assert valid[0]
    assert z[2, 0].real == 0.0


def test_constructed_H_L_vanish():
    for alpha, x in [(1.0, 0.7), (1.6, 0.55), (2.2, 0.4)]:
        cfg = gsqg.oriented_config(alpha, x)
        q = gsqg.conserved(cfg.state())
        H, L = q.H, q.Lmom
        assert abs(H) <= 1e-10 and abs(L) <= 1e-10


# log-uniform below 1, where H carries a factor 1 / c_alpha of about 2 pi / alpha
_MASK_ALPHA = st.one_of(
    st.floats(-12.0, 0.0).map(lambda e: 10.0**e),
    st.floats(1.0, 2.0 - gsqg.ALPHA_GUARD, exclude_max=True),
    st.floats(2.0 + gsqg.ALPHA_GUARD, 3.0, exclude_min=True, exclude_max=True))


@settings(max_examples=300, deadline=None)
@given(alpha=_MASK_ALPHA, x=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(alpha=1e-7, x=0.8)      # |H| = 2.1e-8 here, and 4.1e-2 at the next
@example(alpha=1e-12, x=0.9)
def test_oriented_config_refuses_exactly_where_the_masks_do(alpha, x):
    # one rule for a triple: the side solve's mask and the proper-triangle
    # mask, which `_margin_grid` applies.  A built triple meets H = L = 0 to
    # the solve's residual: c_alpha H = -2 g(y) / (x^2 + y^2) with |g| <= Y_TOL,
    # plus rounding relative to the terms of each sum
    with np.errstate(all="ignore"):     # x^(alpha-2) overflows for tiny x
        y, solved = _y_solve_grid(np.array([x]), alpha)
        shaped = _reduced_triple(np.array([x]), y, 1)[2]
    if not (solved & shaped)[0]:
        with pytest.raises(DomainError):
            gsqg.oriented_config(alpha, x)
        return
    cfg = gsqg.oriented_config(alpha, x)
    assert (cfg.a[2].imag < 0.0) == (alpha < 2.0)
    st_ = cfg.state()
    q = gsqg.conserved(st_)
    j, k = np.triu_indices(3, 1)
    d = np.abs(cfg.a[j] - cfg.a[k])
    pair = np.abs(cfg.xi[j] * cfg.xi[k])
    eps = np.finfo(float).eps
    y = float(y[0])
    assert abs(st_.c_alpha * q.H) <= (2.0 * Y_TOL / (x * x + y * y)
                                      + 16 * eps * np.sum(2.0 * pair * d ** (alpha - 2.0))), \
        (alpha, x)
    assert abs(q.Lmom) <= 16 * eps * np.sum(2.0 * pair * d**2), (alpha, x)


def test_oriented_config_refuses_x_outside_its_domain():
    # x = 1 has a side, y = 1, but its triple is equilateral: a relative equilibrium
    for x in (0.0, -0.5, 1.0, np.nan):
        with pytest.raises(DomainError, match=r"x must lie in \(0, 1\)"):
            gsqg.oriented_config(1.0, x)


def test_oriented_config_rejects_no_triangle():
    # at alpha = 1 the side y(x) lies past 1 + x for x up to about 0.3
    for x in (0.05, 0.3):
        with pytest.raises(DomainError, match="give no proper triangle"):
            gsqg.oriented_config(1.0, x)


def test_burst_branch_signs():
    # the burst branch carries Im(a3) < 0 below alpha = 2 and Im(a3) > 0
    # above; the mirror image has the opposite rate with equal magnitude
    for alpha, x in [(1.0, THM_X), (1.5, 0.75), (2.5, 0.7)]:
        burst = gsqg.oriented_config(alpha, x)
        a_b, _, _ = gsqg.selfsimilar_rate(gsqg.center(burst))
        assert a_b > 0
        assert (burst.a[2].imag < 0) == (alpha < 2)
        other = gsqg.TripleConfig(a=np.conj(burst.a), xi=burst.xi, alpha=alpha)
        a_c, _, _ = gsqg.selfsimilar_rate(gsqg.center(other))
        assert a_c < 0
        assert abs(a_c + a_b) <= 1e-12 * abs(a_b)


# ---------------------------------------------------------------- admissibility

def _one_point_check(x, alpha):
    """The check `gsqg find-config --x` runs, or None where `oriented_config`
    rejects the point (no side, no triangle)."""
    try:
        return gsqg.hypothesis_a_check(gsqg.oriented_config(alpha, x))
    except DomainError:
        return None


def _report_margin(report):
    """min(disc, lo2) of the quartic from the report's (b_rate, c1, c2)."""
    disc, lo2, _ = quartic_mu2(*(np.array([v]) for v in
                                 (report.b_rate, report.c1, report.c2)))
    return float(np.minimum(disc, lo2)[0])


def test_admissible_reference_point():
    report = _one_point_check(THM_X, 1.0)
    assert report is not None and report.passed
    assert _report_margin(report) > 0


def test_inadmissible_below_lower_exponent():
    xs = np.arange(1e-3, 1.0, 1e-3)
    assert not np.any(np.minimum(*_margin_grid(0.9, xs)) > 0)


def test_inadmissible_small_x():
    report = _one_point_check(0.05, 1.0)
    assert report is None or not report.passed


def _interval(alpha, coarse, refine_tol):
    """The x_interval record of alpha at another grid pitch and refinement
    width: the one record of a sweep of alpha alone."""
    return gsqg.sweep(alpha, alpha, coarse=coarse, refine_tol=refine_tol).records[0]


def _scalar_grid_points():
    """The 40 seeded points of the earlier sign check, 260 more on both
    sides of alpha = 2, and 36 inside the admissible windows."""
    rng = np.random.default_rng(8)
    for _ in range(40):
        alpha = float(rng.uniform(0.9, 2.25))
        if abs(alpha - 2.0) <= 2e-3:
            continue
        yield alpha, float(rng.uniform(0.3, 0.99))
    rng = np.random.default_rng(11)
    for _ in range(260):
        alpha = float(rng.uniform(0.9, 2.6))
        if abs(alpha - 2.0) <= 2e-3:
            continue
        yield alpha, float(rng.uniform(0.05, 0.999))
    for alpha in (1.2, 1.5, 1.8, 1.95, 2.05, 2.1):
        rec = _interval(alpha, 1e-3, 1e-6)
        for x in rng.uniform(rec.x_minus, rec.x_plus, 6):
            yield alpha, float(x)


def test_scalar_margin_is_the_grid_margin_bitwise():
    reached = {False: 0, True: 0}
    passed = 0
    for alpha, x in _scalar_grid_points():
        report = _one_point_check(x, alpha)
        grid = np.minimum(*_margin_grid(alpha, np.array([x])))[0]
        if report is None or report.matrix is None:
            # rejected before the quartic: no side, no triangle or no burst
            assert (report is None or not report.passed) and not grid > 0.0, (alpha, x)
            continue
        margin = _report_margin(report)
        assert margin.hex() == float(grid).hex(), (alpha, x)
        assert report.passed == (margin > 0.0), (alpha, x)
        reached[alpha > 2.0] += 1
        passed += report.passed
    assert reached[False] >= 100 and reached[True] >= 50 and passed >= 30


def _ulps_from(x, k):
    """The float k ulps above the positive float x (below for k < 0)."""
    return float((np.float64(x).view(np.int64) + k).view(np.float64))


@pytest.mark.parametrize("alpha", [0.98, 1.0, 1.5, 1.9, 2.05, 2.13])
def test_closed_form_is_the_grid_margin_next_to_a_window_edge(alpha):
    # `passed` is not asserted: within some 32 ulps inside an edge LAPACK's
    # eigenvalues can lie further than EIG_TOL from -a + i mu, where the matrix
    # is close to a Jordan block (README: the caveats next to a window edge)
    rec = gsqg.sweep(alpha, alpha, refine_tol=1e-300).records[0]
    steps = [0] + [s * 2**j for j in range(21) for s in (1, -1)]
    probes = 0
    for x in {_ulps_from(edge, k) for edge in (rec.x_minus, rec.x_plus) for k in steps}:
        if not 0.0 < x < 1.0:
            continue
        report = gsqg.hypothesis_a_check(gsqg.oriented_config(alpha, x))
        grid = np.minimum(*_margin_grid(alpha, np.array([x])))[0]
        if report.matrix is None:
            # stopped before the quartic only where x_+ is the end of the x
            # grid and the rate is below RATE_TOL (the strict xfail below)
            assert report.a_rate <= gsqg.RATE_TOL and x > 1.0 - 1e-10, (alpha, x)
            continue
        assert (report.mu is not None) == (grid > 0.0), (alpha, x)
        assert _report_margin(report).hex() == float(grid).hex(), (alpha, x)
        probes += 1
    assert probes >= 40


@pytest.mark.xfail(strict=True, reason=(
    "x_+ = 0.999999999999, the end of the x grid, at alpha = 2.1: both margin "
    "components are positive, but the rate a = 2.6e-12 is below RATE_TOL, so "
    "`verdict` reads a relative equilibrium and the check fails"))
def test_edge_at_the_grid_end_passes_the_check():
    rec = gsqg.x_interval(2.1)
    assert gsqg.hypothesis_a_check(gsqg.oriented_config(2.1, rec.x_plus)).passed


def _trial_and_flip(alpha, x):
    """The burst triple found by trial: the Im(a_3) < 0 branch, rebuilt on
    the other branch where its rate is negative.  None where the sides give
    no proper triangle."""
    xs, y = np.array([x]), np.array([gsqg.y_from_x(x, alpha)])
    z, xi, valid = _reduced_triple(xs, y, -1)
    if not valid[0]:
        return None
    trial = gsqg.TripleConfig(a=z[:, 0], xi=xi[:, 0], alpha=alpha)
    if gsqg.selfsimilar_rate(gsqg.center(trial))[0] < 0.0:
        z, xi, _ = _reduced_triple(xs, y, +1)
    return z[:, 0], xi[:, 0]


def test_oriented_config_is_the_trial_and_flip_bitwise():
    built = {False: 0, True: 0}
    for alpha, x in _scalar_grid_points():
        try:
            want = _trial_and_flip(alpha, x)
        except NoRootError:
            want = None
        if want is None:
            with pytest.raises(DomainError):
                gsqg.oriented_config(alpha, x)
            continue
        cfg = gsqg.oriented_config(alpha, x)
        assert cfg.a.tobytes() == want[0].tobytes(), (alpha, x)
        assert cfg.xi.tobytes() == want[1].tobytes(), (alpha, x)
        built[alpha > 2.0] += 1
    assert built[False] >= 100 and built[True] >= 50


# ---------------------------------------------------------------- intervals

def test_interval_at_alpha_one_brackets_reference_x():
    rec = gsqg.x_interval(1.0)
    assert not rec.empty
    assert rec.x_minus < THM_X < rec.x_plus


def test_interval_found_even_when_thinner_than_grid():
    # at alpha just above the closing exponent the window is far thinner
    # than the 1e-3 pitch; it lies between a disc and a lo2 root in one
    # grid cell, which refinement must order and find
    rec = _interval(0.98, 1e-3, 1e-7)
    assert not rec.empty
    assert rec.x_plus - rec.x_minus < 1e-3


def test_interval_empty_outside():
    assert _interval(0.9, 5e-4, 1e-7).empty
    assert _interval(2.2, 5e-4, 1e-7).empty


def test_interval_boundary_refinement_consistent(tmp_path):
    # find-config's verdict agrees with the window x_interval reports
    rec = _interval(1.5, 1e-3, 1e-7)
    inside = 0.5 * (rec.x_minus + rec.x_plus)
    codes = [main(["find-config", "--alpha", "1.5", "--x", repr(x),
                   "--out", str(tmp_path / f"cfg{i}.json")])
             for i, x in enumerate((inside, rec.x_minus - 1e-5, rec.x_plus + 1e-5))]
    assert codes == [0, 2, 2]


# ---------------------------------------------------------------- sweep

def test_small_sweep_and_csv_determinism():
    kw = dict(alpha_step=2e-2, coarse=1e-3, refine_tol=1e-6)
    res1 = gsqg.sweep(1.40, 1.58, jobs=1, **kw)
    res2 = gsqg.sweep(1.40, 1.58, jobs=2, **kw)
    csv1, csv2 = gsqg.sweep_csv(res1), gsqg.sweep_csv(res2)
    assert csv1 == csv2
    assert csv1.splitlines()[0] == "alpha,x_minus,x_plus,status"
    assert all(not r.empty for r in res1.records)


def test_sweep_skips_guard_band():
    res = gsqg.sweep(1.995, 2.005, alpha_step=1e-3, coarse=2e-3, refine_tol=1e-6)
    assert all(abs(r.alpha - 2.0) > gsqg.ALPHA_GUARD for r in res.records)


def test_sweep_curve_continuity():
    res = gsqg.sweep(1.45, 1.55, alpha_step=2e-3, coarse=1e-3, refine_tol=1e-6)
    recs = [r for r in res.records if not r.empty]
    for a, b in zip(recs, recs[1:]):
        assert abs(a.x_minus - b.x_minus) < 10 * 1e-3
        assert abs(a.x_plus - b.x_plus) < 10 * 1e-3


def test_sweep_csv_writes_empty_rows():
    # every alpha of this range lies below alpha_- = 0.9708
    res = gsqg.sweep(0.90, 0.96, alpha_step=2e-2, coarse=1e-3)
    assert res.alpha_minus is None and res.alpha_plus is None
    assert gsqg.sweep_csv(res).splitlines() == [
        "alpha,x_minus,x_plus,status", "0.9,,,empty", "0.92,,,empty", "0.94,,,empty",
        "0.96,,,empty"]


@pytest.mark.parametrize("lo, hi", [(0.97, 0.9712), (2.134, 2.1352)])
def test_edge_sweeps_independent_of_pitch(lo, hi):
    # 13 alphas at step 1e-4 across each critical exponent: which are empty,
    # and so alpha_- and alpha_+, do not depend on the bracketing pitch
    results = [gsqg.sweep(lo, hi, alpha_step=1e-4, coarse=c, refine_tol=1e-7)
               for c in (1e-3, 1e-4, 1e-5)]
    empty = [[r.empty for r in res.records] for res in results]
    assert len(empty[0]) == 13 and any(empty[0]) and not all(empty[0])
    assert empty[1] == empty[0] and empty[2] == empty[0]
    ends = [(res.alpha_minus.hex(), res.alpha_plus.hex()) for res in results]
    assert ends[1] == ends[0] and ends[2] == ends[0]


# ---------------------------------------------------------------- oracles
#
# The margin grid with every pair term computed where it is used, which
# the shared pipeline must reproduce bit for bit; the roots of the margin
# components by one-point bisection; and the search refining one bracket
# and one point at a time, which the lockstep search must reproduce bit
# for bit.

def _seq_margin_grid(alpha, xs):
    ca = coupling_constant(alpha)
    xs = np.asarray(xs, dtype=float)
    y, valid = _y_solve_grid(xs, alpha)
    with np.errstate(all="ignore"):
        valid &= y > 1.0 - xs
        im2 = y**2 - (xs**2 - y**2 - 1.0) ** 2 / 4.0
        valid &= im2 > 0.0
        xi3 = -1.0 / (xs**2 + y**2)
        valid &= xi3 > -2.0
        im = np.sqrt(np.where(valid, im2, 1.0))
        a3 = (y**2 - xs**2) / 2.0 - 1j * im
        z1 = np.full_like(a3, 0.5)
        z2 = np.full_like(a3, -0.5)
        ximat = np.stack([np.ones_like(xs), np.ones_like(xs), xi3])
        shift = xi3 * a3 / (2.0 + xi3)
        c1_, c2_, c3_ = z1 - shift, z2 - shift, a3 - shift

        def kern(d):
            return np.abs(d) ** (alpha - 2.0) / d

        d12, d13, d23 = c1_ - c2_, c1_ - c3_, c2_ - c3_
        vb1 = 1j * ca * (ximat[1] * kern(d12) + ximat[2] * kern(d13))
        vb2 = 1j * ca * (ximat[0] * kern(-d12) + ximat[2] * kern(d23))
        vb3 = 1j * ca * (ximat[0] * kern(-d13) + ximat[1] * kern(-d23))
        q = (vb1 / np.conj(c1_) + vb2 / np.conj(c2_) + vb3 / np.conj(c3_)) / 3.0
        b = -np.imag(q)
        pre = -1j * ca / np.abs(c1_) ** 2

        def term(m, d):
            br = (alpha - 2.0) * np.abs(d) ** (alpha - 4.0) - np.abs(d) ** (alpha - 2.0) / d**2
            return pre * np.conj(c1_**2 * m * br)

        L13 = term(ximat[2], c2_ - c3_) + term(ximat[0], c2_ - c1_) \
            + (c2_ / c1_) * term(ximat[1], c1_ - c2_)
        L14 = term(ximat[2], c2_ - c3_) + (c2_ / c1_) * term(ximat[2], c1_ - c3_)
        L23 = term(ximat[1], c3_ - c2_) + (c3_ / c1_) * term(ximat[1], c1_ - c2_)
        L24 = term(ximat[1], c3_ - c2_) + term(ximat[0], c3_ - c1_) \
            + (c3_ / c1_) * term(ximat[1], c1_ - c3_)
        c1c = np.abs(L13) ** 2 + np.abs(L24) ** 2 + 2.0 * np.real(L23 * np.conj(L14))
        c2c = (np.abs(L13) ** 2 * np.abs(L24) ** 2 + np.abs(L23) ** 2 * np.abs(L14) ** 2
               - 2.0 * np.real(L14 * np.conj(L13) * L23 * np.conj(L24)))
        disc = c1c * c1c - 4.0 * c2c
        m2 = 2.0 * b * b - c1c - np.sqrt(np.where(disc > 0.0, disc, 0.0))
        m = np.minimum(disc, m2)
        return np.where(valid & np.isfinite(m), m, -np.inf)


def _seq_component_roots(alpha, coarse):
    """Brackets (component, lo, hi) no wider than 1e-9 of every sign change
    of disc (0) and lo2 (1) between neighbours of the padded grid, by
    one-point bisection."""
    xs = np.concatenate([[coarse * 0.5], np.arange(coarse, 1.0 - 1e-12, coarse), [1.0 - 1e-12]])
    pos = _margin_grid(alpha, xs) > 0.0
    roots = []
    for c, i in zip(*np.nonzero(pos[:, 1:] != pos[:, :-1])):
        lo, hi = xs[i], xs[i + 1]
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if (_margin_grid(alpha, np.array([mid]))[c, 0] > 0.0) == pos[c, i]:
                lo = mid
            else:
                hi = mid
        roots.append((c, lo, hi))
    return roots


def _seq_refine(alpha, brackets, tol):
    """Final (lo, hi) of each bracket (comp, lo, hi, up) of _refine, one
    bracket after another, each evaluating its K-section points one at a
    time up to the first with the sign of hi."""
    brackets = [list(b) for b in brackets]
    while True:
        live = [k for k, (c, lo, hi, _) in enumerate(brackets)
                if np.nextafter(lo, hi) < hi
                and (hi - lo > tol or any(c2 != c and lo < hi2 and lo2 < hi
                                          for c2, lo2, hi2, _ in brackets))]
        if not live:
            return [(lo, hi) for _, lo, hi, _ in brackets]
        for k in live:
            c, lo, hi, up = brackets[k]
            step = (hi - lo) / K_SECTION
            prev = lo
            for j in range(1, K_SECTION):
                x = lo + j * step
                if (_margin_grid(alpha, np.array([x]))[c, 0] > 0.0) == up:
                    brackets[k][1:3] = prev, x
                    break
                prev = x
            else:
                brackets[k][1:3] = prev, hi


def _seq_x_interval(alpha, coarse, tol):
    """Runs of x_interval in x order: the runs of each component walked
    along the padded grid, their inner ends refined by _seq_refine, and
    every overlap of a disc run with a lo2 run."""
    xs = np.concatenate([[coarse * 0.5], np.arange(coarse, 1.0 - 1e-12, coarse), [1.0 - 1e-12]])
    pos = _margin_grid(alpha, xs) > 0.0
    n = len(xs)
    cells = [(c, i) for c in (0, 1) for i in range(n - 1) if pos[c, i] != pos[c, i + 1]]
    final = _seq_refine(alpha, [(c, xs[i], xs[i + 1], pos[c, i + 1]) for c, i in cells], tol)
    bound = {cell: 0.5 * (lo + hi) for cell, (lo, hi) in zip(cells, final)}
    runs = ([], [])
    for c in (0, 1):
        for i in range(n):
            if pos[c, i] and (i == 0 or not pos[c, i - 1]):
                start = xs[0] if i == 0 else bound[c, i - 1]
            if pos[c, i] and (i == n - 1 or not pos[c, i + 1]):
                runs[c].append((start, xs[-1] if i == n - 1 else bound[c, i]))
    return tuple(sorted((max(a0, b0), min(a1, b1)) for a0, a1 in runs[0]
                        for b0, b1 in runs[1] if max(a0, b0) < min(a1, b1)))


def _bits(v):
    """Exact bit pattern of a float, or of nested tuples of floats."""
    if isinstance(v, tuple):
        return tuple(_bits(w) for w in v)
    return float(v).hex()


# interior alphas, the empty alphas on either side of alpha_- = 0.9708 and
# alpha_+ = 2.1343, and the sub-pitch window at alpha = 0.98
_ORACLE_CASES = (
    [(a, 1e-4, 1e-7) for a in (0.9, 0.96, 0.969, 0.9705, 0.9708, 0.971, 0.972,
                               0.975, 1.0, 1.25, 1.5, 1.75, 1.99, 2.01, 2.1,
                               2.133, 2.134, 2.1343, 2.135, 2.14, 2.2, 2.5)]
    + [(a, 1e-3, 1e-7) for a in (0.95, 0.97, 0.98, 0.99, 1.1, 1.4, 1.9, 2.05,
                                 2.13, 2.137, 2.3)]
    + [(a, 5e-4, 1e-6) for a in (0.9712, 1.2, 1.6, 2.12, 2.1345)]
    + [(1.5, 1e-3, 3e-9), (0.98, 2e-3, 1e-8)]
)


@pytest.mark.parametrize("alpha, coarse, tol", _ORACLE_CASES)
def test_x_interval_boundaries_are_component_roots(alpha, coarse, tol):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = _interval(alpha, coarse, tol)
    roots = _seq_component_roots(alpha, coarse)
    # every run boundary off the grid ends lies within tol of a root
    bounds = [b for run in rec.runs for b in run if b not in (coarse * 0.5, 1.0 - 1e-12)]
    for b in bounds:
        assert any(lo - tol <= b <= hi + tol for _, lo, hi in roots), (b, roots)
    for c, lo, hi in roots:
        # a 1e-9-pitch scan across the root, tol wide on either side
        scan = np.arange(lo - tol, hi + tol + 1e-9, 1e-9)
        m = _margin_grid(alpha, scan) > 0.0
        assert np.any(m[c, 1:] != m[c, :-1])
        if rec.empty:
            assert not np.any(m[0] & m[1]), (c, lo, hi)
        elif np.all(m[1 - c, [0, -1]]):
            # a root inside the other component's positive set bounds a run
            assert any(lo - tol <= b <= hi + tol for b in bounds), (c, lo, hi, rec.runs)
    assert rec.empty == (not rec.runs)
    if not rec.empty:
        assert (rec.x_minus, rec.x_plus) == max(rec.runs, key=lambda r: r[1] - r[0])


@pytest.mark.parametrize("alpha, coarse, tol", _ORACLE_CASES)
def test_x_interval_matches_sequential_search_bitwise(alpha, coarse, tol):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = _interval(alpha, coarse, tol)
    runs = _seq_x_interval(alpha, coarse, tol)
    assert _bits(rec.runs) == _bits(runs)
    assert rec.empty == (not runs)
    if runs:
        widest = max(runs, key=lambda r: r[1] - r[0])
        assert _bits((rec.x_minus, rec.x_plus)) == _bits(widest)


@pytest.mark.parametrize("lo, hi, step, exact", [
    # NumPy's scalar fast paths of ** (exponents -1 and 0.5) give the grid
    # other bits than the per-point alphas of a refinement round here
    (1.0, 1.03, 1e-2, 1.0), (2.47, 2.5, 1e-2, 2.5),
    # disc and lo2 roots share grid cells next to alpha_-
    (0.969, 0.975, 1e-3, None)])
def test_sweep_records_match_sequential_search_bitwise(lo, hi, step, exact):
    coarse, tol = 1e-3, 1e-7
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = gsqg.sweep(lo, hi, alpha_step=step, coarse=coarse, refine_tol=tol)
    alphas = [r.alpha for r in res.records]
    assert exact is None or exact in alphas
    for rec in res.records:
        runs = _seq_x_interval(rec.alpha, coarse, tol)
        assert _bits(rec.runs) == _bits(runs), rec.alpha
        assert rec.empty == (not runs)
        if runs:
            widest = max(runs, key=lambda r: r[1] - r[0])
            assert _bits((rec.x_minus, rec.x_plus)) == _bits(widest)


def test_oracle_cases_cross_both_exponents():
    for alpha in (0.969, 0.9705, 2.135, 2.14):
        assert gsqg.x_interval(alpha).empty
    for alpha in (0.971, 2.133):
        assert not gsqg.x_interval(alpha).empty


def _screened_improper(alpha, xs):
    """Mask of the x that pass the triangle screen and still give no proper
    triangle.  `_margin_grid` runs them through the stability pipeline with
    the proper triangles and masks them at the scatter; on the desk grid
    none is set, and next to the screen edge some are."""
    with np.errstate(all="ignore"):
        y, valid = _y_solve_grid(xs, alpha)
        return ~_past_triangle(xs, alpha) & ~(valid & _reduced_triple(xs, y, -1)[2])


@pytest.mark.parametrize("alpha", [0.9, 0.9708, 1.0, 1.5, 2.1343, 2.5])
def test_margin_grid_matches_sequential_form_bitwise(alpha):
    # the grid, and scans across the screen edge, where some screened x
    # give no proper triangle
    xs = np.arange(1e-4, 1.0, 1e-4)
    assert len(xs) == 9999
    compacts = set()
    for xs in [xs, *_screen_edge_scans(alpha, xs)]:
        got, want = np.minimum(*_margin_grid(alpha, xs)), _seq_margin_grid(alpha, xs)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        compacts.add(bool(_screened_improper(alpha, xs).any()))
    assert compacts == {False, True}


@settings(max_examples=25, deadline=None)
@given(alpha=st.one_of(st.floats(0.9, 1.99), st.floats(2.01, 2.6)),
       xs=st.lists(st.floats(1e-3, 0.999), min_size=1, max_size=40))
def test_margin_grid_element_independent_of_batch(alpha, xs):
    # the lockstep refinement relies on this, for both components: the
    # drawn x that give proper triangles or fail the screen, and those among
    # screened x next to the screen edge that give none
    xs = np.array(xs)
    edge = _screen_edge_scans(alpha, _DESK_GRID)[0]
    compacts = set()
    for xs in [xs[~_screened_improper(alpha, xs)], np.concatenate([xs, edge[::50]])]:
        got = _margin_grid(alpha, xs)
        alone = np.column_stack([_margin_grid(alpha, xs[i:i + 1]) for i in range(len(xs))])
        assert np.array_equal(got.view(np.int64), alone.view(np.int64))
        compacts.add(bool(_screened_improper(alpha, xs).any()))
    assert compacts == {False, True}


@pytest.mark.parametrize("alpha", [1.0, 2.13, "per_x"])
def test_margin_grid_of_a_tiled_desk_grid_is_its_chunks_bitwise(alpha):
    # 40,004 points, past the 16,384 complex values from which NumPy runs
    # `a * (temporary)` in place as `temporary *= a`, with other bits:
    # complex multiplication is not bitwise commutative
    xs = np.tile(_DESK_GRID, 4)
    if alpha == "per_x":    # as a refinement round passes it
        alpha = np.random.default_rng(4).uniform(0.9, 1.99, len(xs))
    chunks = [_margin_grid(alpha if np.ndim(alpha) == 0 else alpha[i:i + 1000],
                           xs[i:i + 1000]) for i in range(0, len(xs), 1000)]
    got = _margin_grid(alpha, xs)
    assert np.array_equal(got.view(np.int64), np.column_stack(chunks).view(np.int64))
    assert (got > 0.0).any()


def _unmasked_margin_grid(alpha, xs):
    """_margin_grid without the triangle screen: the side solve and the
    whole stability pipeline on every x."""
    ca = coupling_constant(alpha)
    xs = np.asarray(xs, dtype=float)
    y, valid = _y_solve_grid(xs, alpha)
    z, xi, shaped = _reduced_triple(xs, y, -1)
    with np.errstate(all="ignore"):
        z = centered(z, xi)
        kern, bracket = pair_terms(z, alpha)
        b = -np.imag(vortex_rates(z, xi, ca, kern)[1])
        disc, lo2, _ = quartic_mu2(b, *quartic_coefficients(*l_terms(z, xi, ca, bracket)))
        ok = valid & shaped & np.isfinite(np.minimum(disc, lo2))
    return np.where(ok, np.stack([disc, lo2]), -np.inf)


def _screen_edge_scans(alpha, xs):
    """2001-point scans at pitches 1e-12 and 1e-9 centred on every x where
    the triangle screen switches, located to adjacent floats."""
    past = _past_triangle(xs, alpha)
    scans = []
    for e in np.flatnonzero(past[1:] != past[:-1]):
        lo, hi = xs[e], xs[e + 1]
        while np.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            if _past_triangle(np.array([mid]), alpha)[0] == past[e]:
                lo = mid
            else:
                hi = mid
        scans += [lo + pitch * np.arange(-1000, 1001) for pitch in (1e-12, 1e-9)]
    return scans


_DESK_GRID = np.concatenate([[5e-5], np.arange(1e-4, 1.0 - 1e-12, 1e-4), [1.0 - 1e-12]])


@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.9708, 1.0, 1.5, 1.99, 2.01, 2.1343, 2.5,
                                   2.99])
def test_screened_margin_grid_matches_unmasked_bitwise(alpha):
    # the 10001-point grid of x_interval, random x, and dense scans across
    # the y = 1 + x edge, where the screen leaves a sliver of x with no
    # triangle to the triangle test
    rng = np.random.default_rng(int(alpha * 1e4))
    scans = _screen_edge_scans(alpha, _DESK_GRID)
    assert len(_DESK_GRID) == 10001 and scans
    kinds, compacts = set(), set()
    for xs in [_DESK_GRID, rng.uniform(0.0, 1.0, 2000), *scans]:
        got, want = _margin_grid(alpha, xs), _unmasked_margin_grid(alpha, xs)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        y, valid = _y_solve_grid(xs, alpha)
        kinds |= set(zip(_past_triangle(xs, alpha).tolist(),
                         (valid & _reduced_triple(xs, y, -1)[2]).tolist()))
        compacts.add(bool(_screened_improper(alpha, xs).any()))
    assert kinds == {(True, False), (False, False), (False, True)}
    assert compacts == {False, True}


# x without a bracket: below alpha = 2 the small x have their root past
# YMAX, at alpha <= 1 K overflows at the subnormal x, and x outside (0, 1)
# pass the triangle screen
_MIXED_X = np.concatenate([[5e-324, 1e-310, 1e-200], _DESK_GRID[::7], [1.5, 3.0, 1e4, -0.5]])


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9, 2.5])
@pytest.mark.parametrize("per_x", [False, True])
def test_side_solve_of_a_mixed_grid_is_each_x_solved_alone(alpha, per_x):
    # the x without a bracket count as solved from the start; one alpha per
    # x is how a refinement round passes alpha
    xs = _MIXED_X

    def solve(i, j, K=None):
        return _y_solve_grid(xs[i:j], np.full(j - i, alpha) if per_x else alpha, K)

    with np.errstate(all="ignore"):
        K = _side_constant(xs, np.full(len(xs), alpha) if per_x else alpha)
        alone = [solve(i, i + 1) for i in range(len(xs))]
        for y, valid in (solve(0, len(xs)), solve(0, len(xs), K)):
            assert np.array_equal(valid, [v[0] for _, v in alone])
            assert np.array_equal(y.view(np.int64), np.concatenate([y for y, _ in alone])
                                  .view(np.int64))
    assert valid.any() and not valid.all() and (alpha > 1.0 or not np.isfinite(K[:2]).any())
    # an x without a bracket keeps the midpoint of [max(1 - x, EPS_Y), YMAX]
    mid = 0.5 * (np.maximum(1.0 - xs, EPS_Y) + YMAX)
    assert np.array_equal(y[~valid].view(np.int64), mid[~valid].view(np.int64))


def test_side_solve_bracket_takes_g_at_ymax_once_per_alpha():
    # the upper end of every bracket is YMAX, so its y terms are evaluated
    # once per alpha; each x keeps the sign g gives at a grid of YMAX, at
    # one alpha for the grid and at one alpha per x, as _refine passes it
    def bracketed(xs, alpha):
        g = _side_residual(xs, alpha)
        return (g(np.maximum(1.0 - xs, EPS_Y)) < 0.0) & (g(np.full_like(xs, YMAX)) > 0.0)

    alphas = [*np.linspace(0.05, 2.95, 24), np.random.default_rng(7).uniform(
        0.05, 2.95, len(_DESK_GRID))]
    unbracketed = []
    with np.errstate(all="ignore"):
        for alpha in alphas:
            valid = _y_solve_grid(_DESK_GRID, alpha)[1]
            assert np.array_equal(valid, bracketed(_DESK_GRID, alpha))
            unbracketed.append(int((~valid).sum()))
    assert 0 in unbracketed and max(unbracketed) > 0


@pytest.mark.parametrize("alpha", [0.5, 1.5, 1.9, 2.5])
def test_margin_grid_at_one_alpha_per_x_is_each_x_alone(alpha):
    xs, alphas = _MIXED_X, np.full(len(_MIXED_X), alpha)
    with np.errstate(all="ignore"):
        got = _margin_grid(alphas, xs)
        alone = np.column_stack([_margin_grid(alphas[i:i + 1], xs[i:i + 1])
                                 for i in range(len(xs))])
        past, valid = _past_triangle(xs, alpha), _y_solve_grid(xs, alpha)[1]
    assert np.array_equal(got.view(np.int64), alone.view(np.int64))
    # screened-out x, screened x without a bracket, and bracketed x
    assert past.any() and (~past & ~valid).any() and (~past & valid).any()


@pytest.mark.parametrize("alpha", [1.0, 2.13, 2.5])
@pytest.mark.parametrize("per_x", [False, True])
def test_desk_grid_rates_keep_the_mirrored_kernel_bits(alpha, per_x):
    # every triple of the desk grid, proper or not; at a scalar alpha 1 and
    # 2.5 take NumPy's scalar fast paths of ** (exponents -1 and 0.5)
    with np.errstate(all="ignore"):
        y, _ = _y_solve_grid(_DESK_GRID, alpha)
        z, xi, _ = _reduced_triple(_DESK_GRID, y, -1)
        z = centered(z, xi)
        a, ca = alpha, coupling_constant(alpha)
        if per_x:
            a, ca = np.full(len(_DESK_GRID), a), np.full(len(_DESK_GRID), ca)
        q, mean = vortex_rates(z, xi, ca, pair_terms(z, a)[0])
        q0, mean0 = vortex_rates_mirrored(z, xi, ca, pair_terms_mirrored(z, a)[0])
    assert np.isfinite(mean).any()
    for got, want in zip([*q, mean], [*q0, mean0]):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("alpha, bound_bytes", [(1.0, 1_429_075), (2.13, 1_967_223)])
def test_desk_grid_scan_peak_memory(alpha, bound_bytes):
    # tracemalloc's peak of one scan of the desk grid, NumPy's array data
    # included, read with NumPy 2.4.6 (1,428,576 and 1,966,740 B) once
    # pair_terms stored one kernel value per pair; one grid array held past
    # its last use adds 0.04-0.1 MB
    _margin_grid(alpha, _DESK_GRID)
    tracemalloc.start()
    try:
        _margin_grid(alpha, _DESK_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_bytes


def test_side_solve_skips_screened_points(monkeypatch):
    # at alpha = 1 about 52% of the grid has no triangle and never reaches
    # the side solve
    sizes = []
    inner = search._y_solve_grid

    def counted(xs, alpha, K):
        sizes.append(len(xs))
        return inner(xs, alpha, K)

    monkeypatch.setattr(search, "_y_solve_grid", counted)
    _margin_grid(1.0, _DESK_GRID)
    assert len(sizes) == 1 and sizes[0] < 0.55 * len(_DESK_GRID)


_GUARDED_ALPHA = st.one_of(
    st.floats(0.0, 2.0 - gsqg.ALPHA_GUARD, exclude_min=True, exclude_max=True),
    st.floats(2.0 + gsqg.ALPHA_GUARD, 3.0, exclude_min=True, exclude_max=True))


@settings(max_examples=150, deadline=None)
@given(alpha=_GUARDED_ALPHA, x=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_triangle_screen_rejects_only_non_triangles(alpha, x):
    xs = np.array([x])
    with np.errstate(all="ignore"):     # x^(alpha-2) overflows for tiny x
        if _past_triangle(xs, alpha)[0]:
            y, valid = _y_solve_grid(xs, alpha)
            assert not (valid & _reduced_triple(xs, y, -1)[2])[0], (alpha, x, y)
        # the premise of the screen: g goes from negative to positive at
        # most once on [EPS_Y, YMAX]
        neg = _side_residual(xs, alpha)(np.geomspace(EPS_Y, YMAX, 20001)) < 0.0
    assert neg[0] and np.count_nonzero(neg[1:] != neg[:-1]) <= 1, (alpha, x)


@settings(max_examples=60, deadline=None)
@given(alpha=_GUARDED_ALPHA, x=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_burst_branch_rule_gives_a_burst(alpha, x):
    # the rule of `oriented_config`: Im(a3) < 0 below alpha = 2, > 0 above
    with np.errstate(all="ignore"):     # x^(alpha-2) overflows for tiny x
        y, valid = _y_solve_grid(np.array([x]), alpha)
        z, xi, shaped = _reduced_triple(np.array([x]), y, -1 if alpha < 2.0 else 1)
    # c_alpha overflows below alpha ~ 1.5e-154 (`coupling_constant`)
    assume(alpha > 1e-150 and valid[0] and shaped[0])
    cfg = gsqg.center(gsqg.TripleConfig(a=z[:, 0], xi=xi[:, 0], alpha=alpha))
    a_rate = gsqg.selfsimilar_rate(cfg)[0]
    assert a_rate > 0.0 or abs(a_rate) <= gsqg.RATE_TOL, (alpha, x, a_rate)


def _count_grid_calls(monkeypatch):
    sizes = []
    inner = search._margin_grid

    def counted(alpha, xs):
        sizes.append(len(xs))
        if len(sizes) > 200:
            raise RuntimeError("runaway search")
        return inner(alpha, xs)

    monkeypatch.setattr(search, "_margin_grid", counted)
    return sizes


@pytest.mark.parametrize("alpha, max_calls", [(1.5, 3), (1.0, 3), (0.9705, 6), (2.14, 6)])
def test_margin_grid_calls_per_x_interval(monkeypatch, alpha, max_calls):
    # one scan of the padded grid, then two K-section rounds take a 1e-4
    # cell below 1e-7; roots of disc and lo2 in one cell next to alpha_-
    # take up to two rounds more
    sizes = _count_grid_calls(monkeypatch)
    gsqg.x_interval(alpha)
    assert sizes[0] == 10001
    assert len(sizes) <= max_calls
    assert min(sizes) > 1


def test_refinement_evaluates_each_point_once(monkeypatch):
    # next to alpha_- a disc and a lo2 root share a grid cell, and their
    # identical brackets are evaluated once per round
    points = []
    inner = search._margin_grid

    def recorded(alpha, xs):
        points.append(np.asarray(xs))
        return inner(alpha, xs)

    monkeypatch.setattr(search, "_margin_grid", recorded)
    gsqg.x_interval(0.971)
    assert [len(xs) for xs in points] == [10001, 62, 62, 31]
    assert all(len(np.unique(xs)) == len(xs) for xs in points)


def test_sweep_refines_a_block_of_alphas_per_call(monkeypatch):
    # one grid call per alpha, at scalar alpha; then the refinement rounds
    # of a block of ALPHA_BLOCK alphas, one call each, none larger than
    # the grid and no more rounds than one alpha next to alpha_- may take
    calls = []
    inner = search._margin_grid

    def recorded(alpha, xs):
        calls.append((np.ndim(alpha), len(xs)))
        return inner(alpha, xs)

    monkeypatch.setattr(search, "_margin_grid", recorded)
    res = gsqg.sweep(0.95, 1.05)
    blocks = -(-len(res.records) // search.ALPHA_BLOCK)
    assert len(res.records) == 101 and blocks >= 2
    assert max(size for _, size in calls) == 10001
    assert [size for ndim, size in calls if ndim == 0] == [10001] * 101
    assert 0 < sum(ndim for ndim, _ in calls) <= 5 * blocks


# ---------------------------------------------------------------- stubbed components

def _stub_grid(monkeypatch, disc_of, lo2_of):
    """Replace _margin_grid by x -> (disc_of(x), lo2_of(x)); returns the
    list of the point arrays it is called with."""
    calls = []

    def stub(alpha, xs):
        assert len(xs) > 0, "empty _margin_grid call"
        xs = np.asarray(xs)
        calls.append(xs.copy())
        return np.stack([disc_of(xs), lo2_of(xs)])

    monkeypatch.setattr(search, "_margin_grid", stub)
    return calls


def test_run_brackets_at_the_grid_ends(monkeypatch):
    # disc > 0 below 0.37 and above 0.45, lo2 > 0 below 0.53 and above
    # 0.93 (-inf elsewhere): runs from the lower grid end to a disc root
    # (the widest), from a disc to a lo2 root, and from a lo2 root to the
    # upper grid end
    coarse = 0.05
    calls = _stub_grid(monkeypatch, lambda x: np.where((x < 0.37) | (x > 0.45), 1.0, -1.0),
                       lambda x: np.where((x < 0.53) | (x > 0.93), 1.0, -np.inf))
    with pytest.warns(UserWarning, match=r"disconnected \(3 runs\)"):
        rec = _interval(1.0, coarse, 1e-9)
    assert len(calls[0]) == 21
    assert calls[0][0] == coarse * 0.5 and calls[0][-1] == 1.0 - 1e-12
    (a0, b0), (a1, b1), (a2, b2) = rec.runs
    assert a0 == coarse * 0.5 and b2 == 1.0 - 1e-12
    for got, root in ((b0, 0.37), (a1, 0.45), (b1, 0.53), (a2, 0.93)):
        assert abs(got - root) <= 1e-9
    assert (rec.x_minus, rec.x_plus) == (a0, b0)


@pytest.mark.parametrize("coarse", [1 / 1002, 1 / 19, 1 / 3])
def test_grid_increases_strictly_for_any_pitch(monkeypatch, coarse):
    # np.arange(coarse, 1.0, coarse) ends at 1.0 or 1 - 2^-53 for these
    # pitches, past the closing point 1 - 1e-12
    calls = _stub_grid(monkeypatch, lambda x: x - 0.4, lambda x: 0.6 - x)
    rec = _interval(1.0, coarse, 1e-9)
    xs = calls[0]
    assert xs[0] == coarse * 0.5 and xs[-1] == 1.0 - 1e-12
    assert np.all(np.diff(xs) > 0.0)
    assert abs(rec.x_minus - 0.4) <= 1e-9 and abs(rec.x_plus - 0.6) <= 1e-9


@pytest.mark.parametrize("disc_root, lo2_root", [(0.51 + 1e-11, 0.51 + 3e-11),
                                                 (0.51 + 3e-11, 0.51 + 1e-11)])
def test_roots_in_one_cell_are_ordered_below_tol(monkeypatch, disc_root, lo2_root):
    # disc rises and lo2 falls 2e-11 apart inside one grid cell: refinement
    # goes on past refine_tol until the two roots are ordered, so the
    # window between them is found, or found absent, with no grid point in it
    _stub_grid(monkeypatch, lambda x: x - disc_root, lambda x: lo2_root - x)
    rec = _interval(1.0, 0.05, 1e-7)
    if disc_root < lo2_root:
        assert len(rec.runs) == 1 and rec.x_minus < rec.x_plus
        assert abs(rec.x_minus - disc_root) <= 1e-11
        assert abs(rec.x_plus - lo2_root) <= 1e-11
    else:
        assert rec.empty and rec.runs == ()


# ---------------------------------------------------------------- validation and termination

@pytest.mark.parametrize("kw", [dict(coarse=0.0), dict(coarse=1.0), dict(coarse=-1e-3),
                                dict(coarse=np.nan), dict(refine_tol=0.0),
                                dict(refine_tol=-1e-7), dict(refine_tol=np.nan),
                                dict(refine_tol=np.inf), dict(coarse=1e-7)])
def test_sweep_rejects_bad_grid(kw):
    with pytest.raises(DomainError):
        gsqg.sweep(1.0, 1.0, **kw)


@pytest.mark.parametrize("kw", [dict(alpha_step=0.0), dict(alpha_step=-1e-3),
                                dict(alpha_step=np.nan), dict(alpha_step=np.inf),
                                dict(coarse=0.0), dict(refine_tol=0.0), dict(jobs=0),
                                dict(alpha_step=1e-320), dict(alpha_step=1e-12)])
def test_sweep_rejects_bad_parameters(kw):
    with pytest.raises(DomainError):
        gsqg.sweep(1.4, 1.5, **kw)


@pytest.mark.parametrize("lo, hi", [(np.nan, 1.0), (1.0, np.nan), (-np.inf, 1.0),
                                   (1.0, np.inf), (3.5, 4.0), (-1.0, -0.5), (0.0, 1.0),
                                   (2.5, 3.0)])
def test_sweep_rejects_non_finite_alpha_range(lo, hi):
    with pytest.raises(DomainError):
        gsqg.sweep(lo, hi)


@pytest.mark.parametrize("flags", [["--jobs", "0"], ["--jobs", "-2"], ["--alpha-step", "0"],
                                   ["--x-coarse", "nan"], ["--refine-tol", "-1"],
                                   ["--alpha-min", "3.5", "--alpha-max", "4.0"],
                                   ["--alpha-min", "-1", "--alpha-max", "-0.5"],
                                   ["--alpha-step", "1e-320"], ["--x-coarse", "1e-7"]])
def test_cli_sweep_rejects_bad_parameters(tmp_path, capsys, flags):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--alpha-min", "1.4", "--alpha-max", "1.5", *flags,
                 "--out", str(out)]) == 1
    assert "gsqg sweep:" in capsys.readouterr().err
    assert not out.exists()


def test_refinement_to_zero_width_stops_at_adjacent_floats(monkeypatch):
    rec = _interval(1.5, 1e-3, 1e-6)
    x_in, x_out = 0.5 * (rec.x_minus + rec.x_plus), rec.x_plus + 1e-3
    ends = _margin_grid(1.5, np.array([x_in, x_out])) > 0.0
    (c,) = np.flatnonzero(ends[:, 0] != ends[:, 1])
    sizes = _count_grid_calls(monkeypatch)
    lo, hi = _refine(np.array([1.5]), np.array([x_in]), np.array([x_out]), np.array([c]),
                     ends[c, 1:], 0.0)
    # the bracket closes on two adjacent floats around the root of component c
    assert hi[0] == np.nextafter(lo[0], 1.0)
    assert list(_margin_grid(1.5, np.array([lo[0], hi[0]]))[c] > 0.0) == [True, False]
    assert len(sizes) <= 12
