import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gsqg
from gsqg import search
from gsqg.cli import main
from gsqg.kernel import DomainError, coupling_constant
from gsqg.search import (NoRootError, _bisect_alpha, _margin_grid, _refine_boundary,
                         _y_solve_grid)
from gsqg.selfsimilar import Classification

from conftest import THM_X, THM_Y, THM_XI3


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


# ---------------------------------------------------------------- cardano

def test_cardano_reference_and_unit():
    assert gsqg.cardano_y(THM_X) == pytest.approx(1.30353, abs=5e-5)
    assert gsqg.cardano_y(1.0) == pytest.approx(1.0, rel=1e-14)


def test_cardano_discriminant_bound():
    xs = np.arange(0.5 + 1e-5, 1.0, 1e-5)
    assert float(np.min(gsqg.cardano_discriminant(xs))) >= 0.0515


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
        p = gsqg.ReducedParams(alpha=alpha, x=x, y=y, branch=-1)
        cfg = gsqg.reduced_config(p)
        assert abs(cfg.a[0] - cfg.a[2]) == pytest.approx(x, abs=1e-12)
        assert abs(cfg.a[1] - cfg.a[2]) == pytest.approx(y, abs=1e-12)


def test_isoceles_third_vortex_on_axis():
    # x = y puts the third vortex on the imaginary axis (the isoceles
    # shape only sits on the side curve at x = y = 1, so skip the
    # residual check and probe the constructor alone)
    p = gsqg.ReducedParams(alpha=1.5, x=0.9, y=0.9, branch=-1)
    cfg = gsqg.reduced_config(p, check_tol=np.inf)
    assert cfg.a[2].real == pytest.approx(0.0, abs=1e-15)


def test_constructed_H_L_vanish():
    for alpha, x in [(1.0, 0.7), (1.6, 0.55), (2.2, 0.4)]:
        cfg = gsqg.oriented_config(alpha, x)
        H, L = gsqg.check_H_L_zero(cfg)
        assert abs(H) <= 1e-10 and abs(L) <= 1e-10


def test_reduced_config_rejects_collinear():
    with pytest.raises(DomainError):
        gsqg.ReducedParams(alpha=1.0, x=0.3, y=0.69, branch=-1)


def test_burst_branch_signs():
    # below alpha = 2 the burst branch carries Im(a3) < 0; flipping the
    # branch flips the rate sign with equal magnitude
    for alpha, x in [(1.0, THM_X), (1.5, 0.75)]:
        y = gsqg.y_from_x(x, alpha)
        burst = gsqg.oriented_config(alpha, x, want=Classification.BURST)
        a_b, _, _ = gsqg.selfsimilar_rate(gsqg.center(burst))
        assert a_b > 0
        assert burst.a[2].imag < 0
        other = gsqg.reduced_config(
            gsqg.ReducedParams(alpha=alpha, x=x, y=y, branch=+1))
        a_c, _, _ = gsqg.selfsimilar_rate(gsqg.center(other))
        assert a_c < 0
        assert abs(a_c + a_b) <= 1e-12 * abs(a_b)


# ---------------------------------------------------------------- admissibility

def test_admissible_reference_point():
    res = gsqg.admissible(THM_X, 1.0)
    assert res.ok and res.margin > 0
    assert res.report is not None and res.report.passed


def test_inadmissible_below_lower_exponent():
    xs = np.arange(1e-3, 1.0, 1e-3)
    assert not np.any(_margin_grid(0.9, xs) > 0)


def test_inadmissible_small_x():
    assert not gsqg.admissible(0.05, 1.0).ok


def test_scalar_and_grid_paths_agree():
    rng = np.random.default_rng(8)
    for _ in range(40):
        alpha = float(rng.uniform(0.9, 2.25))
        if abs(alpha - 2.0) <= 2e-3:
            continue
        x = float(rng.uniform(0.3, 0.99))
        ok_scalar = gsqg.admissible(x, alpha).ok
        ok_grid = bool(_margin_grid(alpha, np.array([x]))[0] > 0)
        assert ok_scalar == ok_grid


# ---------------------------------------------------------------- intervals

def test_interval_at_alpha_one_brackets_reference_x():
    rec = gsqg.x_interval(1.0, coarse=1e-4, refine_tol=1e-7)
    assert not rec.empty
    assert rec.x_minus < THM_X < rec.x_plus


def test_interval_found_even_when_thinner_than_grid():
    # at alpha just above the closing exponent the window is far thinner
    # than the 1e-3 pitch; the margin-peak rescue must still find it
    rec = gsqg.x_interval(0.98, coarse=1e-3, refine_tol=1e-7)
    assert not rec.empty
    assert rec.x_plus - rec.x_minus < 1e-3


def test_interval_empty_outside():
    assert gsqg.x_interval(0.9, coarse=5e-4, refine_tol=1e-7).empty
    assert gsqg.x_interval(2.2, coarse=5e-4, refine_tol=1e-7).empty


def test_interval_boundary_refinement_consistent():
    rec = gsqg.x_interval(1.5, coarse=1e-3, refine_tol=1e-7)
    inside = 0.5 * (rec.x_minus + rec.x_plus)
    assert gsqg.admissible(inside, 1.5).ok
    assert not gsqg.admissible(rec.x_minus - 1e-5, 1.5).ok
    assert not gsqg.admissible(rec.x_plus + 1e-5, 1.5).ok


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


# ---------------------------------------------------------------- sequential oracles
#
# The search before batching: one-point bisection, golden-section searches
# run one after another, and the margin grid with every pair term computed
# where it is used.  The batched search must reproduce them bit for bit.

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


def _seq_refine_boundary(alpha, x_in, x_out, tol):
    assert _seq_margin_grid(alpha, np.array([x_in]))[0] > 0.0
    while abs(x_out - x_in) > tol:
        mid = 0.5 * (x_in + x_out)
        if _seq_margin_grid(alpha, np.array([mid]))[0] > 0.0:
            x_in = mid
        else:
            x_out = mid
    return 0.5 * (x_in + x_out)


def _seq_peak_rescue(alpha, xs, margin, tol):
    finite = np.where(np.isfinite(margin))[0]
    if len(finite) == 0:
        return None
    order = finite[np.argsort(margin[finite])[::-1][:3]]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    for i in order:
        a_, b_ = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
        c_ = b_ - invphi * (b_ - a_)
        d_ = a_ + invphi * (b_ - a_)
        fc = _seq_margin_grid(alpha, np.array([c_]))[0]
        fd = _seq_margin_grid(alpha, np.array([d_]))[0]
        while b_ - a_ > max(tol * 0.1, 1e-13):
            if fc > 0.0:
                return float(c_)
            if fd > 0.0:
                return float(d_)
            if fc > fd:
                b_, d_, fd = d_, c_, fc
                c_ = b_ - invphi * (b_ - a_)
                fc = _seq_margin_grid(alpha, np.array([c_]))[0]
            else:
                a_, c_, fc = c_, d_, fd
                d_ = a_ + invphi * (b_ - a_)
                fd = _seq_margin_grid(alpha, np.array([d_]))[0]
    return None


def _seq_x_interval(alpha, coarse, refine_tol):
    """(x_minus, x_plus, runs) of x_interval, searched sequentially."""
    xs = np.arange(coarse, 1.0, coarse)
    margin = _seq_margin_grid(alpha, xs)
    idx = np.where(margin > 0.0)[0]
    runs = []
    if len(idx) == 0:
        x_star = _seq_peak_rescue(alpha, xs, margin, refine_tol)
        if x_star is None:
            return None, None, ()
        lo = _seq_refine_boundary(alpha, x_star, max(x_star - coarse, coarse * 0.5),
                                  refine_tol)
        hi = _seq_refine_boundary(alpha, x_star, min(x_star + coarse, 1.0 - 1e-12),
                                  refine_tol)
        runs.append((lo, hi))
    else:
        breaks = np.where(np.diff(idx) > 1)[0]
        starts = np.concatenate([[0], breaks + 1])
        ends = np.concatenate([breaks, [len(idx) - 1]])
        for s, e in zip(starts, ends):
            i0, i1 = idx[s], idx[e]
            lo_out = xs[i0 - 1] if i0 > 0 else coarse * 0.5
            hi_out = xs[i1 + 1] if i1 + 1 < len(xs) else 1.0 - 1e-12
            runs.append((_seq_refine_boundary(alpha, xs[i0], lo_out, refine_tol),
                         _seq_refine_boundary(alpha, xs[i1], hi_out, refine_tol)))
    widest = max(runs, key=lambda r: r[1] - r[0])
    return widest[0], widest[1], tuple(runs)


def _bits(v):
    """Exact bit pattern of a float, or of nested tuples of floats."""
    if v is None:
        return None
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
def test_x_interval_matches_sequential_search_bitwise(alpha, coarse, tol):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = gsqg.x_interval(alpha, coarse=coarse, refine_tol=tol)
    x_minus, x_plus, runs = _seq_x_interval(alpha, coarse, tol)
    assert rec.empty == (x_minus is None)
    assert _bits((rec.x_minus, rec.x_plus)) == _bits((x_minus, x_plus))
    assert _bits(rec.runs) == _bits(runs)


def test_oracle_cases_cross_both_exponents():
    for alpha in (0.969, 0.9705, 2.135, 2.14):
        assert gsqg.x_interval(alpha).empty
    for alpha in (0.971, 2.133):
        assert not gsqg.x_interval(alpha).empty


def test_batched_brackets_match_sequential_bisection_bitwise():
    # one batched call over brackets of different widths, orientations and
    # distances from the boundary, against one bisection per bracket
    alpha, tol = 1.5, 1e-7
    rec = gsqg.x_interval(alpha, coarse=1e-3, refine_tol=1e-6)
    lo, hi = rec.x_minus + 1e-4, rec.x_plus - 1e-4
    brackets = [(lo, rec.x_minus - 1e-4), (hi, 0.999), (lo, 0.05), (hi, rec.x_plus + 3e-7),
                (0.5 * (lo + hi), rec.x_minus - 0.3), (lo, rec.x_minus - 1e-4)]
    got = _refine_boundary(alpha, brackets, tol)
    want = [_seq_refine_boundary(alpha, a, b, tol) for a, b in brackets]
    assert [_bits(g) for g in got] == [_bits(w) for w in want]


@pytest.mark.parametrize("alpha", [0.9, 0.9708, 1.0, 1.5, 2.1343, 2.5])
def test_margin_grid_matches_sequential_form_bitwise(alpha):
    xs = np.arange(1e-4, 1.0, 1e-4)
    got, want = _margin_grid(alpha, xs), _seq_margin_grid(alpha, xs)
    assert len(xs) == 9999
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


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


@pytest.mark.parametrize("alpha, max_calls", [(1.5, 3), (1.0, 3), (0.9705, 25), (2.14, 25)])
def test_margin_grid_calls_per_x_interval(monkeypatch, alpha, max_calls):
    # one grid scan, then two refinement rounds for an interval or one
    # lockstep golden-section round per step for an empty alpha; sequential
    # search took 23 and about 67 calls, nearly all of one point
    sizes = _count_grid_calls(monkeypatch)
    gsqg.x_interval(alpha)
    assert sizes[0] == 9999
    assert len(sizes) <= max_calls
    assert min(sizes) > 1


# ---------------------------------------------------------------- validation and termination

@pytest.mark.parametrize("kw", [dict(coarse=0.0), dict(coarse=1.0), dict(coarse=-1e-3),
                                dict(coarse=np.nan), dict(refine_tol=0.0),
                                dict(refine_tol=-1e-7), dict(refine_tol=np.nan),
                                dict(refine_tol=np.inf)])
def test_x_interval_rejects_bad_grid(kw):
    with pytest.raises(DomainError):
        gsqg.x_interval(1.0, **kw)


@pytest.mark.parametrize("kw", [dict(alpha_step=0.0), dict(alpha_step=-1e-3),
                                dict(alpha_step=np.nan), dict(alpha_step=np.inf),
                                dict(coarse=0.0), dict(refine_tol=0.0), dict(jobs=0)])
def test_sweep_rejects_bad_parameters(kw):
    with pytest.raises(DomainError):
        gsqg.sweep(1.4, 1.5, **kw)


@pytest.mark.parametrize("flags", [["--jobs", "0"], ["--jobs", "-2"], ["--alpha-step", "0"],
                                   ["--x-coarse", "nan"], ["--refine-tol", "-1"]])
def test_cli_sweep_rejects_bad_parameters(tmp_path, capsys, flags):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--alpha-min", "1.4", "--alpha-max", "1.5", *flags,
                 "--out", str(out)]) == 1
    assert "gsqg sweep:" in capsys.readouterr().err
    assert not out.exists()


def test_refinement_to_zero_width_stops_at_adjacent_floats(monkeypatch):
    sizes = _count_grid_calls(monkeypatch)
    rec = gsqg.x_interval(1.5, coarse=1e-3, refine_tol=1e-6)
    x_in = 0.5 * (rec.x_minus + rec.x_plus)
    x_out = rec.x_plus + 1e-3
    (x,) = _refine_boundary(1.5, [(x_in, x_out)], 0.0)
    # x is one of the two adjacent floats that straddle the boundary
    around = np.array([np.nextafter(x, 0.0), x, np.nextafter(x, 1.0)])
    assert list(_margin_grid(1.5, around) > 0.0) in ([True, True, False], [True, False, False])
    assert len(sizes) < 40


def test_alpha_bisection_to_zero_width_stops_at_adjacent_floats():
    probes = []

    def probe(a):
        probes.append(a)
        assert len(probes) < 2000
        return a > 0.3

    a = _bisect_alpha(0.0, 1.0, probe, 0.0)
    assert a in (0.3, np.nextafter(0.3, 1.0))
    assert len(probes) < 100


def test_refinement_rejects_inadmissible_start():
    with pytest.raises(ValueError, match="not admissible"):
        _refine_boundary(1.5, [(0.05, 0.5)], 1e-7)


def test_refinement_precondition_survives_optimize_flag():
    code = ("import sys; from gsqg.search import _refine_boundary\n"
            "assert sys.flags.optimize\n"
            "try:\n"
            "    _refine_boundary(1.5, [(0.05, 0.5)], 1e-7)\n"
            "except ValueError:\n"
            "    sys.exit(0)\n"
            "sys.exit(3)\n")
    src = Path(gsqg.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-O", "-c", code], timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
