"""Tests for the asymptotic theory module.

The closed-form oracles below restate the library's own arc-cosine formulas
(in arcsin form), so they guard against slips in assembly rather than in the
moments themselves; the Monte Carlo estimates of the defining random
quantities and the large-n matrix limits are the independent check.  The
theta curve is checked against its quadrature definition.
"""

import numpy as np
import pytest
from numpy.linalg import norm as vnorm
from scipy import integrate
from scipy.stats import chi2

from neuriso import theory
from neuriso.arrangements import allones_margin, sample_patterns
from neuriso.ensembles import gen_matrix
from neuriso.errors import InvalidInputError

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------- closed-form oracles

def j1_closed(g):
    # E[s'(x1) s'(g*x1 + sqrt(1-g^2)*x2) x1^2]
    if g >= 1.0:
        return 0.5
    if g <= -1.0:
        return 0.0
    return 0.25 + np.arcsin(g) / TWO_PI + g * np.sqrt(1.0 - g * g) / TWO_PI


def c1_closed(g):
    return 0.25 + np.arcsin(g) / TWO_PI


def c2_closed(g):
    return 1.0 / (TWO_PI * np.sqrt(1.0 - g * g))


def c3_closed(g):
    return -g / (TWO_PI * np.sqrt(1.0 - g * g))


def g1_closed(g):
    if abs(g) >= 1.0:
        return 1.0
    s = np.sqrt(1.0 - g * g)
    par = (np.arcsin(g) + g * s) / np.pi
    perp = (1.0 - g * g) / np.pi
    return 2.0 * np.hypot(par, perp)


def g2_closed(ga, gb):
    # independent assembly of the two-neuron limit from the closed coefficients
    gc = np.sqrt(max(0.0, 1.0 - ga * ga - gb * gb))

    def e_aa(u):
        return j1_closed(u)

    def e_ab(u, v):
        if abs(u) >= 1.0:
            return 0.0
        return np.sqrt(1.0 - u * u) * v / TWO_PI

    def e_bb(u, v):
        if v == 0.0:
            return c1_closed(u)
        return c1_closed(u) + c3_closed(u) * v * v

    def e_bc(u, v, w):
        if v == 0.0 or w == 0.0:
            return 0.0
        return c3_closed(u) * v * w

    v11 = np.array([e_aa(ga), e_ab(ga, gb), e_ab(ga, gc)])
    v12 = np.array([e_ab(ga, gb), e_bb(ga, gb), e_bc(ga, gb, gc)])
    v21 = np.array([e_bb(gb, ga), e_ab(gb, ga), e_bc(gb, ga, gc)])
    v22 = np.array([e_ab(gb, ga), e_aa(gb), e_ab(gb, gc)])
    t = 1.0 + 1.0 / np.pi
    det = t * t - 0.25
    on, off = t / det, -0.5 / det
    return 2.0 * vnorm(on * (v11 + v22) + off * (v12 + v21))


def compact(mat):
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    keep = s > (s[0] if s.size else 0.0) * 1e-12
    return u[:, keep], s[keep], vt[keep].T


# ---------------------------------------------------------------- theta*

def test_theta_star_value():
    ts = theory.solve_theta_star(1e-12)
    assert abs(ts - 0.1314) <= 2e-3
    assert abs(1.0 / ts - 7.613) <= 0.12
    # frozen from an independent bisection on the closed-form tail
    assert abs(ts - 0.1307583538) < 1e-7


def test_theta_curve_endpoints():
    assert theory.theta_curve(0.0) == 0.5
    assert abs(theory.theta_curve(0.5) - 1.5) < 1e-10
    ts = theory.solve_theta_star(1e-12)
    assert abs(theory.theta_curve(ts) - 1.0) < 1e-9
    grid = np.linspace(0.0, 0.5, 26)
    vals = [theory.theta_curve(t) for t in grid]
    assert np.all(np.diff(vals) > 0)


def theta_curve_quad(theta):
    # the defining form: 1/2 + theta + q theta + 1/2 int_q^inf P(chi2_1 > r) dr
    q = chi2.ppf(1.0 - 2.0 * theta, 1)
    tail = integrate.quad(lambda r: chi2.sf(r, 1), q, np.inf, limit=200)[0]
    return 0.5 + theta + q * theta + 0.5 * tail


def test_theta_tail_closed_form():
    # the chi-square survival integral has an elementary antiderivative, which
    # the library's closed form uses
    for t in (0.01, 0.05, 0.1307583538, 0.3, 0.49):
        assert abs(theory.theta_curve(t) - theta_curve_quad(t)) < 1e-9


def test_solve_theta_star_rejects_bad_tol():
    # an infinite tolerance used to skip every step and return the bracket's midpoint
    for tol in (0.0, np.inf):
        with pytest.raises(InvalidInputError):
            theory.solve_theta_star(tol)


# ---------------------------------------------------------------- single-neuron curve

def test_curve_g_single_examples():
    assert abs(theory.curve_g_single(1.0) - 1.0) < 1e-9
    assert theory.curve_g_single(-1.0) < 1e-9
    assert abs(theory.curve_g_single(0.0) ** 2 - (0.25 + 1.0 / np.pi ** 2)) < 1e-10
    grid = np.linspace(-1.0, 1.0, 101)
    vals = np.array([theory.curve_g_single(g) for g in grid])
    assert np.all(np.diff(vals) > 0)
    assert np.all(vals <= 1.0 + 1e-12)


def test_curve_g_single_matches_closed_form():
    for g in (-0.95, -0.5, 0.2, 0.7, 0.99):
        j2 = (1.0 - g * g) / TWO_PI
        want = 2.0 * np.hypot(j1_closed(g), j2)
        assert abs(theory.curve_g_single(g) - want) < 1e-9


def test_curve_g_single_rejects_out_of_range():
    with pytest.raises(InvalidInputError):
        theory.curve_g_single(1.5)


def test_gate_expectations_match_mc():
    # 1e6-sample Monte Carlo of the defining expectations, three stderr
    rng = np.random.default_rng(5)
    m = 10 ** 6
    x1 = rng.standard_normal(m)
    x2 = rng.standard_normal(m)
    for g in (-0.5, 0.6):
        s = np.sqrt(1.0 - g * g)
        act = (x1 >= 0) & (g * x1 + s * x2 >= 0)
        checks = (
            (act * x1 * x1, j1_closed(g)),
            (act * x1 * x2, (1.0 - g * g) / TWO_PI),
            (act * x2 * x2, c1_closed(g) + c3_closed(g) * (1.0 - g * g)),
        )
        for vals, want in checks:
            se = vals.std() / np.sqrt(m)
            assert abs(vals.mean() - want) <= 3 * se


# ---------------------------------------------------------------- pair curve

def test_curve_g1_examples():
    assert abs(theory.curve_g1(1.0) - 1.0) < 1e-9
    assert abs(theory.curve_g1(-1.0) - 1.0) < 1e-9
    # at gamma = 0 only the component orthogonal to the plant survives
    assert abs(theory.curve_g1(0.0) - 2.0 / np.pi) < 1e-9
    grid = np.linspace(-0.99, 0.99, 51)
    vals = np.array([theory.curve_g1(g) for g in grid])
    assert np.all(vals < 1.0)


def test_curve_g1_matches_closed_form():
    for g in (-0.9, -0.4, 0.0, 0.3, 0.85):
        assert abs(theory.curve_g1(g) - g1_closed(g)) < 1e-9


def test_curve_g1_antisymmetrized_mc():
    # Monte Carlo of the two antisymmetrized expectation components
    rng = np.random.default_rng(17)
    m = 10 ** 6
    x1 = rng.standard_normal(m)
    x2 = rng.standard_normal(m)
    g = 0.3
    s = np.sqrt(1.0 - g * g)
    pos = (x1 >= 0) & (g * x1 + s * x2 >= 0)
    neg = (x1 >= 0) & (-g * x1 + s * x2 >= 0)
    par = pos * x1 * x1 - neg * x1 * x1
    perp = pos * x1 * x2 + neg * x1 * x2
    mc = 2.0 * np.hypot(par.mean(), perp.mean())
    se = 2.0 * np.hypot(par.std(), perp.std()) / np.sqrt(m)
    assert abs(theory.curve_g1(g) - mc) <= 3 * se


# ---------------------------------------------------------------- two-neuron curve

def test_curve_g2_corners():
    assert abs(theory.curve_g2(1.0, 0.0) - 1.0) < 1e-9
    assert abs(theory.curve_g2(0.0, 1.0) - 1.0) < 1e-9


def test_curve_g2_polar_grid():
    best, arg = -1.0, None
    for r in np.linspace(0.0, 1.0, 51):
        for th in np.linspace(0.0, np.pi / 2, 51):
            a, b = r * np.cos(th), r * np.sin(th)
            val = theory.curve_g2(a, b)
            assert val <= 1.0 + 1e-3
            if val > best:
                best, arg = val, (a, b)
    assert abs(best - 1.0) <= 1e-3
    assert min(abs(arg[0] - 1.0), abs(arg[1] - 1.0)) < 1e-12


def test_curve_g2_matches_closed_assembly():
    for a, b in ((0.6, 0.3), (0.2, 0.7), (-0.5, 0.4), (0.0, 0.0)):
        assert abs(theory.curve_g2(a, b) - g2_closed(a, b)) < 1e-8
    assert abs(theory.curve_g2(0.3, 0.6) - theory.curve_g2(0.6, 0.3)) < 1e-10


def test_curve_g2_rejects_outside_disk():
    with pytest.raises(InvalidInputError):
        theory.curve_g2(0.9, 0.9)


# ---------------------------------------------------------------- matrix-limit Monte Carlo

def test_single_neuron_matrix_limit():
    # R = ||X^T Dj Di X (X^T Di X)^{-1} w|| approaches the curve for large n
    rng = np.random.default_rng(11)
    n, d = 20000, 4
    x = rng.standard_normal((n, d)) / np.sqrt(n)
    e = np.eye(d)
    w = e[0]
    dw = (x @ w >= 0).astype(float)
    base = x.T @ (dw[:, None] * x)
    for g in (-0.8, -0.3, 0.3, 0.8):
        u = g * e[0] + np.sqrt(1.0 - g * g) * e[1]
        du = (x @ u >= 0).astype(float)
        cross = x.T @ ((du * dw)[:, None] * x)
        r = vnorm(cross @ np.linalg.solve(base, w))
        assert abs(r - theory.curve_g_single(g)) < 0.02


def test_pair_matrix_limit():
    # T for the antipodal normalized pair approaches curve_g1
    rng = np.random.default_rng(11)
    n, d = 20000, 4
    x = rng.standard_normal((n, d)) / np.sqrt(n)
    e = np.eye(d)
    w = e[0]
    u1, s1, v1 = compact(x * (x @ w >= 0)[:, None])
    u2, s2, v2 = compact(x * (x @ -w >= 0)[:, None])
    wt1 = s1 * (v1.T @ w)
    wt2 = s2 * (v2.T @ -w)
    us = np.hstack([u1, u2])
    coef = np.linalg.solve(us.T @ us,
                           np.concatenate([wt1 / vnorm(wt1), wt2 / vnorm(wt2)]))
    for g in (-0.8, -0.3, 0.3, 0.8):
        h = g * e[0] + np.sqrt(1.0 - g * g) * e[1]
        uj, _, _ = compact(x * (x @ h >= 0)[:, None])
        t = vnorm(uj.T @ (us @ coef))
        assert abs(t - theory.curve_g1(g)) < 0.02


def test_orthogonal_pair_matrix_limit():
    # T for an orthogonal normalized pair approaches curve_g2
    rng = np.random.default_rng(7)
    n, d = 20000, 4
    x = rng.standard_normal((n, d)) / np.sqrt(n)
    e = np.eye(d)
    u1, s1, v1 = compact(x * (x @ e[0] >= 0)[:, None])
    u2, s2, v2 = compact(x * (x @ e[1] >= 0)[:, None])
    wt1 = s1 * (v1.T @ e[0])
    wt2 = s2 * (v2.T @ e[1])
    us = np.hstack([u1, u2])
    coef = np.linalg.solve(us.T @ us,
                           np.concatenate([wt1 / vnorm(wt1), wt2 / vnorm(wt2)]))
    for a, b in ((0.6, 0.3), (0.2, 0.7), (0.9, 0.1)):
        h = a * e[0] + b * e[1] + np.sqrt(1.0 - a * a - b * b) * e[2]
        uj, _, _ = compact(x * (x @ h >= 0)[:, None])
        t = vnorm(uj.T @ (us @ coef))
        assert abs(t - theory.curve_g2(a, b)) < 0.02


# ---------------------------------------------------------------- gate coefficients

def test_coefficients_at_zero():
    assert theory.c1_coef(0.0) == 0.25
    assert abs(theory.c2_coef(0.0) - 1.0 / TWO_PI) < 1e-9
    assert abs(theory.c3_coef(0.0)) < 1e-9


def test_coefficients_match_closed_form():
    for g in (-0.7, -0.2, 0.35, 0.6, 0.9):
        assert abs(theory.c1_coef(g) - c1_closed(g)) < 1e-8
        assert abs(theory.c2_coef(g) - c2_closed(g)) < 1e-8
        assert abs(theory.c3_coef(g) - c3_closed(g)) < 1e-8


def test_cross_moment_identity_mc():
    # E[s'(x1) s'(g x1 + s x2) x1 x2] = (1 - g^2) / (2 pi)
    rng = np.random.default_rng(23)
    m = 10 ** 6
    x1 = rng.standard_normal(m)
    x2 = rng.standard_normal(m)
    g = 0.45
    s = np.sqrt(1.0 - g * g)
    vals = ((x1 >= 0) & (g * x1 + s * x2 >= 0)) * x1 * x2
    se = vals.std() / np.sqrt(m)
    assert abs(vals.mean() - (1.0 - g * g) / TWO_PI) <= 3 * se


# ---------------------------------------------------------------- statistical dimension

def test_orthant_statdim_examples():
    est, se = theory.orthant_statdim_mc(10, 10 ** 5, seed=0)
    assert abs(est - 5.0) <= 3 * se
    est1, se1 = theory.orthant_statdim_mc(1, 10 ** 5, seed=1)
    assert abs(est1 - 0.5) <= 3 * se1
    est20, _ = theory.orthant_statdim_mc(20, 4 * 10 ** 5, seed=2)
    est10, _ = theory.orthant_statdim_mc(10, 4 * 10 ** 5, seed=3)
    assert abs(est20 / est10 - 2.0) <= 0.05


def test_orthant_statdim_determinism_and_validation():
    a = theory.orthant_statdim_mc(5, 1000, seed=9)
    b = theory.orthant_statdim_mc(5, 1000, seed=9)
    assert a == b
    with pytest.raises(InvalidInputError):
        theory.orthant_statdim_mc(5, 99, seed=0)


# ---------------------------------------------------------------- kinematic bound

def test_kinematic_values():
    est = theory.kinematic_bound(40, 10)
    assert abs(est.alpha - 1.0 / 1024.0) < 1e-15
    assert est.regime == "success_whp"
    assert abs(est.bound - 4.0 * np.exp(-40.0 / 1024.0)) < 1e-12
    crit = theory.kinematic_bound(20, 10)
    assert crit.regime == "critical"
    assert crit.alpha == 0.0 and crit.bound == 4.0
    assert theory.kinematic_bound(30, 20).regime == "failure_whp"


def test_kinematic_bound_validation():
    with pytest.raises(InvalidInputError):
        theory.kinematic_bound(0, 3)
    # nan used to raise a bare ValueError, and 2.5 to report n = 2 with
    # the alpha of n = 2.5
    for n, d in ((np.nan, 3), (2.5, 1), (np.inf, 3), (10, np.nan), (10, 1.5)):
        with pytest.raises(InvalidInputError):
            theory.kinematic_bound(n, d)
        with pytest.raises(InvalidInputError):
            theory.threshold_check(n, d, 1.0)


def test_kinematic_regimes_match_allones_frequency():
    # frequency of a realizable all-ones pattern over 200 Gaussian draws
    rng = np.random.default_rng(3)
    freq = {}
    for n, d in ((60, 20), (60, 40)):
        hits = 0
        for _ in range(200):
            x = rng.standard_normal((n, d))
            t_star, _ = allones_margin(x)
            hits += t_star > 1e-9
        freq[(n, d)] = hits / 200.0
    assert freq[(60, 20)] <= 0.1
    assert freq[(60, 40)] >= 0.9


# ---------------------------------------------------------------- gated Gram norm bound

def test_gated_gram_spectral_bound():
    # with rows scaled to E[||x||^2] = d/n the masked Grams stay below 3/4
    good = 0
    for seed in range(40):
        x = gen_matrix("gaussian", 600, 3, seed=seed).mat
        ps = sample_patterns(x, 200, seed=seed + 1000)
        worst = max(
            np.linalg.norm(x.T @ (p.mask[:, None] * x), ord=2)
            for p in ps.patterns
        )
        good += worst <= 0.75
    assert good >= 38


# ---------------------------------------------------------------- noisy recovery interval

def test_noisy_interval_zero_noise():
    iv = theory.noisy_beta_interval(2.0, 0.0, gamma=1.0 / 7.0)
    assert iv.lo == 0.0
    assert iv.hi == 2.0
    assert iv.reason == ""
    assert abs(iv.distance_bound - 2.0) < 1e-12


def test_noisy_interval_boundary_case():
    iv = theory.noisy_beta_interval(1.0, 1.0 / 14.0, gamma=1.0 / 7.0)
    assert iv.reason == ""
    assert iv.lo <= iv.hi
    assert abs(iv.lo - 13.0 / 14.0) < 1e-12
    assert abs(iv.hi - 13.0 / 14.0) < 1e-12


def test_noisy_interval_hypothesis_violated():
    iv = theory.noisy_beta_interval(1.0, 0.2, gamma=1.0 / 7.0)
    assert iv.reason != ""
    assert not iv.lo <= iv.hi


def test_noisy_interval_ordering_property():
    for z in np.linspace(0.0, 0.05, 12):
        iv = theory.noisy_beta_interval(1.0, z, gamma=0.1)
        assert iv.reason == ""
        assert iv.lo <= iv.hi + 1e-15
        assert iv.lo >= 0.0


def test_distance_bound_function():
    assert abs(theory.distance_bound(1.0, 0.0, 1.0) - 1.0) < 1e-15
    got = theory.distance_bound(2.0, 0.5, 0.75)
    assert abs(got - (0.75 * 2.0 / 1.5 + 0.5)) < 1e-12
    for args in ((1.0, 1.5, 0.1), (1.0, 0.1, np.nan), (1.0, 0.1, np.inf),
                 (np.inf, 0.1, 0.5), (1.0, np.nan, 0.5)):
        with pytest.raises(InvalidInputError):
            theory.distance_bound(*args)


def test_noisy_interval_validation():
    with pytest.raises(InvalidInputError):
        theory.noisy_beta_interval(0.0, 0.0, gamma=0.5)
    with pytest.raises(InvalidInputError):
        theory.noisy_beta_interval(1.0, 0.0, gamma=0.0)
    # non-finite inputs used to return nan bounds with an empty reason
    for eta, noise in ((np.inf, 0.05), (np.nan, 0.05), (1.0, np.nan),
                       (1.0, np.inf)):
        with pytest.raises(InvalidInputError):
            theory.noisy_beta_interval(eta, noise)


# ---------------------------------------------------------------- sample-size thresholds

def test_threshold_examples():
    rep = theory.threshold_check(10240, 10, 1.0)
    assert rep.dim_requirement == 10240.0
    assert rep.noise_requirement > rep.n
    assert not rep.satisfied
    assert rep.binding == "noise"

    assert theory.threshold_check(10 ** 6, 10, 1.0).satisfied
    assert not theory.threshold_check(100, 10, 1.0).satisfied


def test_threshold_noiseless_binding():
    rep = theory.threshold_check(10240, 10, 0.0)
    assert rep.binding == "dimension"
    assert rep.satisfied
    assert not theory.threshold_check(10239, 10, 0.0).satisfied
    # a non-finite noise level used to report the dimension requirement
    for sigma2 in (np.nan, np.inf, -1.0):
        with pytest.raises(InvalidInputError):
            theory.threshold_check(100, 3, sigma2)
