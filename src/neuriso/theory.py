"""Asymptotic predictions: recovery thresholds, NIC limit curves, noise intervals.

Everything here is deterministic analysis -- closed-form Gaussian gate moments
(the arc-cosine kernel moments of Cho & Saul, 2009), scalar root finding, and
elementary probability bounds -- plus one small Monte-Carlo estimator for the
orthant statistical dimension.
"""

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import InvalidInputError

TWO_PI = 2.0 * math.pi
_INV_SQRT_2PI = 1.0 / math.sqrt(TWO_PI)


def _phi(t):
    return math.exp(-0.5 * t * t) * _INV_SQRT_2PI


# ---------------------------------------------------------------- gate expectations
# All expectations are over x ~ N(0, I) with gates s'(t) = 1(t >= 0).  The two
# gates are x1 and g*x1 + sqrt(1-g^2)*x2, at angle arccos(g); weights are
# quadratic monomials.  Gammas a rounding error outside [-1, 1] read as the
# endpoint.

def _gate_sq(g):
    # E[s'(x1) s'(<h, x>) x1^2]
    g = min(1.0, max(-1.0, g))
    return (math.pi - math.acos(g) + g * math.sqrt(1.0 - g * g)) / TWO_PI


def _gate_one(g):
    # E[s'(x1) s'(<h, x>)]
    return (math.pi - math.acos(min(1.0, max(-1.0, g)))) / TWO_PI


def _half_phi(c):
    # int_0^inf phi(x) x phi(c x) dx; equals E[s' s' x1 x2] at c = g/s
    return 1.0 / (TWO_PI * (1.0 + c * c))


def c1_coef(gamma):
    """Identity-part coefficient of the two-gate second-moment matrix."""
    if not -1.0 <= gamma <= 1.0:
        raise InvalidInputError("gamma must lie in [-1, 1]")
    return _gate_one(float(gamma))


def c3_coef(gamma):
    """Gate-outer-product coefficient of the two-gate second-moment matrix."""
    if not -1.0 < gamma < 1.0:
        raise InvalidInputError("gamma must lie in (-1, 1)")
    g = float(gamma)
    # 0.0 - g rather than -g, so that c3(0) is +0.0
    return (0.0 - g) / (TWO_PI * math.sqrt(1.0 - g * g))


def c2_coef(gamma):
    """Cross-outer-product coefficient of the two-gate second-moment matrix."""
    if not -1.0 < gamma < 1.0:
        raise InvalidInputError("gamma must lie in (-1, 1)")
    g = float(gamma)
    return 1.0 / (TWO_PI * math.sqrt(1.0 - g * g))


def _corr_ab(ga, gb):
    # E[s'(xa) s'(<h, x>) xa xb] for b != a
    if abs(ga) >= 1.0:
        return 0.0
    rho = math.sqrt(1.0 - ga * ga)
    return gb / rho * _half_phi(ga / rho)


def _corr_bb(ga, gb):
    # E[s'(xa) s'(<h, x>) xb^2] for b != a; at |ga| = 1 the other
    # coordinates of h vanish and only the isotropic part remains
    if gb == 0.0 or abs(ga) >= 1.0:
        return _gate_one(ga)
    return _gate_one(ga) + c3_coef(ga) * gb * gb


def _corr_bc(ga, gb, gc):
    # E[s'(xa) s'(<h, x>) xb xc] for distinct a, b, c
    if gb == 0.0 or gc == 0.0 or abs(ga) >= 1.0:
        return 0.0
    return c3_coef(ga) * gb * gc


# ---------------------------------------------------------------- theta* equation

def theta_curve(theta):
    """Scalar function whose unit level set pins the whitened recovery threshold."""
    if not 0.0 <= theta <= 0.5:
        raise InvalidInputError("theta must lie in [0, 0.5]")
    if theta == 0.0:
        return 0.5
    # 1/2 + theta + q theta + 1/2 int_q^inf P(chi-square_1 > t) dt, q = r^2 and
    # r the upper theta-quantile of N(0, 1); the tail integral equals
    # 2 r phi(r) + 2 (1 - r^2) theta, so the q terms cancel
    r = -NormalDist().inv_cdf(theta)
    return 0.5 + 2.0 * theta + r * _phi(r)


def solve_theta_star(tol=1e-10):
    """Root of theta_curve - 1 by bisection; the sharp n/d recovery ratio is 1/root."""
    if not tol > 0.0:
        raise InvalidInputError("tol must be positive")
    lo, hi = 1e-4, 0.4999
    if theta_curve(lo) >= 1.0 or theta_curve(hi) <= 1.0:
        raise InvalidInputError("bracket does not straddle the root")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # lo and hi are adjacent floats
            break
        if theta_curve(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------- asymptotic NIC curves

def curve_g_single(gamma):
    """Limit of the single-neuron NIC statistic against a probe at angle gamma."""
    if not -1.0 <= gamma <= 1.0:
        raise InvalidInputError("gamma must lie in [-1, 1]")
    g = float(gamma)
    return 2.0 * math.hypot(_gate_sq(g), _corr_ab(g, math.sqrt(1.0 - g * g)))


def curve_g1(gamma):
    """Limit of the two-neuron NIC statistic for an antipodal normalized pair."""
    if not -1.0 <= gamma <= 1.0:
        raise InvalidInputError("gamma must lie in [-1, 1]")
    g = float(gamma)
    # antisymmetrized difference of the two gate moments; the x1*x2 component
    # is even in gamma, so the two branches add instead of cancelling
    par = _gate_sq(g) - _gate_sq(-g)
    perp = 2.0 * _corr_ab(g, math.sqrt(1.0 - g * g))
    return 2.0 * math.hypot(par, perp)


_A_DIAG = 1.0 + 1.0 / math.pi


def curve_g2(gamma1, gamma2):
    """Limit of the two-neuron NIC statistic for an orthogonal normalized pair."""
    a, b = float(gamma1), float(gamma2)
    # written so that a nan gamma fails as well
    if not a * a + b * b <= 1.0 + 1e-9:
        raise InvalidInputError("gamma1^2 + gamma2^2 must not exceed 1")
    c = math.sqrt(max(0.0, 1.0 - a * a - b * b))
    v11 = np.array([_gate_sq(a), _corr_ab(a, b), _corr_ab(a, c)])
    v12 = np.array([_corr_ab(a, b), _corr_bb(a, b), _corr_bc(a, b, c)])
    v21 = np.array([_corr_bb(b, a), _corr_ab(b, a), _corr_bc(b, a, c)])
    v22 = np.array([_corr_ab(b, a), _gate_sq(b), _corr_ab(b, c)])
    det = _A_DIAG * _A_DIAG - 0.25
    on, off = _A_DIAG / det, -0.5 / det
    vec = on * (v11 + v22) + off * (v12 + v21)
    return 2.0 * float(np.linalg.norm(vec))


# ---------------------------------------------------------------- kinematics

@dataclass(frozen=True)
class KinematicEstimate:
    """Exponential bound on the existence of an all-ones arrangement pattern."""

    n: int
    d: int
    alpha: float
    regime: str
    bound: float


def orthant_statdim_mc(n, samples, seed=0):
    """Monte-Carlo estimate of E ||max(g, 0)||^2 for g ~ N(0, I_n); returns (mean, stderr)."""
    if n < 1:
        raise InvalidInputError("n must be at least 1")
    if samples < 100:
        raise InvalidInputError("need at least 100 samples")
    rng = np.random.default_rng(seed)
    chunk = max(1, int(2_000_000 // n))
    sums = []
    left = int(samples)
    while left > 0:
        take = min(chunk, left)
        g = rng.standard_normal((take, n))
        np.maximum(g, 0.0, out=g)
        sums.append(np.einsum("ij,ij->i", g, g))
        left -= take
    vals = np.concatenate(sums)
    return float(vals.mean()), float(vals.std() / math.sqrt(vals.size))


def kinematic_bound(n, d):
    """Two-sided probability bound for a realizable all-ones pattern at size (n, d)."""
    if not all(math.isfinite(v) and v >= 1 and v == int(v) for v in (n, d)):
        raise InvalidInputError("n and d must be integers of at least 1")
    alpha = (n / 2.0 - d) ** 2 / (64.0 * n * n)
    if n > 2 * d:
        regime = "success_whp"
    elif n < 2 * d:
        regime = "failure_whp"
    else:
        regime = "critical"
    return KinematicEstimate(n=int(n), d=int(d), alpha=alpha, regime=regime,
                             bound=4.0 * math.exp(-n * alpha))


# ---------------------------------------------------------------- noisy recovery

@dataclass(frozen=True)
class BetaInterval:
    """Regularization window guaranteeing unique noisy recovery."""

    lo: float
    hi: float
    gamma: float
    eta: float
    noise_norm: float
    distance_bound: float
    reason: str = ""


def distance_bound(eta, noise_norm, beta):
    """Worst-case coefficient distance at regularization level beta."""
    if not 0.0 <= noise_norm < eta < math.inf:
        raise InvalidInputError("need 0 <= noise_norm < eta < inf")
    if not 0.0 <= beta < math.inf:
        raise InvalidInputError("beta must be finite and nonnegative")
    return beta * eta / (eta - noise_norm) + noise_norm


def noisy_beta_interval(eta, noise_norm, gamma=1.0 / 7.0):
    """Admissible regularization interval for a noisy planted problem.

    eta is the norm of the whitened planted coefficients, noise_norm the norm
    of the observation noise.  When the noise exceeds gamma * eta / 2 the
    guarantee is vacuous and an empty interval is returned with a reason.
    """
    if not 0.0 < eta < math.inf:
        raise InvalidInputError("eta must be finite and positive")
    if not 0.0 <= noise_norm < math.inf:
        raise InvalidInputError("noise_norm must be finite and nonnegative")
    if not 0.0 < gamma <= 1.0:
        raise InvalidInputError("gamma must lie in (0, 1]")
    if noise_norm > 0.5 * gamma * eta:
        return BetaInterval(lo=math.inf, hi=-math.inf, gamma=gamma, eta=eta,
                            noise_norm=noise_norm, distance_bound=math.nan,
                            reason="noise norm exceeds gamma * eta / 2")
    hi = eta - noise_norm
    # exact arithmetic gives lo <= hi whenever 2 * noise_norm <= gamma * eta;
    # the min only irons out last-ulp rounding at the boundary
    lo = min(noise_norm * (eta - noise_norm) / (gamma * eta - noise_norm), hi)
    return BetaInterval(lo=lo, hi=hi, gamma=gamma, eta=eta,
                        noise_norm=noise_norm,
                        distance_bound=distance_bound(eta, noise_norm, hi))


@dataclass(frozen=True)
class ThresholdReport:
    """Sample-size requirements for the noisy recovery guarantee."""

    n: int
    d: int
    sigma2: float
    noise_requirement: float
    dim_requirement: float
    satisfied: bool
    binding: str


def threshold_check(n, d, sigma2):
    """Check n against the noisy-recovery sample-size requirements."""
    if not all(math.isfinite(v) and v >= 1 and v == int(v) for v in (n, d)):
        raise InvalidInputError("n and d must be integers of at least 1")
    if not 0.0 <= sigma2 < math.inf:
        raise InvalidInputError("sigma2 must be finite and nonnegative")
    noise_req = 4000.0 * sigma2 * d * math.log(54.0 * n)
    dim_req = 1024.0 * d
    binding = "noise" if noise_req >= dim_req else "dimension"
    return ThresholdReport(n=int(n), d=int(d), sigma2=float(sigma2),
                           noise_requirement=noise_req, dim_requirement=dim_req,
                           satisfied=n >= max(noise_req, dim_req),
                           binding=binding)
