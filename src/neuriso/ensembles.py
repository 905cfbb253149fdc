"""Random data matrices, planted observation models, and the two-component
Gaussian mixture used for the separating-pattern check."""

from dataclasses import dataclass

import numpy as np

from .arrangements import pattern_of
from .errors import DegeneratePlantError, InvalidInputError, InvalidShapeError
from .numerics import as_matrix

MATRIX_KINDS = ("gaussian", "cubic_gaussian", "haar", "whitened_cubic")


@dataclass
class DataMatrix:
    mat: np.ndarray  # (n, d)
    kind: str
    seed: object


@dataclass
class PlantedModel:
    variant: str  # linear | relu | normalized_relu_sum
    neurons: list  # (w_i, r_i) pairs; r_i is the signed output weight
    noise_sigma: float = 0.0


def _finite(v, what):
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise InvalidInputError("%s must be finite" % what)
    return v


def _plant(variant, pairs, noise_sigma):
    neurons = []
    for w, r in pairs:
        w = _finite(w, "planted weight vector")
        if not np.any(w != 0.0):
            raise InvalidInputError("planted weight vector must be nonzero")
        neurons.append((w, float(_finite(r, "output weight"))))
    return PlantedModel(variant, neurons, float(_finite(noise_sigma, "noise_sigma")))


def linear_plant(w_star, noise_sigma=0.0):
    return _plant("linear", [(w_star, 1.0)], noise_sigma)


def relu_plant(w_star, noise_sigma=0.0):
    return _plant("relu", [(w_star, 1.0)], noise_sigma)


def normalized_plant(pairs, noise_sigma=0.0):
    return _plant("normalized_relu_sum", pairs, noise_sigma)


def _signed_left_factor(a):
    # deterministic SVD: flip each (u_j, v_j) pair so the largest-magnitude
    # entry of v_j is positive
    u, _, vt = np.linalg.svd(a, full_matrices=False)
    for j in range(vt.shape[0]):
        if vt[j, int(np.argmax(np.abs(vt[j])))] < 0:
            u[:, j] *= -1
    return u


def gen_matrix(kind, n, d, seed):
    """Draw an n x d data matrix of the given kind.

    gaussian: i.i.d. N(0, 1/n). cubic_gaussian: entrywise cube of such a
    draw. haar / whitened_cubic: left singular factor of the gaussian /
    cubic draw (column-orthonormal, needs n >= d).
    """
    if kind not in MATRIX_KINDS:
        raise InvalidInputError("unknown matrix kind %r" % (kind,))
    if n < 1 or d < 1:
        raise InvalidInputError("matrix dimensions must be positive")
    g = np.random.default_rng(seed).standard_normal((n, d)) / np.sqrt(n)
    if kind == "gaussian":
        mat = g
    elif kind == "cubic_gaussian":
        mat = g**3
    else:
        if n < d:
            raise InvalidShapeError("left singular factor needs n >= d")
        mat = _signed_left_factor(g if kind == "haar" else g**3)
    return DataMatrix(mat=mat, kind=kind, seed=seed)


def plant_direction(x, seed):
    """Planted direction: a standard normal draw in the data's dimension."""
    return np.random.default_rng(seed).standard_normal(as_matrix(x).shape[1])


def gen_observation(model, x, seed):
    """Observation y for the planted model on data x, plus the noise draw.

    Noise z is i.i.d. N(0, sigma^2/n), already included in y and returned
    separately so its norm can feed the noisy recovery interval.
    """
    mat = as_matrix(x)
    n = mat.shape[0]
    if model.variant == "linear":
        y = mat @ model.neurons[0][0]
    elif model.variant == "relu":
        y = np.maximum(mat @ model.neurons[0][0], 0.0)
        if not np.any(y > 0.0):
            raise DegeneratePlantError("planted neuron is dead on this data")
    elif model.variant == "normalized_relu_sum":
        y = np.zeros(n)
        seen = set()
        for w, r in model.neurons:
            act = np.maximum(mat @ w, 0.0)
            nrm = np.linalg.norm(act)
            if nrm == 0.0:
                raise DegeneratePlantError("planted neuron is dead on this data")
            key = pattern_of(mat, w).mask.tobytes()
            if key in seen:
                raise DegeneratePlantError("planted neurons share an activation pattern")
            seen.add(key)
            y = y + r * act / nrm
    else:
        raise InvalidInputError("unknown observation variant %r" % (model.variant,))
    z = np.zeros(n)
    if model.noise_sigma > 0.0:
        z = np.random.default_rng(seed).standard_normal(n) * (model.noise_sigma / np.sqrt(n))
        y = y + z
    return y, z


def gen_gmm(n1, n2, mu1, mu2, sigma, seed):
    """Two-component spherical mixture: n1 rows at mu1, n2 at mu2, noise
    sigma. Returns the stacked matrix and the component-one indicator q."""
    mu1 = _finite(mu1, "mixture means")
    mu2 = _finite(mu2, "mixture means")
    _finite(sigma, "mixture sigma")
    if not np.any(mu1 != 0.0) or not np.any(mu2 != 0.0):
        raise InvalidInputError("mixture means must be nonzero")
    if mu1.shape != mu2.shape:
        raise InvalidShapeError("mixture means must share a dimension")
    rng = np.random.default_rng(seed)
    d = mu1.size
    rows = np.vstack([mu1 + sigma * rng.standard_normal((n1, d)),
                      mu2 + sigma * rng.standard_normal((n2, d))])
    q = np.concatenate([np.ones(n1, dtype=np.uint8), np.zeros(n2, dtype=np.uint8)])
    return DataMatrix(mat=rows, kind="gmm", seed=seed), q


def gmm_success_bound(n1, n2, mu1, mu2, sigma):
    """Lower bound on P(pattern of mu1/|mu1| - mu2/|mu2| equals q)."""
    mu1 = np.asarray(mu1, dtype=float)
    mu2 = np.asarray(mu2, dtype=float)
    if sigma == 0.0:
        return 1.0
    b = float(mu1 @ mu2) / (np.linalg.norm(mu1) * np.linalg.norm(mu2))
    e1 = np.exp(-(1.0 - b) * float(mu1 @ mu1) / (4.0 * sigma**2))
    e2 = np.exp(-(1.0 - b) * float(mu2 @ mu2) / (4.0 * sigma**2))
    return 1.0 - n1 * e1 - n2 * e2
