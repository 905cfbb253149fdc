import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import ks_2samp

from neuriso import arrangements as arr
from neuriso import ensembles as ens
from neuriso.errors import DegeneratePlantError, InvalidInputError, InvalidShapeError


def test_gaussian_entry_variance():
    x = ens.gen_matrix("gaussian", 400, 10, seed=0).mat
    # var(x_ij) = 1/400; se of the mean of 4000 squares is (1/400)*sqrt(2/4000)
    assert abs(np.mean(x**2) - 1.0 / 400) < 3 * (1.0 / 400) * np.sqrt(2.0 / 4000)


def test_cubic_is_entrywise_cube_of_same_draw():
    g = ens.gen_matrix("gaussian", 50, 7, seed=3).mat
    c = ens.gen_matrix("cubic_gaussian", 50, 7, seed=3).mat
    assert np.array_equal(c, g**3)


@pytest.mark.parametrize("kind", ["haar", "whitened_cubic"])
def test_orthonormal_kinds(kind):
    x = ens.gen_matrix(kind, 20, 5, seed=11).mat
    assert np.max(np.abs(x.T @ x - np.eye(5))) < 1e-9


def test_matrix_determinism():
    a = ens.gen_matrix("haar", 12, 4, seed=9).mat
    b = ens.gen_matrix("haar", 12, 4, seed=9).mat
    c = ens.gen_matrix("haar", 12, 4, seed=10).mat
    assert np.array_equal(a, b) and not np.array_equal(a, c)


@pytest.mark.parametrize("kind", ["haar", "whitened_cubic"])
def test_tall_factor_needs_enough_rows(kind):
    with pytest.raises(InvalidShapeError):
        ens.gen_matrix(kind, 3, 5, seed=0)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(ens.MATRIX_KINDS), n=st.integers(1, 30), d=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_gen_matrix_shape_finiteness_determinism_and_orthonormality(kind, n, d, seed):
    factor = kind in ("haar", "whitened_cubic")
    if factor and n < d:
        with pytest.raises(InvalidShapeError):
            ens.gen_matrix(kind, n, d, seed=seed)
        return
    x = ens.gen_matrix(kind, n, d, seed=seed).mat
    assert x.shape == (n, d) and np.isfinite(x).all()
    assert x.tobytes() == ens.gen_matrix(kind, n, d, seed=seed).mat.tobytes()
    if factor:
        assert np.max(np.abs(x.T @ x - np.eye(d))) < 1e-12


def test_unknown_kind():
    with pytest.raises(InvalidInputError):
        ens.gen_matrix("uniform", 4, 2, seed=0)


def test_haar_direction_invariance():
    # statistics of ||X^T D X w|| should not depend on the direction of w
    rot = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))[0]
    w1 = np.array([1.0, 0.0, 0.0])
    w2 = rot @ w1

    def stat(w, base):
        out = []
        for i in range(300):
            x = ens.gen_matrix("haar", 30, 3, seed=base + i).mat
            h = np.random.default_rng(90_000 + base + i).standard_normal(3)
            d = (x @ h >= 0).astype(float)
            out.append(np.linalg.norm(x.T @ (d[:, None] * (x @ w))))
        return np.array(out)

    assert ks_2samp(stat(w1, 1), stat(w2, 5000)).pvalue > 1e-3


def test_linear_observation_is_column():
    x = ens.gen_matrix("gaussian", 15, 4, seed=2)
    w = np.array([1.0, 0.0, 0.0, 0.0])
    y, z = ens.gen_observation(ens.linear_plant(w), x, seed=0)
    assert np.array_equal(y, x.mat[:, 0])
    assert not np.any(z)


def test_relu_observation_nonnegative():
    x = ens.gen_matrix("gaussian", 30, 5, seed=4)
    w = np.random.default_rng(1).standard_normal(5)
    y, _ = ens.gen_observation(ens.relu_plant(w), x, seed=0)
    assert np.all(y >= 0)
    assert np.allclose(y, np.maximum(x.mat @ w, 0.0))


def test_normalized_single_neuron_unit_norm():
    x = ens.gen_matrix("gaussian", 25, 6, seed=5)
    w = np.random.default_rng(2).standard_normal(6)
    y, _ = ens.gen_observation(ens.normalized_plant([(w, 1.0)]), x, seed=0)
    assert abs(np.linalg.norm(y) - 1.0) < 1e-12


def test_normalized_two_neurons_sum():
    x = ens.gen_matrix("gaussian", 25, 6, seed=6)
    w1 = np.random.default_rng(3).standard_normal(6)
    w2 = np.random.default_rng(4).standard_normal(6)
    y, _ = ens.gen_observation(ens.normalized_plant([(w1, 1.0), (w2, -1.0)]), x, seed=0)
    a1 = np.maximum(x.mat @ w1, 0.0)
    a2 = np.maximum(x.mat @ w2, 0.0)
    assert np.allclose(y, a1 / np.linalg.norm(a1) - a2 / np.linalg.norm(a2))


def test_noise_added_and_returned_separately():
    x = ens.gen_matrix("gaussian", 400, 4, seed=7)
    w = np.ones(4)
    y0, _ = ens.gen_observation(ens.linear_plant(w), x, seed=123)
    y, z = ens.gen_observation(ens.linear_plant(w, noise_sigma=2.0), x, seed=123)
    assert np.allclose(y - z, y0)
    # var(z_i) = 4/400 = 0.01
    assert abs(np.mean(z**2) - 0.01) < 3 * 0.01 * np.sqrt(2.0 / 400)
    y2, z2 = ens.gen_observation(ens.linear_plant(w, noise_sigma=2.0), x, seed=123)
    assert np.array_equal(z, z2)


def test_dead_neuron_raises():
    x = ens.DataMatrix(mat=-np.eye(3), kind="gaussian", seed=0)
    with pytest.raises(DegeneratePlantError):
        ens.gen_observation(ens.relu_plant(np.array([1.0, 1.0, 1.0])), x, seed=0)
    with pytest.raises(DegeneratePlantError):
        ens.gen_observation(
            ens.normalized_plant([(np.array([1.0, 1.0, 1.0]), 1.0)]), x, seed=0)


def test_duplicate_planted_masks_raise():
    x = ens.gen_matrix("gaussian", 20, 5, seed=8)
    w = np.random.default_rng(5).standard_normal(5)
    with pytest.raises(DegeneratePlantError):
        ens.gen_observation(ens.normalized_plant([(w, 1.0), (2 * w, -1.0)]), x, seed=0)


def test_zero_plant_rejected():
    with pytest.raises(InvalidInputError):
        ens.linear_plant(np.zeros(4))
    bad_w = np.array([1.0, np.nan, 0.0, 2.0])
    for make in (lambda: ens.linear_plant(bad_w),
                 lambda: ens.relu_plant(np.array([np.inf, 1.0])),
                 lambda: ens.normalized_plant([(np.ones(3), 1.0), (bad_w[:3], -1.0)]),
                 lambda: ens.normalized_plant([(np.ones(3), np.inf)]),
                 lambda: ens.linear_plant(np.ones(4), noise_sigma=np.nan),
                 lambda: ens.relu_plant(np.ones(4), noise_sigma=np.inf),
                 lambda: ens.normalized_plant([(np.ones(3), 1.0)], noise_sigma=np.nan)):
        with pytest.raises(InvalidInputError):
            make()


def test_plant_direction_kinds():
    x = ens.gen_matrix("gaussian", 30, 6, seed=9)
    w = ens.plant_direction(x, seed=5)
    assert w.shape == (6,) and np.array_equal(w, ens.plant_direction(x, seed=5))


def test_gmm_zero_noise_rows_and_labels():
    mu1 = np.array([1.0, 2.0, 0.0])
    mu2 = np.array([-1.0, 0.5, 1.0])
    x, q = ens.gen_gmm(3, 4, mu1, mu2, sigma=0.0, seed=0)
    assert np.array_equal(q, [1, 1, 1, 0, 0, 0, 0])
    assert np.allclose(x.mat[:3], mu1) and np.allclose(x.mat[3:], mu2)
    w = mu1 / np.linalg.norm(mu1) - mu2 / np.linalg.norm(mu2)
    assert mu1 @ mu2 < np.linalg.norm(mu1) * np.linalg.norm(mu2)
    assert np.array_equal(arr.pattern_of(x.mat, w).mask, q)


def test_gmm_zero_means_rejected():
    with pytest.raises(InvalidInputError):
        ens.gen_gmm(2, 2, np.zeros(3), np.ones(3), sigma=1.0, seed=0)
    nan_mean = np.array([np.nan, 1.0, 0.0])
    for args in ((nan_mean, np.ones(3), 1.0), (np.ones(3), -np.inf * np.ones(3), 1.0),
                 (np.ones(3), -np.ones(3), np.nan), (np.ones(3), -np.ones(3), np.inf)):
        with pytest.raises(InvalidInputError):
            ens.gen_gmm(2, 2, *args, seed=0)
    # a negative count used to reach numpy as a negative dimension
    for n1, n2 in ((-1, 3), (3, -1)):
        with pytest.raises(InvalidInputError):
            ens.gen_gmm(n1, n2, np.ones(3), -np.ones(3), sigma=1.0, seed=0)


def test_gmm_success_bound_and_sweep():
    d = 20
    mu1, mu2 = np.ones(d), -np.ones(d)
    w = mu1 / np.linalg.norm(mu1) - mu2 / np.linalg.norm(mu2)
    rates = []
    for si, sigma in enumerate([0.8, 1.2, 2.0]):
        hits = 0
        for t in range(200):
            x, q = ens.gen_gmm(50, 50, mu1, mu2, sigma, seed=1000 * si + t)
            hits += int(np.array_equal(arr.pattern_of(x.mat, w).mask, q))
        rate = hits / 200
        rates.append(rate)
        assert rate >= ens.gmm_success_bound(50, 50, mu1, mu2, sigma)
    assert rates[0] >= rates[1] >= rates[2]
    assert ens.gmm_success_bound(50, 50, mu1, mu2, 0.0) == 1.0
    # b = -1, so each exponent is -2*20/(4*sigma^2) = -10/sigma^2
    assert abs(ens.gmm_success_bound(50, 50, mu1, mu2, 1.0)
               - (1 - 100 * np.exp(-10.0))) < 1e-12


PLANTS = {"linear": lambda w, sigma: ens.linear_plant(w, noise_sigma=sigma),
          "relu": lambda w, sigma: ens.relu_plant(w, noise_sigma=sigma),
          "normalized": lambda w, sigma: ens.normalized_plant([(w, 1.0), (-w, -0.5)],
                                                              noise_sigma=sigma)}


@settings(max_examples=80, deadline=None)
@given(plant=st.sampled_from(sorted(PLANTS)), n=st.integers(1, 30), d=st.integers(1, 6),
       sigma=st.sampled_from([0.0, 0.3, 2.0]), seed=st.integers(0, 2**32 - 1))
def test_plants_and_observations_shape_finiteness_determinism_and_noise(
        plant, n, d, sigma, seed):
    x = ens.gen_matrix("gaussian", n, d, seed=seed)
    w = ens.plant_direction(x, seed=seed + 1)
    model = PLANTS[plant](w, sigma)
    assert model.noise_sigma == sigma
    try:
        y, z = ens.gen_observation(model, x, seed=seed)
    except DegeneratePlantError:  # a neuron dead on x, or two sharing a pattern
        return
    assert y.shape == z.shape == (n,) and np.isfinite(y).all() and np.isfinite(z).all()
    y2, z2 = ens.gen_observation(PLANTS[plant](w, sigma), x, seed=seed)
    assert (y.tobytes(), z.tobytes()) == (y2.tobytes(), z2.tobytes())
    clean, zero = ens.gen_observation(PLANTS[plant](w, 0.0), x, seed=seed)
    assert not zero.any()  # sigma = 0: a noise-free target
    assert np.array_equal(y - z, clean) if sigma == 0.0 else np.allclose(y - z, clean)
    with pytest.raises(InvalidInputError):
        PLANTS[plant](w, -sigma - 0.5)


@settings(max_examples=60, deadline=None)
@given(n1=st.integers(0, 12), n2=st.integers(0, 12), d=st.integers(1, 6),
       sigma=st.sampled_from([0.0, 0.5, 3.0]), seed=st.integers(0, 2**32 - 1))
def test_gen_gmm_shape_finiteness_determinism_and_noise(n1, n2, d, sigma, seed):
    rng = np.random.default_rng(seed)
    mu1, mu2 = rng.standard_normal(d) + 0.1, rng.standard_normal(d) - 0.1
    x, q = ens.gen_gmm(n1, n2, mu1, mu2, sigma, seed=seed)
    assert x.mat.shape == (n1 + n2, d) and np.isfinite(x.mat).all()
    assert q.tolist() == [1] * n1 + [0] * n2
    x2, q2 = ens.gen_gmm(n1, n2, mu1, mu2, sigma, seed=seed)
    assert (x.mat.tobytes(), q.tobytes()) == (x2.mat.tobytes(), q2.tobytes())
    if sigma == 0.0:  # every row sits on its mean
        assert np.array_equal(x.mat, np.vstack([np.tile(mu1, (n1, 1)), np.tile(mu2, (n2, 1))]))
    with pytest.raises(InvalidInputError):
        ens.gen_gmm(n1, n2, mu1, mu2, -sigma - 0.5, seed=seed)


def test_negative_noise_level_rejected():
    # sigma = -0.5 used to give a plant with no noise and a mixture with
    # flipped draws and a negative success bound
    for make in (lambda: ens.linear_plant(np.ones(3), noise_sigma=-0.5),
                 lambda: ens.relu_plant(np.ones(3), noise_sigma=-1e-300),
                 lambda: ens.normalized_plant([(np.ones(3), 1.0)], noise_sigma=-2.0),
                 lambda: ens.gen_gmm(5, 5, np.ones(3), -np.ones(3), sigma=-0.5, seed=0)):
        with pytest.raises(InvalidInputError, match=">= 0"):
            make()
    assert ens.linear_plant(np.ones(3), noise_sigma=-0.0).noise_sigma == 0.0
