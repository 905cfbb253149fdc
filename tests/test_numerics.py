import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neuriso import numerics
from neuriso.errors import DegenerateStackError, InvalidInputError


def test_compact_svd_zero_matrix():
    f = numerics.compact_svd(np.zeros((4, 3)))
    assert f.rank == 0
    assert f.u.shape == (4, 0) and f.v.shape == (3, 0) and f.s.shape == (0,)


def test_compact_svd_rank_one():
    a = np.outer([1.0, 2.0, -1.0], [3.0, 4.0])
    f = numerics.compact_svd(a)
    assert f.rank == 1
    np.testing.assert_allclose(f.u @ np.diag(f.s) @ f.v.T, a, atol=1e-12)


def test_compact_svd_respects_rank_tol():
    u, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(6, 2)))
    v, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(3, 2)))
    a = 1.0 * np.outer(u[:, 0], v[:, 0]) + 1e-13 * np.outer(u[:, 1], v[:, 1])
    assert numerics.compact_svd(a).rank == 1
    assert numerics.compact_svd(a, rank_tol=1e-15).rank == 2


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_compact_svd_rejects_non_finite(bad):
    # LAPACK turns an inf into silent garbage and a nan into an untyped
    # LinAlgError; both must stop at the boundary with a typed error
    a = np.random.default_rng(2).normal(size=(8, 3))
    a[3, 1] = bad
    with pytest.raises(InvalidInputError):
        numerics.compact_svd(a)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_compact_svd_orthonormal_and_reconstructs(n, d, seed):
    a = np.random.default_rng(seed).normal(size=(n, d))
    f = numerics.compact_svd(a)
    np.testing.assert_allclose(f.u.T @ f.u, np.eye(f.rank), atol=1e-10)
    np.testing.assert_allclose(f.v.T @ f.v, np.eye(f.rank), atol=1e-10)
    np.testing.assert_allclose(f.u @ np.diag(f.s) @ f.v.T, a, atol=1e-9)
    assert np.all(np.diff(f.s) <= 0)


def test_stacked_pinv_apply_solves_and_is_min_norm():
    rng = np.random.default_rng(7)
    blocks = [rng.normal(size=(3, 10)), rng.normal(size=(2, 10))]
    target = rng.normal(size=5)
    lam = numerics.stacked_pinv_apply(blocks, target)
    s = np.vstack(blocks)
    np.testing.assert_allclose(s @ lam, target, atol=1e-10)
    # min-norm solutions live in the row space
    resid = lam - s.T @ np.linalg.solve(s @ s.T, s @ lam)
    np.testing.assert_allclose(resid, 0.0, atol=1e-10)
    # any other solution is longer
    null = np.linalg.svd(s)[2][-1]
    assert np.linalg.norm(lam + 0.1 * null) > np.linalg.norm(lam)


def test_stacked_pinv_apply_degenerate_stack():
    b = np.ones((2, 4))
    with pytest.raises(DegenerateStackError):
        numerics.stacked_pinv_apply([b, b], np.ones(4))


def test_unit_and_as_matrix():
    np.testing.assert_allclose(numerics.unit([3.0, 4.0]), [0.6, 0.8], atol=1e-15)
    with pytest.raises(InvalidInputError):
        numerics.unit(np.zeros(3))
    x = np.arange(6.0).reshape(3, 2)
    assert numerics.as_matrix(x) is x

    class Holder:
        mat = [[1, 2], [3, 4]]

    got = numerics.as_matrix(Holder())
    assert got.dtype == float and got.shape == (2, 2)
