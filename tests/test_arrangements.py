import math

import numpy as np
import pytest

from neuriso import arrangements as arr
from neuriso.errors import (InvalidInputError, MissingPlantError, SchemaError,
                            SizeLimitError)


def spread_3x2():
    # three rows at angles 90, 210, 330 degrees: no open halfplane holds all three
    return np.array([[0.0, 1.0],
                     [-math.sqrt(3) / 2, -0.5],
                     [math.sqrt(3) / 2, -0.5]])


def halfplane_3x2():
    return np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def masks_of(ps):
    return {tuple(int(b) for b in p.mask) for p in ps.patterns}


def test_pattern_of_simple():
    x = np.eye(2)
    assert tuple(arr.pattern_of(x, np.array([1.0, 1.0])).mask) == (1, 1)
    assert tuple(arr.pattern_of(x, np.array([1.0, -1.0])).mask) == (1, 0)


def test_pattern_of_boundary_zero_counts_as_one():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    p = arr.pattern_of(x, np.array([0.0, 1.0]))
    assert tuple(p.mask) == (1, 1, 1)


def test_pattern_of_rejects_zero_direction():
    with pytest.raises(InvalidInputError):
        arr.pattern_of(np.eye(2), np.zeros(2))


def test_enumerate_exact_single_row():
    ps = arr.enumerate_exact(np.array([[1.0]]))
    assert masks_of(ps) == {(1,), (0,)}


def test_enumerate_exact_identity_2d():
    ps = arr.enumerate_exact(np.eye(2))
    assert masks_of(ps) == {(1, 1), (1, 0), (0, 1), (0, 0)}


def test_enumerate_exact_generic_3x2_has_six_patterns():
    # the count is 6 for every generic 3x2, with or without an all-ones cell
    assert len(arr.enumerate_exact(spread_3x2()).patterns) == 6
    assert len(arr.enumerate_exact(halfplane_3x2()).patterns) == 6
    assert arr.enumerate_exact(halfplane_3x2()).contains_all_ones
    assert not arr.enumerate_exact(spread_3x2()).contains_all_ones


def test_enumerate_exact_generic_4x2_is_eight():
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.normal(size=(4, 2))
        assert len(arr.enumerate_exact(x).patterns) == 8


def test_enumerate_exact_antipodal_rows_have_no_strict_all_ones():
    ps = arr.enumerate_exact(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert masks_of(ps) == {(1, 0), (0, 1)}


def test_enumerate_respects_cover_bound():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 4))
        x = rng.normal(size=(n, d))
        r = np.linalg.matrix_rank(x)
        bound = 2 * sum(math.comb(n - 1, k) for k in range(r))
        assert len(arr.enumerate_exact(x).patterns) <= bound


def test_enumerate_size_limit():
    with pytest.raises(SizeLimitError):
        arr.enumerate_exact(np.ones((19, 2)))


def test_sampled_is_subset_of_exact():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n, d = int(rng.integers(2, 10)), int(rng.integers(1, 4))
        x = rng.normal(size=(n, d))
        exact = masks_of(arr.enumerate_exact(x))
        sampled = masks_of(arr.sample_patterns(x, 300, seed=int(rng.integers(1 << 30))))
        assert sampled <= exact


def test_sample_patterns_generic_3x2_saturates():
    ps = arr.sample_patterns(spread_3x2(), 5000, seed=0)
    assert len(ps.patterns) == 6
    ps2 = arr.sample_patterns(halfplane_3x2(), 5000, seed=0)
    assert len(ps2.patterns) == 6
    assert ps2.contains_all_ones


def test_sample_patterns_witness_consistency():
    x = np.random.default_rng(9).normal(size=(8, 3))
    ps = arr.sample_patterns(x, 500, seed=4)
    for p in ps.patterns:
        assert tuple(arr.pattern_of(x, p.witness).mask) == tuple(int(b) for b in p.mask)


def test_sample_patterns_all_ones_flag_matches_margin():
    x = np.abs(np.random.default_rng(2).normal(size=(6, 2))) + 0.1  # X e1 > 0
    ps = arr.sample_patterns(x, 50, seed=1)
    assert ps.contains_all_ones
    t, _ = arr.allones_margin(x)
    assert t > 1e-9


def test_allones_margin_identity():
    t, w = arr.allones_margin(np.eye(2))
    assert t == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)
    np.testing.assert_allclose(w, [1 / math.sqrt(2)] * 2, atol=1e-5)


def test_allones_margin_opposing_rows():
    t, _ = arr.allones_margin(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert t == pytest.approx(0.0, abs=1e-9)


def test_allones_margin_shared_halfspace():
    t, w = arr.allones_margin(np.array([[1.0, 0.0], [1.0, 1.0]]))
    assert t > 0.5
    assert np.linalg.norm(w) <= 1 + 1e-9


def test_allones_margin_sign_matches_enumeration():
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = rng.normal(size=(6, 2))
        t, _ = arr.allones_margin(x)
        has_ones = (1,) * 6 in masks_of(arr.enumerate_exact(x))
        assert (t > 1e-9) == has_ones


def test_is_maximal():
    x = halfplane_3x2()
    ps = arr.enumerate_exact(x)
    idx = {tuple(int(b) for b in p.mask): k for k, p in enumerate(ps.patterns)}
    assert arr.is_maximal(ps, idx[(1, 1, 1)])
    # (1,0,0) is dominated by (1,0,1) and (1,1,1)
    assert not arr.is_maximal(ps, idx[(1, 0, 0)])


def test_ordering_is_lexicographic():
    ps = arr.enumerate_exact(spread_3x2())
    keys = [tuple(int(b) for b in p.mask) for p in ps.patterns]
    assert keys == sorted(keys)


def test_pattern_set_sorts_and_indexes():
    masks = [(1, 0, 1), (0, 1, 1), (1, 1, 0), (0, 0, 1)]
    ps = arr.PatternSet(
        patterns=[arr.ArrangementPattern(mask=np.array(m, dtype=np.uint8),
                                         witness=np.zeros(2)) for m in masks],
        contains_all_ones=False, sampled=True)
    assert [tuple(p.mask) for p in ps.patterns] == sorted(masks)
    assert ps.masks.shape == (4, 3) and ps.masks.dtype == np.uint8
    for j, p in enumerate(ps.patterns):
        assert np.array_equal(ps.masks[j], p.mask)
        assert ps.index(p.mask) == j
    assert ps.index(np.array([1, 1, 1], dtype=np.uint8)) == -1
    assert ps.index(np.array([True, False, True])) == ps.index(np.array([1, 0, 1]))


def test_with_plants_adds_only_missing_masks():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    ps = arr.sample_patterns(x, 1, seed=0)
    present = ps.patterns[0].witness
    assert arr.with_plants(x, ps, [present, 2.0 * present]) is ps
    absent = next(w for w in (np.array([1.0, 1.0]), np.array([-1.0, -1.0]))
                  if ps.index(arr.pattern_of(x, w).mask) < 0)
    grown = arr.with_plants(x, ps, [absent, 3.0 * absent])
    assert len(grown.patterns) == len(ps.patterns) + 1
    assert grown.index(arr.pattern_of(x, absent).mask) >= 0
    keys = [p.mask.tolist() for p in grown.patterns]
    assert keys == sorted(keys)
    # an exact set that lacks a realizable plant cannot grow
    exact = arr.enumerate_exact(x)
    lacking = arr.PatternSet(patterns=exact.patterns[1:],
                             contains_all_ones=exact.contains_all_ones, sampled=False)
    with pytest.raises(MissingPlantError):
        arr.with_plants(x, lacking, [exact.patterns[0].witness])


def test_serialization_roundtrip():
    x = np.random.default_rng(23).normal(size=(5, 3))
    ps = arr.sample_patterns(x, 200, seed=8)
    text = arr.to_text(ps)
    back = arr.from_text(text)
    assert masks_of(back) == masks_of(ps)
    assert back.contains_all_ones == ps.contains_all_ones
    for p, q in zip(ps.patterns, back.patterns):
        np.testing.assert_allclose(p.witness, q.witness, rtol=0, atol=0)


def test_from_text_rejects_garbage():
    with pytest.raises(SchemaError):
        arr.from_text("not a header\n01 0.0 0.0\n")
    good = arr.to_text(arr.enumerate_exact(np.eye(2)))
    broken = good.replace("\n10 ", "\n1x ", 1)
    with pytest.raises(SchemaError):
        arr.from_text(broken)
    lines = good.splitlines()
    for bad in ("nan", "inf", "-inf"):
        toks = lines[1].split()
        toks[1] = bad
        with pytest.raises(SchemaError):
            arr.from_text("\n".join([lines[0], " ".join(toks)] + lines[2:]))
