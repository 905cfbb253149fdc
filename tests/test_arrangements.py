import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from neuriso import arrangements as arr
from neuriso.numerics import compact_svd
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


def reference_enumeration(x):
    # the incremental enumeration deletion-restriction replaced: cells grown
    # row by row, a child margin-solved whenever its parent's witness does
    # not certify it
    x = np.asarray(x, dtype=float)
    cells = [(np.zeros(0), None, np.inf)]  # (sign vector, witness, margin)
    for k in range(x.shape[0]):
        grown = []
        for signs, h, m in cells:
            val = float(x[k] @ h) if h is not None else 0.0
            for sgn in (1.0, -1.0):
                child = np.append(signs, sgn)
                if h is not None and min(m, sgn * val) > arr.MARGIN_EPS:
                    grown.append((child, h, min(m, sgn * val)))
                    continue
                t, w = arr.allones_margin(x[: k + 1] * child[:, None])
                if t > arr.MARGIN_EPS:
                    grown.append((child, w, t))
        cells = grown
    return {tuple(int(s > 0) for s in signs) for signs, _, _ in cells}


def assert_strict_witnesses(x, ps):
    for p in ps.patterns:
        w = p.witness / np.linalg.norm(p.witness)
        assert np.min((2.0 * p.mask - 1.0) * (x @ w)) > arr.MARGIN_EPS


def assert_matches_reference(x):
    ps = arr.enumerate_exact(x)
    ref = reference_enumeration(x)
    assert masks_of(ps) == ref and len(ps.patterns) == len(ref)
    assert ps.contains_all_ones == ((1,) * x.shape[0] in ref)
    assert_strict_witnesses(x, ps)
    return ps


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 9), d=st.integers(1, 5), seed=st.integers(0, 2**16),
       twist=st.sampled_from(["none", "parallel", "antiparallel", "near",
                              "zero", "dup_column"]))
def test_enumerate_exact_matches_reference(n, d, seed, twist):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    if twist == "parallel":
        x[-1] = 2.5 * x[0]
    elif twist == "antiparallel":
        x[-1] = -0.5 * x[0]
    elif twist == "near":
        x[-1] = x[0] + 1e-10 * rng.standard_normal(d)
    elif twist == "zero":
        x[-1] = 0.0
    elif twist == "dup_column":
        x[:, -1] = x[:, 0]
    assert_matches_reference(x)


def test_enumerate_exact_degenerate_cases():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((6, 3))
    par, anti, near = x.copy(), x.copy(), x.copy()
    par[4], anti[4] = 3.0 * x[1], -2.0 * x[1]
    near[4] = x[1] + 1e-10 * rng.standard_normal(3)
    generic = len(assert_matches_reference(x).patterns)
    # H_4 = H_1 cuts nothing, and the near copy only cuts thin cells
    for y in (par, anti, near):
        assert len(assert_matches_reference(y).patterns) == len(
            arr.enumerate_exact(np.delete(x, 4, axis=0)).patterns) < generic
    zero = x.copy()
    zero[2] = 0.0
    assert assert_matches_reference(zero).patterns == []
    dup = rng.standard_normal((7, 4))
    dup[:, 3] = dup[:, 1]  # rank 3: the cells of the 7 x 3 matrix
    assert masks_of(assert_matches_reference(dup)) == masks_of(
        arr.enumerate_exact(dup[:, :3]))
    line = np.array([[2.0], [-0.5], [1.0], [-3.0]])  # d = 1: h = +1 and h = -1
    assert masks_of(assert_matches_reference(line)) == {(1, 0, 1, 0), (0, 1, 0, 1)}
    one = assert_matches_reference(rng.standard_normal((1, 5)))  # n = 1
    assert masks_of(one) == {(0,), (1,)}


def test_enumerate_exact_keeps_thin_cells():
    # rows 1e-6 apart, early, so that the witness margins of their thin
    # cells halve with each later split until the margin solve decides
    # them; its witness from the support rows makes both enumerations agree
    for seed in range(40):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((int(rng.integers(4, 10)), int(rng.integers(2, 5))))
        x[1] = x[0] + 1e-6 * rng.standard_normal(x.shape[1])
        ps = arr.enumerate_exact(x)
        assert masks_of(ps) == reference_enumeration(x)
        assert_strict_witnesses(x, ps)


def lp_margin(y):
    # the all-ones margin of the rows of y by HiGHS over the box |w| <= 1,
    # checked in floats as min(y w) / |w|
    from scipy.optimize import linprog
    n, d = y.shape
    res = linprog(np.append(np.zeros(d), -1.0), A_ub=np.hstack([-y, np.ones((n, 1))]),
                  b_ub=np.zeros(n), bounds=[(-1.0, 1.0)] * d + [(None, 1.0)],
                  method="highs", options=dict(primal_feasibility_tolerance=1e-10,
                                               dual_feasibility_tolerance=1e-10))
    w = res.x[:d]
    return float(np.min(y @ w) / np.linalg.norm(w)) if np.any(w != 0.0) else 0.0


def near_antipodal_rows(seed):
    # two rows 1e-8 apart: a sign vector that splits them leaves a hull
    # whose min-norm point is a difference of O(1) rows
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((6, 4))
    i, j = rng.choice(6, 2, replace=False)
    x[j] = x[i] + 1e-8 * rng.standard_normal(4)
    return x


def test_allones_margin_is_never_negative():
    # v / |v| carried cancellation error beyond the margin, and a loose stop
    # can leave v short of the optimum: 928 of these 3840 sign vectors came
    # back with t < 0, down to -3.1e-3
    signs = 2.0 * np.array(list(itertools.product((0, 1), repeat=6))) - 1.0
    for seed in range(60):
        x = near_antipodal_rows(seed)
        for s in signs:
            t, w = arr.allones_margin(x * s[:, None])
            assert t >= 0.0 and t == np.min((x * s[:, None]) @ w)


def test_enumerate_exact_keeps_cells_whose_margin_solve_cancels():
    # seed 0 has 14 cells of margin 1e-9 to 7e-9 that the LP certifies and
    # the margin solve used to miss, (0, 0, 1, 1, 0, 0) among them; every
    # kept cell has a float-checked witness
    x = near_antipodal_rows(0)
    ps = arr.enumerate_exact(x)
    oracle = {bits for bits in itertools.product((0, 1), repeat=6)
              if lp_margin(x * (2.0 * np.array(bits) - 1.0)[:, None]) > arr.MARGIN_EPS}
    assert (0, 0, 1, 1, 0, 0) in oracle
    assert masks_of(ps) >= oracle
    assert_strict_witnesses(x, ps)


def test_cells_short_of_margin_go_to_the_margin_solve():
    x = halfplane_3x2()  # rows e1, e2, e1 + e2
    signs = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, -1.0, 1.0],
                      [-1.0, -1.0, 1.0]])
    # a witness on the wrong side, a good one for the same signs, one on
    # H_1, and one for signs that no direction realizes
    w = np.array([[-1.0, 0.0], [1.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    got, wit = arr._decide(x, signs, w)
    assert {tuple(s) for s in got} == {(1.0, 1.0, 1.0), (1.0, -1.0, 1.0)}
    assert np.all(np.min(got * (wit @ x.T), axis=1) > arr.MARGIN_EPS)


def test_enumerate_exact_needs_no_margin_solve(monkeypatch):
    # in general position, and with zero or exactly parallel rows, every
    # cell is decided by the witness the recursion builds
    def no_solve(x):
        raise AssertionError("margin solve ran")
    monkeypatch.setattr(arr, "allones_margin", no_solve)
    rng = np.random.default_rng(13)
    for _ in range(40):
        arr.enumerate_exact(rng.standard_normal((int(rng.integers(1, 13)),
                                                  int(rng.integers(1, 5)))))
    for d in (3, 4):
        x = rng.standard_normal((8, d))
        x[3], x[5], x[6] = 2.5 * x[0], -0.5 * x[1], 0.0
        assert arr.enumerate_exact(x).patterns == []
        assert len(arr.enumerate_exact(x[:6]).patterns) == len(
            arr.enumerate_exact(x[[0, 1, 2, 4]]).patterns)


def test_enumerate_exact_attains_cover_count():
    # general position: exactly 2 * sum_{k<d} C(n-1, k) cells (Cover, 1965)
    rng = np.random.default_rng(21)
    for n in range(1, 13):
        for d in range(1, 5):
            x = rng.standard_normal((n, d))
            count = 2 * sum(math.comb(n - 1, k) for k in range(d))
            assert len(arr.enumerate_exact(x).patterns) == count


def min_norm_by_faces(pts):
    # the hull's min-norm point by trying the affine minimizer of every face
    best = np.inf
    for r in range(1, len(pts) + 1):
        for face in itertools.combinations(range(len(pts)), r):
            lam = arr._affine_min(pts[list(face)])
            if np.all(lam >= 0.0):
                best = min(best, float(np.linalg.norm(lam @ pts[list(face)])))
    return best


def test_allones_margin_near_duplicate_rows():
    # rows 1e-10 apart once made Wolfe's solve cycle until its iteration
    # cap; it now returns the smallest iterate, which is the optimum here
    for seed in range(200):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(4)
        x = np.array([v, v + 1e-10 * rng.standard_normal(4), rng.standard_normal(4)])
        for signs in ((1, 1, 1), (-1, -1, -1), (1, 1, -1), (-1, -1, 1)):
            y = x * np.array(signs, dtype=float)[:, None]
            t, w = arr.allones_margin(y)
            assert t > arr.MARGIN_EPS and t == np.min(y @ w)
            assert t == pytest.approx(min_norm_by_faces(y), rel=1e-8)


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


def assert_bases_equal(got, x, masks):
    # the stacked factors are compact_svd's: same bytes, shapes and strides
    assert len(got) == len(masks)
    for sv, m in zip(got, masks):
        ref = compact_svd(m[:, None] * x)
        assert sv.rank == ref.rank
        for a, b in ((sv.u, ref.u), (sv.s, ref.s), (sv.v, ref.v)):
            assert a.tobytes() == b.tobytes()
            assert (a.shape, a.strides) == (b.shape, b.strides)


def test_bases_follow_the_data_matrix():
    rng = np.random.default_rng(4)
    x1, x2 = rng.normal(size=(8, 3)), rng.normal(size=(8, 3))
    ps = arr.sample_patterns(x1, 60, seed=5)
    first = ps.bases(x1)
    assert ps.bases(x1.copy()) is first  # kept for equal bytes
    # same shape, other data: no stale bases
    assert_bases_equal(ps.bases(x2), x2, ps.masks)
    assert_bases_equal(ps.bases(x1), x1, ps.masks)
    with pytest.raises(ValueError):
        first[0].u[...] = 0.0  # shared factors are read-only


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 12), d=st.integers(1, 4), seed=st.integers(0, 2**16),
       deficient=st.booleans(), directions=st.just(30))
@example(n=80, d=10, seed=3, deficient=False, directions=500)  # several chunks
@example(n=80, d=10, seed=4, deficient=True, directions=500)
@example(n=8, d=9, seed=5, deficient=False, directions=400)  # n < d
@example(n=8, d=12, seed=6, deficient=True, directions=400)
def test_bases_match_per_mask_svd(n, d, seed, deficient, directions):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    if deficient:  # rank d - 1, or the zero matrix when d = 1
        x[:, -1] = 2.0 * x[:, 0] if d > 1 else 0.0
    ps = arr.sample_patterns(x, directions, seed=seed)
    zero = np.zeros(n, dtype=np.uint8)  # rank 0 whatever x is
    if ps.index(zero) < 0:
        ps = arr.PatternSet(ps.patterns + [arr.ArrangementPattern(zero, np.ones(d))],
                            contains_all_ones=ps.contains_all_ones, sampled=True)
    got = ps.bases(x)
    assert_bases_equal(got, x, ps.masks)
    assert got[ps.index(zero)].rank == 0
    bases, u, ranks = ps.stacks(x)
    assert bases is got and u.shape == (len(got), n, min(n, d))
    assert ranks.tolist() == [sv.rank for sv in got]
    if directions > 30:
        assert len(got) > arr.BASES_CHUNK


def test_bases_reject_non_finite_data_and_an_empty_set_has_none():
    x = np.random.default_rng(7).normal(size=(6, 3))
    ps = arr.sample_patterns(x, 40, seed=7)
    for bad in (np.nan, np.inf):
        y = x.copy()
        y[2, 1] = bad
        with pytest.raises(InvalidInputError):
            ps.bases(y)
    assert len(ps.bases(x)) == len(ps.patterns)  # a failed call keeps no stale key
    empty = arr.PatternSet(patterns=[], contains_all_ones=False, sampled=True)
    with pytest.raises(InvalidInputError):
        empty.bases(y)
    assert empty.bases(x) == []
    assert empty.stacks(x)[1].shape == (0, 6, 3)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 10), d=st.integers(1, 4), seed=st.integers(0, 2**16),
       exact=st.booleans())
def test_serialization_roundtrip(n, d, seed, exact):
    x = np.random.default_rng(seed).standard_normal((n, d))
    ps = arr.enumerate_exact(x) if exact else arr.sample_patterns(x, 50, seed=seed)
    back = arr.from_text(arr.to_text(ps))
    assert back.masks.tobytes() == ps.masks.tobytes()
    assert (back.sampled, back.contains_all_ones) == (ps.sampled, ps.contains_all_ones)
    assert [p.witness.tobytes() for p in back.patterns] == [
        p.witness.tobytes() for p in ps.patterns]


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
    # a repeated mask used to load as two patterns that index found one of
    twice = "# patterns v1 n=3 d=2 p=2 sampled=1 all_ones=0\n101 1.0 0.0\n101 0.5 0.5\n"
    with pytest.raises(SchemaError, match="line 3: mask repeats line 2"):
        arr.from_text(twice)
    pat = arr.ArrangementPattern(mask=np.array([1, 0, 1], dtype=np.uint8),
                                 witness=np.ones(2))
    with pytest.raises(InvalidInputError):
        arr.PatternSet(patterns=[pat, pat], contains_all_ones=False, sampled=True)
