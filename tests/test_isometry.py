import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from neuriso import arrangements as arr
from neuriso import ensembles as ens
from neuriso import isometry as iso
from neuriso import recovery as rec
from neuriso import solvers as sol
from neuriso.experiments import GridConfig, build_cell
from neuriso.errors import DegenerateStackError, InvalidInputError, MissingPlantError
from neuriso.numerics import compact_svd


def patset(masks, sampled=True, witnesses=None):
    pats = [arr.ArrangementPattern(mask=np.asarray(m, dtype=np.uint8),
                                   witness=np.zeros(1) if witnesses is None else witnesses[i])
            for i, m in enumerate(masks)]
    ones = any(np.all(np.asarray(m) == 1) for m in masks)
    return arr.PatternSet(patterns=pats, contains_all_ones=ones, sampled=sampled)


def direct_norms(x, masks, lam, normalized):
    # one pattern at a time, outside the library kernel: ||X^T D_j lam||, or
    # the length of lam's projection onto the columns of D_j X (the
    # basis-free form of ||U_j^T lam||)
    out = []
    for m in masks:
        block = np.asarray(m, dtype=float)[:, None] * x
        if normalized:
            coef = np.linalg.lstsq(block, lam, rcond=None)[0]
            out.append(np.linalg.norm(block @ coef))
        else:
            out.append(np.linalg.norm(block.T @ lam))
    return out


def assert_lam_reproduces(x, rep, normalized):
    masks = [m for m, _ in rep.per_pattern]
    for (_, lhs), direct in zip(rep.per_pattern, direct_norms(x, masks, rep.lam, normalized)):
        assert abs(lhs - direct) < 1e-9


def normalized_target(x, w):
    # (U^T (Xw)_+) / ||(Xw)_+|| with U the left basis of D X, D = pattern of w
    mask = arr.pattern_of(x, w).mask
    u = compact_svd(mask[:, None] * x).u
    act = np.maximum(x @ w, 0.0)
    return u, u.T @ act / np.linalg.norm(act)


def test_linear_zero_and_allones_patterns():
    x = ens.gen_matrix("haar", 20, 5, seed=0)
    w = np.random.default_rng(0).standard_normal(5)
    rep = iso.nic_linear(x, w, patset([np.zeros(20), np.ones(20)]))
    lhs = {tuple(m): v for m, v in rep.per_pattern}
    assert lhs[tuple(np.zeros(20, dtype=np.uint8))] == 0.0
    assert abs(lhs[tuple(np.ones(20, dtype=np.uint8))] - 1.0) < 1e-9
    assert not rep.holds and rep.marginal
    assert rep.planted_indices == []


def test_linear_haar_matches_direct_formula():
    x = ens.gen_matrix("haar", 24, 4, seed=1)
    w = np.random.default_rng(1).standard_normal(4)
    ps = arr.sample_patterns(x.mat, 100, seed=2)
    rep = iso.nic_linear(x, w, ps)
    what = w / np.linalg.norm(w)
    for mask, lhs in rep.per_pattern:
        direct = np.linalg.norm(x.mat.T @ (mask * (x.mat @ what)))
        assert abs(lhs - direct) < 1e-9
    # the multiplier meets X^T lam = w_hat and reproduces every lhs
    assert np.linalg.norm(x.mat.T @ rep.lam - what) < 1e-9
    assert_lam_reproduces(x.mat, rep, normalized=False)


def test_linear_rank_error():
    x = np.zeros((6, 3))
    with pytest.raises(DegenerateStackError):
        iso.nic_linear(x, np.ones(3), patset([np.zeros(6)]))


def test_linear_gaussian_wide_regime_rate():
    hits = 0
    for seed in range(40):
        x = ens.gen_matrix("gaussian", 80, 10, seed=100 + seed)
        w = ens.plant_direction(x, seed=200 + seed)
        ps = arr.sample_patterns(x.mat, 200, seed=300 + seed)
        hits += int(iso.nic_linear(x, w, ps).holds)
    assert hits >= 0.95 * 40


def test_relu_single_self_and_disjoint():
    x = ens.gen_matrix("gaussian", 30, 5, seed=3)
    w = ens.plant_direction(x, seed=4)
    planted = arr.pattern_of(x.mat, w).mask
    other = (1 - planted).astype(np.uint8)
    rep = iso.nic_relu_single(x, w, patset([planted, other, np.zeros(30)]))
    lhs = {tuple(m): v for m, v in rep.per_pattern}
    assert abs(lhs[tuple(planted)] - 1.0) < 1e-9
    assert lhs[tuple(other)] == 0.0
    assert lhs[tuple(np.zeros(30, dtype=np.uint8))] == 0.0
    assert len(rep.planted_indices) == 1
    pi = rep.planted_indices[0]
    assert np.array_equal(rep.per_pattern[pi][0], planted)
    # self-pattern lhs = 1 never enters the certified maximum
    assert rep.max_lhs < 1.0 and rep.holds
    what = w / np.linalg.norm(w)
    assert np.linalg.norm((planted[:, None] * x.mat).T @ rep.lam - what) < 1e-9
    assert_lam_reproduces(x.mat, rep, normalized=False)


def test_relu_single_missing_plant_behaviour():
    x = ens.gen_matrix("gaussian", 15, 4, seed=5)
    w = ens.plant_direction(x, seed=6)
    sampled = patset([np.zeros(15)], sampled=True)
    rep = iso.nic_relu_single(x, w, sampled)
    planted = arr.pattern_of(x.mat, w).mask
    assert any(np.array_equal(m, planted) for m, _ in rep.per_pattern)
    exact = patset([np.zeros(15)], sampled=False)
    with pytest.raises(MissingPlantError):
        iso.nic_relu_single(x, w, exact)


def test_relu_single_sufficient_condition_instances():
    # maximal pattern + top-eigenvector plant + strict activations => holds
    found = 0
    for seed in range(150):
        x = ens.gen_matrix("gaussian", 10, 3, seed=700 + seed)
        ps = arr.enumerate_exact(x.mat)
        for i, pat in enumerate(ps.patterns):
            tr = int(pat.mask.sum())
            if tr == 0 or tr == 10 or not arr.is_maximal(ps, i):
                continue
            m = x.mat.T @ (pat.mask[:, None] * x.mat)
            vals, vecs = np.linalg.eigh(m)
            for w in (vecs[:, -1], -vecs[:, -1]):
                on = x.mat[pat.mask == 1] @ w
                off = x.mat[pat.mask == 0] @ w
                if np.all(on > 1e-9) and np.all(off < -1e-9):
                    rep = iso.nic_relu_single(x, w, ps)
                    assert rep.holds, f"seed {seed}, pattern {i}"
                    found += 1
        if found >= 5:
            break
    assert found >= 3


def test_relu_single_holds_implies_maximal():
    for seed in range(20):
        x = ens.gen_matrix("gaussian", 24, 4, seed=900 + seed)
        w = ens.plant_direction(x, seed=950 + seed)
        ps = arr.sample_patterns(x.mat, 150, seed=990 + seed)
        rep = iso.nic_relu_single(x, w, ps)
        if rep.holds:
            pi = rep.planted_indices[0]
            masks = [m for m, _ in rep.per_pattern]
            full = patset(masks)
            assert arr.is_maximal(full, pi)


def test_normalized_single_self_disjoint_and_rate():
    x = ens.gen_matrix("gaussian", 30, 5, seed=7)
    w = ens.plant_direction(x, seed=8)
    planted = arr.pattern_of(x.mat, w).mask
    rep = iso.nnic_single(x, w, patset([planted, (1 - planted).astype(np.uint8)]))
    lhs = {tuple(m): v for m, v in rep.per_pattern}
    assert abs(lhs[tuple(planted)] - 1.0) < 1e-9
    assert lhs[tuple((1 - planted).astype(np.uint8))] < 1e-12
    ui, wt = normalized_target(x.mat, w)
    assert np.linalg.norm(ui.T @ rep.lam - wt) < 1e-9
    assert_lam_reproduces(x.mat, rep, normalized=True)

    hits = 0
    for seed in range(40):
        x = ens.gen_matrix("gaussian", 40, 10, seed=1100 + seed)
        w = ens.plant_direction(x, seed=1200 + seed)
        ps = arr.sample_patterns(x.mat, 200, seed=1300 + seed)
        hits += int(iso.nnic_single(x, w, ps).holds)
    assert hits >= 0.95 * 40


def test_multi_k1_matches_single():
    x = ens.gen_matrix("gaussian", 30, 5, seed=9)
    w = ens.plant_direction(x, seed=10)
    ps = arr.sample_patterns(x.mat, 120, seed=11)
    single = iso.nic_relu_single(x, w, ps)
    multi = iso.nic_multi(x, [(w, 1.0)], ps, normalized=False)
    assert [tuple(m) for m, _ in single.per_pattern] == [tuple(m) for m, _ in multi.per_pattern]
    for (_, a), (_, b) in zip(single.per_pattern, multi.per_pattern):
        assert abs(a - b) < 1e-10
    # both multipliers are least-norm solutions of the same system
    assert np.linalg.norm(single.lam - multi.lam) < 1e-9
    # NNIC_1 is the normalized one-plant case bit for bit: one plant's
    # multiplier is U t, the least-norm solve of U^T lam = t
    nsingle = iso.nnic_single(x, w, ps)
    nmulti = iso.nic_multi(x, [(w, 1.0)], ps, normalized=True)
    assert nsingle.kind == "NNIC_1"
    assert [(tuple(m), v) for m, v in nsingle.per_pattern] == \
        [(tuple(m), v) for m, v in nmulti.per_pattern]
    assert nsingle.max_lhs == nmulti.max_lhs
    assert nsingle.lam.tobytes() == nmulti.lam.tobytes()


def test_relu_single_is_the_one_plant_multi():
    # NIC_1 used to solve the normal equations X^T D X v = w_hat, which left a
    # planted residual of 6e-11 here and a max_lhs 2e-8 off nic_multi's
    x = ens.gen_matrix("gaussian", 20, 10, seed=1)
    w = np.random.default_rng(289).standard_normal(10)
    ps = arr.sample_patterns(x.mat, 50, seed=0)
    single = iso.nic_relu_single(x, w, ps)
    multi = iso.nic_multi(x, [(w, 1.0)], ps, normalized=False)
    assert single.kind == "NIC_1"
    assert single.max_lhs == multi.max_lhs
    assert [(tuple(m), v) for m, v in single.per_pattern] == \
        [(tuple(m), v) for m, v in multi.per_pattern]
    planted = single.per_pattern[single.planted_indices[0]][0]
    what = w / np.linalg.norm(w)
    assert np.linalg.norm((planted[:, None] * x.mat).T @ single.lam - what) < 1e-12


DIRECTION_CHECKS = {
    "nic_linear": iso.nic_linear,
    "nic_relu_single": iso.nic_relu_single,
    "nnic_single": iso.nnic_single,
    "nic_multi_plain": lambda x, w, ps: iso.nic_multi(x, [(w, 1.0)], ps, normalized=False),
    "nic_multi_normalized": lambda x, w, ps: iso.nic_multi(x, [(w, 1.0)], ps,
                                                           normalized=True),
    "certificate_relu": lambda x, w, ps: sol.build_certificate(x, ps, [(w, 1.0)], "relu"),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("check", DIRECTION_CHECKS)
def test_nonfinite_direction_fails_fast(check, bad):
    # a nan entry used to give a nan max_lhs or a DegenerateStackError, and an
    # inf entry a nan max_lhs or a non-strict certificate
    x = ens.gen_matrix("gaussian", 30, 5, seed=3)
    ps = arr.sample_patterns(x.mat, 40, seed=0)
    w = ens.plant_direction(x, seed=4)
    w[2] = bad
    with pytest.raises(InvalidInputError, match="finite"):
        DIRECTION_CHECKS[check](x, w, ps)


def test_multi_disjoint_pair_reduces_to_correlation_with_y():
    x = ens.gen_matrix("gaussian", 40, 6, seed=12)
    w = ens.plant_direction(x, seed=13)
    plant = [(w, 1.0), (-w, 1.0)]
    ps = arr.sample_patterns(x.mat, 150, seed=14)
    rep = iso.nic_multi(x, plant, ps, normalized=True)
    y, _ = ens.gen_observation(ens.normalized_plant(plant), x, seed=0)
    planted_masks = {tuple(arr.pattern_of(x.mat, w).mask),
                     tuple(arr.pattern_of(x.mat, -w).mask)}
    for mask, lhs in rep.per_pattern:
        if tuple(mask) in planted_masks:
            continue
        uj = compact_svd(mask[:, None] * x.mat).u
        assert abs(lhs - np.linalg.norm(uj.T @ y)) < 1e-9
    # U_s_i^T lam = r_i w_tilde_i on both plants, and lam reproduces lhs
    for wi, ri in plant:
        ui, wt = normalized_target(x.mat, wi)
        assert np.linalg.norm(ui.T @ rep.lam - ri * wt) < 1e-9
    assert_lam_reproduces(x.mat, rep, normalized=True)
    # the plain pair: X^T D_s_i lam = r_i w_hat_i
    plain = iso.nic_multi(x, [(w, 1.0), (-w, -1.0)], ps, normalized=False)
    for wi, ri in ((w, 1.0), (-w, -1.0)):
        di = arr.pattern_of(x.mat, wi).mask[:, None]
        err = (di * x.mat).T @ plain.lam - ri * wi / np.linalg.norm(wi)
        assert np.linalg.norm(err) < 1e-9
    assert_lam_reproduces(x.mat, plain, normalized=False)


def test_multi_disjoint_pair_rate():
    # opposite plants have disjoint activation supports; certified region
    # is already comfortable at n = 8d
    hits = 0
    for seed in range(50):
        x = ens.gen_matrix("gaussian", 80, 10, seed=4000 + seed)
        w = ens.plant_direction(x, seed=4100 + seed)
        ps = arr.sample_patterns(x.mat, 200, seed=4200 + seed)
        rep = iso.nic_multi(x, [(w, 1.0), (-w, 1.0)], ps, normalized=True)
        hits += int(rep.holds)
    assert hits >= 0.90 * 50


def test_multi_orthogonal_pair_rate():
    # orthogonal plants certify reliably only deeper into the wide regime;
    # near n = 8d the min-norm certificate hovers at the unit boundary
    hits = 0
    for seed in range(50):
        x = ens.gen_matrix("gaussian", 400, 10, seed=6000 + seed)
        e1 = np.eye(10)[0]
        e2 = np.eye(10)[1]
        ps = arr.sample_patterns(x.mat, 200, seed=6100 + seed)
        rep = iso.nic_multi(x, [(e1, 1.0), (e2, 1.0)], ps, normalized=True)
        hits += int(rep.holds)
    assert hits >= 0.90 * 50


def test_multi_degenerate_stack():
    x = ens.gen_matrix("gaussian", 8, 5, seed=15)  # 2d = 10 > n = 8
    ps = arr.sample_patterns(x.mat, 60, seed=16)
    with pytest.raises(DegenerateStackError):
        iso.nic_multi(x, [(np.eye(5)[0], 1.0), (np.eye(5)[1], 1.0)], ps, normalized=False)


def test_snic_orth_trace_rule_and_equivalence():
    x = ens.gen_matrix("haar", 12, 3, seed=17)
    ps = arr.sample_patterns(x.mat, 300, seed=18)
    rep = iso.snic_orth(x, ps)
    traces = [int(np.sum(m)) for m, _ in rep.per_pattern]
    assert rep.holds == (max(traces) <= 12 - 3)
    for (mask, lhs), tr in zip(rep.per_pattern, traces):
        assert abs(lhs - tr / (12 - 3)) < 1e-12
        spec_norm = np.linalg.norm(x.mat.T @ (mask[:, None] * x.mat), 2)
        assert (spec_norm < 1 - 1e-9) == (tr <= 12 - 3)


def test_snic_orth_rates_by_aspect_ratio():
    wide, narrow = 0, 0
    for seed in range(40):
        x = ens.gen_matrix("haar", 80, 8, seed=1900 + seed)
        ps = arr.sample_patterns(x.mat, 300, seed=2000 + seed)
        wide += int(iso.snic_orth(x, ps).holds)
        x = ens.gen_matrix("haar", 24, 8, seed=2100 + seed)
        ps = arr.sample_patterns(x.mat, 300, seed=2200 + seed)
        narrow += int(iso.snic_orth(x, ps).holds)
    assert wide >= 0.90 * 40
    assert narrow <= 0.10 * 40


def test_snic_orth_rejects_non_orthonormal():
    x = ens.gen_matrix("gaussian", 12, 3, seed=19)
    with pytest.raises(InvalidInputError):
        iso.snic_orth(x, arr.sample_patterns(x.mat, 50, seed=20))


def test_report_csv():
    x = ens.gen_matrix("haar", 10, 2, seed=21)
    rep = iso.snic_orth(x, arr.sample_patterns(x.mat, 50, seed=22))
    text = iso.report_to_csv(rep)
    lines = text.strip().splitlines()
    assert lines[0] == "kind,mask,lhs,holds"
    assert len(lines) == 1 + len(rep.per_pattern)
    kind, mask, lhs, holds = lines[1].split(",")
    assert kind == "SNIC_ORTH" and set(mask) <= {"0", "1"}
    float(lhs)
    assert holds in {"0", "1"}


def test_normalized_readers_share_one_svd_per_pattern(monkeypatch):
    # the NNIC checker, the normalized certificate and the grelu_normal
    # program read one set of bases: one SVD per pattern in all, taken as
    # batched SVDs of BASES_CHUNK patterns, and no compact_svd of a pattern
    calls, stacked, svd = [], [], np.linalg.svd

    def counted(m):
        calls.append(m.shape)
        return compact_svd(m)

    def batched(m, *args, **kwargs):
        if np.ndim(m) == 3:
            stacked.append(len(m))
        return svd(m, *args, **kwargs)

    for mod in (iso, rec, sol):
        monkeypatch.setattr(mod, "compact_svd", counted)
    monkeypatch.setattr(np.linalg, "svd", batched)
    cfg = GridConfig(d_values=(4,), n_values=(20,), plant="relu", pattern_count=200)
    inst = build_cell(cfg, 4, 20, 0.0, 0)
    ps, w = inst.patterns, inst.model.neurons[0][0]
    assert len(ps.patterns) > arr.BASES_CHUNK  # more than one chunk
    assert arr.with_plants(inst.x, ps, [w]) is ps  # the set holds the plant
    rep = iso.nnic_single(inst.x, w, ps)
    cert = sol.build_certificate(inst.x, ps, inst.model.neurons, "normalized")
    prob = rec.build_program(inst.x, ps, inst.y, "grelu_normal")
    assert calls == []
    assert sum(stacked) == len(ps.patterns)
    assert stacked[:-1] == [arr.BASES_CHUNK] * (len(stacked) - 1)
    assert prob.layout.bases is ps.bases(inst.x)
    assert len(rep.per_pattern) == len(cert.block_norms) == len(prob.blocks)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 12), d=st.integers(1, 5), seed=st.integers(0, 2**16),
       deficient=st.booleans(), directions=st.just(40))
@example(n=80, d=10, seed=1, deficient=False, directions=500)  # several chunks
@example(n=80, d=10, seed=2, deficient=True, directions=500)  # every rank < k
@example(n=8, d=11, seed=3, deficient=True, directions=400)  # n < d
def test_stacked_normalized_norms_equal_the_per_pattern_loop(n, d, seed, deficient,
                                                             directions):
    # one product over the basis stack gives the bytes of one gemv per pattern,
    # for full-rank patterns, rank < min(n, d) ones and the rank-0 zero mask
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    if deficient:  # rank d - 1, or the zero matrix when d = 1
        x[:, -1] = 2.0 * x[:, 0] if d > 1 else 0.0
    ps = arr.sample_patterns(x, directions, seed=seed)
    zero = np.zeros(n, dtype=np.uint8)
    if ps.index(zero) < 0:
        ps = arr.PatternSet(ps.patterns + [arr.ArrangementPattern(zero, np.ones(d))],
                            contains_all_ones=ps.contains_all_ones, sampled=True)
    lam = rng.normal(size=n)
    got = iso._pattern_norms(x, ps, lam, normalized=True)
    ref = [np.linalg.norm(compact_svd(m[:, None] * x).u.T @ lam) for m in ps.masks]
    assert np.array(got).tobytes() == np.array(ref).tobytes()
