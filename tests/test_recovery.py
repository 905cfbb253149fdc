import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from neuriso import arrangements as arr
from neuriso import ensembles as ens
from neuriso import isometry as iso
from neuriso import recovery as rec
from neuriso import solvers as sol
from neuriso.errors import (InconsistentSolutionError, InvalidInputError,
                            MissingPlantError, SchemaError)


def sampled_with_plants(x, count, seed, plants):
    mat = x.mat if hasattr(x, "mat") else x
    return arr.with_plants(mat, arr.sample_patterns(mat, count, seed=seed), plants)


def manual_solution(blocks, weights):
    norms = [float(np.linalg.norm(w)) for w in weights]
    top = max(norms)
    active = [i for i, v in enumerate(norms) if v > 1e-6 * top] if top > 0 else []
    return sol.BlockSolution(weights=[np.asarray(w, float) for w in weights],
                             dual=np.zeros(blocks[0].shape[0]),
                             objective=float(sum(norms)), primal_residual=0.0,
                             dual_residual=0.0, cone_violation=0.0,
                             iterations=0, active_blocks=active, converged=True)


# ---------------------------------------------------------------- programs


def test_build_program_shapes():
    x = ens.gen_matrix("gaussian", 20, 4, seed=0)
    ps = arr.sample_patterns(x.mat, 30, seed=1)
    p = len(ps.patterns)
    y = np.zeros(20)

    def assert_layout(prob, skip, paired):
        lay = prob.layout
        assert (lay.skip, lay.paired) == (skip, paired)
        assert lay.patterns is ps and np.array_equal(lay.x, x.mat)
        # every pattern block maps back to its own pattern and sign
        for j in range(p):
            for neg in ((False, True) if paired else (False,)):
                assert lay.pattern(lay.block(j, neg)) == (j, neg)

    g = rec.build_program(x, ps, y, "grelu_skip")
    assert len(g.blocks) == p + 1 and g.cones is None and g.beta == 0.0
    assert np.array_equal(g.blocks[0], x.mat)
    assert_layout(g, skip=True, paired=False)
    assert g.layout.whitening is None and g.layout.bases is None

    c = rec.build_program(x, ps, y, "relu_skip_cone")
    assert len(c.blocks) == 2 * p + 1
    assert c.cones[0] is None and all(cn is not None for cn in c.cones[1:])
    assert np.array_equal(c.blocks[2], -c.blocks[1])
    assert np.array_equal(c.cones[1], c.cones[2])
    assert_layout(c, skip=True, paired=True)
    assert c.layout.bases is None

    gn = rec.build_program(x, ps, y, "grelu_normal")
    assert len(gn.blocks) == p
    for b in gn.blocks:
        if b.shape[1]:
            assert np.linalg.norm(b.T @ b - np.eye(b.shape[1])) < 1e-9
    assert_layout(gn, skip=False, paired=False)
    assert all(sv.u is b for sv, b in zip(gn.layout.bases, gn.blocks))
    assert gn.layout.bases is ps.bases(x)
    # the blocks are the set's shared bases: writing to one must fail
    with pytest.raises(ValueError):
        gn.blocks[0][...] = 1.0

    cn = rec.build_program(x, ps, y, "relu_normal_cone")
    assert len(cn.blocks) == 2 * p and all(c is not None for c in cn.cones)
    assert_layout(cn, skip=False, paired=True)
    assert len(cn.layout.bases) == p

    r = rec.build_program(x, ps, y, "reg_grelu_skip", beta=0.3)
    assert len(r.blocks) == p + 1 and r.beta == 0.3
    u0 = r.blocks[0]
    assert np.linalg.norm(u0.T @ u0 - np.eye(u0.shape[1])) < 1e-9
    assert_layout(r, skip=True, paired=False)
    assert r.layout.whitening.u is u0 and r.layout.bases is None

    with pytest.raises(InvalidInputError):
        rec.build_program(x, ps, y, "grelu_skip", beta=0.5)
    with pytest.raises(InvalidInputError):
        rec.build_program(x, ps, y, "nope")


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 10), d=st.integers(1, 4), count=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1), program=st.sampled_from(rec.PROGRAMS))
@example(n=1, d=2, count=12, seed=0, program="relu_normal_cone")  # a rank-0 pattern
def test_layout_maps_every_pattern_to_its_blocks(n, d, count, seed, program):
    x = ens.gen_matrix("gaussian", n, d, seed=seed).mat
    ps = arr.sample_patterns(x, count, seed=seed + 1)
    beta = 0.5 if program == "reg_grelu_skip" else 0.0
    prob = rec.build_program(x, ps, np.ones(n), program, beta=beta)
    lay = prob.layout
    p = len(ps.patterns)
    assert len(prob.blocks) == int(lay.skip) + (2 if lay.paired else 1) * p
    assert (prob.cones is None) == (not lay.paired)
    if lay.paired and lay.skip:
        assert prob.cones[0] is None  # the pass-through block is free
    for j, m in enumerate(ps.masks):
        # the sign cone (2 D_j - I) X, read in the pattern's basis when normalized
        cone = (2.0 * m - 1.0)[:, None] * x
        if lay.bases is not None:  # normalized: the pattern's basis
            sv = lay.bases[j]
            block = sv.u
            cone = cone @ (sv.v / sv.s) if sv.rank else None
        else:  # gated: the pattern's mask on X, or on X's whitened basis
            base = x if lay.whitening is None else lay.whitening.u
            block = m[:, None] * base
        for neg in ((False, True) if lay.paired else (False,)):
            b = lay.block(j, neg)
            assert lay.pattern(b) == (j, neg)
            assert np.array_equal(prob.blocks[b], -block if neg else block)
            if lay.paired:  # one cone object per pair: one solver metric
                assert prob.cones[b] is prob.cones[lay.block(j)]
                assert (prob.cones[b] is None if cone is None
                        else np.array_equal(prob.cones[b], cone))


# ---------------------------------------------------------------- assessment


def test_assess_exact_planted_solution():
    x = ens.gen_matrix("gaussian", 24, 4, seed=2)
    w_star = ens.plant_direction(x, seed=3)
    ps = sampled_with_plants(x, 40, 4, [w_star])
    prob = rec.build_program(x, ps, x.mat @ w_star, "grelu_skip")
    weights = [np.zeros(4) for _ in prob.blocks]
    weights[0] = w_star.copy()
    s = manual_solution(prob.blocks, weights)
    v = rec.assess_recovery(s, ens.linear_plant(w_star), prob)
    assert v.success and v.support_match and v.extras == 0
    assert v.abs_distance == 0.0
    # the same blocks assembled by hand carry no layout to read
    bare = sol.GroupProblem(blocks=prob.blocks, target=prob.target)
    with pytest.raises(InvalidInputError):
        rec.assess_recovery(s, ens.linear_plant(w_star), bare)


def test_assess_spurious_block():
    x = ens.gen_matrix("gaussian", 24, 4, seed=5)
    w_star = ens.plant_direction(x, seed=6)
    ps = sampled_with_plants(x, 40, 7, [w_star])
    i_star = ps.index(arr.pattern_of(x.mat, w_star).mask)
    prob = rec.build_program(x, ps, np.maximum(x.mat @ w_star, 0), "grelu_skip")
    weights = [np.zeros(4) for _ in prob.blocks]
    weights[1 + i_star] = w_star.copy()
    spurious = 0 if i_star else 1
    weights[1 + spurious] = 0.5 * np.ones(4) / 2.0
    s = manual_solution(prob.blocks, weights)
    v = rec.assess_recovery(s, ens.relu_plant(w_star), prob)
    assert not v.success and not v.support_match and v.extras == 1


def test_unconverged_solution_is_never_a_success():
    # the exact plant at beta = 0 and its support at beta > 0 each succeed,
    # as a Python bool, until the solve is marked unconverged
    x = ens.gen_matrix("gaussian", 24, 4, seed=2)
    w_star = ens.plant_direction(x, seed=3)
    ps = sampled_with_plants(x, 40, 4, [w_star])
    for program, beta in (("grelu_skip", 0.0), ("reg_grelu_skip", 0.5)):
        prob = rec.build_program(x, ps, x.mat @ w_star, program, beta=beta)
        sv = prob.layout.whitening
        planted = w_star if sv is None else sv.s * (sv.v.T @ w_star)
        weights = [np.zeros(4) for _ in prob.blocks]
        weights[0] = (1.0 - beta) * planted  # a penalized solve shrinks the plant
        s = manual_solution(prob.blocks, weights)
        v = rec.assess_recovery(s, ens.linear_plant(w_star), prob)
        assert v.success is True and v.support_match
        assert (v.abs_distance == 0.0) == (beta == 0.0)
        s.converged = False
        v = rec.assess_recovery(s, ens.linear_plant(w_star), prob)
        assert v.success is False and v.support_match


def test_assess_missing_plant_pattern():
    x = ens.gen_matrix("gaussian", 30, 4, seed=13)
    w_star = ens.plant_direction(x, seed=14)
    ps = arr.sample_patterns(x.mat, 60, seed=15)
    assert ps.index(arr.pattern_of(x.mat, w_star).mask) < 0
    prob = rec.build_program(x, ps, np.maximum(x.mat @ w_star, 0), "grelu_skip")
    s = manual_solution(prob.blocks, [np.zeros(4) for _ in prob.blocks])
    with pytest.raises(MissingPlantError):
        rec.assess_recovery(s, ens.relu_plant(w_star), prob)


def test_linear_plant_pipeline_success_rate():
    hits = 0
    for trial in range(5):
        x = ens.gen_matrix("gaussian", 40, 10, seed=100 + trial)
        w_star = ens.plant_direction(x, seed=200 + trial)
        ps = arr.sample_patterns(x.mat, 60, seed=300 + trial)
        y, _ = ens.gen_observation(ens.linear_plant(w_star), x, seed=400 + trial)
        prob = rec.build_program(x, ps, y, "grelu_skip")
        s = sol.solve_group_min_norm(prob)
        v = rec.assess_recovery(s, ens.linear_plant(w_star), prob)
        hits += int(v.success)
    assert hits / 5 >= 0.9  # n = 4d sits deep in the success region


def test_assess_scaling_invariance():
    x = ens.gen_matrix("gaussian", 40, 10, seed=101)
    w_star = ens.plant_direction(x, seed=201)
    ps = arr.sample_patterns(x.mat, 60, seed=301)
    for c in (1.0, 37.0):
        plant = ens.linear_plant(c * w_star)
        y, _ = ens.gen_observation(plant, x, seed=0)
        prob = rec.build_program(x, ps, y, "grelu_skip")
        s = sol.solve_group_min_norm(prob)
        v = rec.assess_recovery(s, plant, prob)
        if c == 1.0:
            base = v.success
        else:
            assert v.success == base


def test_assess_whitened_program():
    x = ens.gen_matrix("gaussian", 50, 10, seed=102)
    w_star = ens.plant_direction(x, seed=202)
    ps = arr.sample_patterns(x.mat, 60, seed=302)
    y, _ = ens.gen_observation(ens.linear_plant(w_star), x, seed=0)
    prob = rec.build_program(x, ps, y, "reg_grelu_skip", beta=1e-3)
    s = sol.solve_group_lasso(prob)
    v = rec.assess_recovery(s, ens.linear_plant(w_star), prob, tol=2e-2)
    # at tiny beta the whitened solve shrinks slightly toward zero but keeps
    # the skip support; the mapped plant coordinates must be the comparison
    assert v.support_match
    sv = np.linalg.svd(x.mat, compute_uv=False)
    assert v.abs_distance < 2e-2 * np.linalg.norm(w_star) * sv[0]


def test_one_pattern_normal_cone_recovers():
    # with a single pattern the paired normalized program has two blocks,
    # as many as a skip block plus one gated block; the verdicts must read
    # the program's own layout, not guess it from the block count
    x = ens.gen_matrix("gaussian", 20, 4, seed=2)
    w_star = ens.plant_direction(x, seed=3)
    ps = arr.PatternSet(patterns=[arr.pattern_of(x.mat, w_star)],
                        contains_all_ones=False, sampled=True)
    plant = ens.normalized_plant([(w_star, 1.0)])
    y, _ = ens.gen_observation(plant, x, seed=0)
    prob = rec.build_program(x, ps, y, "relu_normal_cone")
    assert len(prob.blocks) == 2
    s = sol.solve_cone_constrained(prob)
    assert s.converged and s.active_blocks == [0]
    v = rec.assess_recovery(s, plant, prob)
    assert v.success and v.support_match and v.extras == 0
    assert v.abs_distance < 1e-6
    net = rec.reconstruct_network(s, prob)
    assert net.arch == "normalized" and len(net.first_layer) == 1
    assert np.linalg.norm(rec.predict(net, x.mat) - y) < 1e-6


# ---------------------------------------------------------------- distance


def test_test_distance_oracles():
    x = ens.gen_matrix("gaussian", 24, 5, seed=8)
    w_star = ens.plant_direction(x, seed=9)
    ps = sampled_with_plants(x, 40, 10, [w_star])
    x_test = ens.gen_matrix("gaussian", 30, 5, seed=11)
    plant = ens.linear_plant(w_star)
    prob = rec.build_program(x, ps, x.mat @ w_star, "grelu_skip")
    exact = [np.zeros(5) for _ in prob.blocks]
    exact[0] = w_star.copy()
    exact_sol = manual_solution(prob.blocks, exact)
    assert rec.test_distance(exact_sol, plant, prob, x_test) == 0.0
    zero = manual_solution(prob.blocks, [np.zeros(5) for _ in prob.blocks])
    e1 = np.zeros(5)
    e1[0] = 1.0
    d = rec.test_distance(zero, ens.linear_plant(e1), prob, x_test)
    assert abs(d - np.linalg.norm(x_test.mat @ e1)) < 1e-12


def test_test_distance_improves_with_samples():
    dist = {}
    for n in (12, 60):
        acc = []
        for trial in range(8):
            x = ens.gen_matrix("gaussian", n, 6, seed=500 + trial)
            w_star = ens.plant_direction(x, seed=600 + trial)
            plant = ens.relu_plant(w_star, noise_sigma=0.1)
            y, _ = ens.gen_observation(plant, x, seed=700 + trial)
            ps = sampled_with_plants(x, 50, 800 + trial, [w_star])
            prob = rec.build_program(x, ps, y, "grelu_skip")
            s = sol.solve_group_min_norm(prob)
            x_test = ens.gen_matrix("gaussian", 100, 6, seed=900 + trial)
            acc.append(rec.test_distance(s, plant, prob, x_test))
        dist[n] = float(np.mean(acc))
    assert dist[60] < dist[12]


# ------------------------------------------------------------ reconstruction


def test_reconstruct_linear_only():
    x = ens.gen_matrix("gaussian", 20, 4, seed=12)
    w_star = ens.plant_direction(x, seed=13)
    ps = arr.sample_patterns(x.mat, 30, seed=14)
    for program in ("grelu_skip", "reg_grelu_skip"):
        prob = rec.build_program(x, ps, x.mat @ w_star, program)
        sv = prob.layout.basis(0)  # the whitening of reg_grelu_skip
        weights = [np.zeros(4) for _ in prob.blocks]
        weights[0] = w_star.copy() if sv is None else sv.s * (sv.v.T @ w_star)
        net = rec.reconstruct_network(manual_solution(prob.blocks, weights), prob)
        assert len(net.first_layer) == 1
        pred = rec.predict(net, x.mat)
        assert np.linalg.norm(pred - x.mat @ w_star) < 1e-10


def test_reconstruct_forward_matches_convex_prediction():
    checked = 0
    for trial in range(60):
        x = ens.gen_matrix("gaussian", 40, 4, seed=1000 + trial)
        w_star = ens.plant_direction(x, seed=1100 + trial)
        ps = sampled_with_plants(x, 60, 1200 + trial, [w_star])
        if not iso.nic_relu_single(x, w_star, ps).holds:
            continue
        y = np.maximum(x.mat @ w_star, 0.0)
        prob = rec.build_program(x, ps, y, "grelu_skip")
        s = sol.solve_group_min_norm(prob, sol.SolverOptions(tol=1e-10))
        convex_pred = sum(b @ w for b, w in zip(prob.blocks, s.weights))
        net = rec.reconstruct_network(s, prob)
        pred = rec.predict(net, x.mat)
        assert np.linalg.norm(pred - convex_pred) < 1e-8 * max(1.0, np.linalg.norm(y))
        checked += 1
        if checked >= 10:
            break
    assert checked >= 10


def test_reconstruct_normalized_arch():
    x = ens.gen_matrix("gaussian", 40, 10, seed=16)
    w_star = ens.plant_direction(x, seed=17)
    ps = sampled_with_plants(x, 60, 18, [w_star])
    plant = ens.normalized_plant([(w_star, 1.0)])
    y, _ = ens.gen_observation(plant, x, seed=0)
    prob = rec.build_program(x, ps, y, "grelu_normal")
    s = sol.solve_group_min_norm(prob)
    v = rec.assess_recovery(s, plant, prob)
    assert v.success
    net = rec.reconstruct_network(s, prob)
    assert net.alphas is not None and len(net.alphas) == len(net.first_layer)
    pred = rec.predict(net, x.mat)
    assert np.linalg.norm(pred - y) < 1e-6
    # weights of another length are not the block's basis coordinates
    b = s.active_blocks[0]
    s.weights[b] = np.ones(s.weights[b].size + 1)
    with pytest.raises(InvalidInputError, match="basis coordinates"):
        rec.reconstruct_network(s, prob)


def test_reconstruct_negative_pair_neuron():
    x = ens.gen_matrix("gaussian", 24, 4, seed=19)
    w_star = ens.plant_direction(x, seed=20)
    ps = sampled_with_plants(x, 40, 21, [w_star])
    i_star = ps.index(arr.pattern_of(x.mat, w_star).mask)
    y = -np.maximum(x.mat @ w_star, 0.0)
    prob = rec.build_program(x, ps, y, "relu_skip_cone")
    weights = [np.zeros(4) for _ in prob.blocks]
    weights[1 + 2 * i_star + 1] = w_star.copy()  # negative copy of the pair
    net = rec.reconstruct_network(manual_solution(prob.blocks, weights), prob)
    assert len(net.first_layer) == 1
    assert net.second_layer[0] < 0
    pred = rec.predict(net, x.mat)
    assert np.linalg.norm(pred - y) < 1e-10


def test_reconstruct_rejects_mask_violation():
    x = ens.gen_matrix("gaussian", 20, 4, seed=22)
    w_star = ens.plant_direction(x, seed=23)
    ps = sampled_with_plants(x, 30, 24, [w_star])
    i_star = ps.index(arr.pattern_of(x.mat, w_star).mask)
    other = (i_star + 1) % len(ps.patterns)
    prob = rec.build_program(x, ps, np.maximum(x.mat @ w_star, 0), "grelu_skip")
    weights = [np.zeros(4) for _ in prob.blocks]
    weights[1 + other] = w_star.copy()  # wrong cell for this direction
    with pytest.raises(InconsistentSolutionError):
        rec.reconstruct_network(manual_solution(prob.blocks, weights), prob)


# ------------------------------------------------------- splitting/equivalence


def net_plain(ws, cs):
    return rec.NetworkWeights(arch="plain", first_layer=[np.asarray(w, float) for w in ws],
                              second_layer=list(cs), alphas=None)


def test_split_preserves_function_and_equivalence():
    rng = np.random.default_rng(25)
    net = net_plain(rng.standard_normal((3, 5)), [1.0, -2.0, 0.5])
    split = rec.split_network(net, 1, [0.3, 0.7])
    assert len(split.first_layer) == 4
    xs = rng.standard_normal((100, 5))
    assert np.max(np.abs(rec.predict(net, xs) - rec.predict(split, xs))) < 1e-10
    assert rec.is_equivalent(net, split, tol=1e-9)


def test_permutation_equivalence():
    rng = np.random.default_rng(26)
    ws = rng.standard_normal((4, 3))
    cs = [1.0, 0.5, -1.5, 2.0]
    net = net_plain(ws, cs)
    perm = [2, 0, 3, 1]
    net2 = net_plain(ws[perm], [cs[i] for i in perm])
    assert rec.is_equivalent(net, net2, tol=1e-9)
    xs = rng.standard_normal((100, 3))
    assert np.max(np.abs(rec.predict(net, xs) - rec.predict(net2, xs))) < 1e-10


def test_different_supports_not_equivalent():
    rng = np.random.default_rng(27)
    ws = rng.standard_normal((2, 3))
    net = net_plain(ws, [1.0, 1.0])
    net2 = net_plain(ws[:1], [1.0])
    assert not rec.is_equivalent(net, net2, tol=1e-9)


def test_split_rejects_bad_gammas():
    net = net_plain(np.eye(2), [1.0, 1.0])
    with pytest.raises(InvalidInputError):
        rec.split_network(net, 0, [-0.1, 1.1])
    with pytest.raises(InvalidInputError):
        rec.split_network(net, 0, [0.4, 0.4])
    # a NaN weight slips past the sum check and used to split into NaN
    for gammas in ([np.nan], [np.inf], [0.5, np.nan]):
        with pytest.raises(InvalidInputError):
            rec.split_network(net, 0, gammas)


def test_split_normalized_arch():
    rng = np.random.default_rng(28)
    net = rec.NetworkWeights(arch="normalized",
                             first_layer=[rng.standard_normal(4) for _ in range(2)],
                             second_layer=[1.0, -0.5], alphas=[2.0, 1.0])
    split = rec.split_network(net, 0, [0.5, 0.25, 0.25])
    xs = rng.standard_normal((100, 4))
    assert np.max(np.abs(rec.predict(net, xs) - rec.predict(split, xs))) < 1e-10
    assert rec.is_equivalent(net, split, tol=1e-9)


def test_skip_arch_split_of_linear_unit():
    rng = np.random.default_rng(29)
    net = rec.NetworkWeights(arch="skip",
                             first_layer=[rng.standard_normal(3) for _ in range(2)],
                             second_layer=[1.5, 0.7], alphas=None)
    split = rec.split_network(net, 0, [0.6, 0.4])
    xs = rng.standard_normal((100, 3))
    assert np.max(np.abs(rec.predict(net, xs) - rec.predict(split, xs))) < 1e-10
    assert rec.is_equivalent(net, split, tol=1e-9)


def test_network_weights_validation():
    with pytest.raises(InvalidInputError):
        rec.NetworkWeights(arch="plain", first_layer=[np.ones(3)],
                           second_layer=[1.0, 2.0], alphas=None)
    with pytest.raises(InvalidInputError):
        rec.NetworkWeights(arch="normalized", first_layer=[np.ones(3)],
                           second_layer=[1.0], alphas=None)
    for bad in (np.nan, np.inf, -np.inf):
        for first, second, alphas in (([bad, 1.0], 1.0, 1.0), ([1.0, 1.0], bad, 1.0),
                                      ([1.0, 1.0], 1.0, bad)):
            with pytest.raises(InvalidInputError):
                rec.NetworkWeights(arch="normalized", first_layer=[first],
                                   second_layer=[second], alphas=[alphas])


# ---------------------------------------------------------------- text format


def test_network_text_roundtrip():
    rng = np.random.default_rng(30)
    net = rec.NetworkWeights(arch="normalized",
                             first_layer=[rng.standard_normal(4) for _ in range(3)],
                             second_layer=[1.0, -2.0, 0.25], alphas=[1.0, 0.5, 3.0])
    text = rec.network_to_text(net)
    back = rec.network_from_text(text)
    assert back.arch == net.arch
    for a, b in zip(back.first_layer, net.first_layer):
        assert np.array_equal(a, b)
    assert back.second_layer == net.second_layer
    assert back.alphas == net.alphas


def test_network_text_rejects_garbage():
    with pytest.raises(SchemaError):
        rec.network_from_text("not a header\n")
    good = rec.network_to_text(net_plain(np.eye(2), [1.0, 1.0]))
    lines = good.splitlines()
    with pytest.raises(SchemaError):
        rec.network_from_text("\n".join(lines[:-1]))  # row count mismatch
    broken = good.replace("1.0", "zap", 1)
    with pytest.raises(SchemaError):
        rec.network_from_text(broken)
    # non-finite output weights, first-layer weights and alphas; each row
    # loads once its non-finite entry is replaced by 0.5
    for row in ("1 inf - 0.5 1.0", "1 2.0 - nan 1.0", "0 1.0 0.5 -inf 1.0",
                "0 1.0 nan 0.5 1.0"):
        arch = "normalized" if " - " not in row else "skip"
        text = "network-v1 %s 1 2\n%s\n" % (arch, row)
        with pytest.raises(SchemaError):
            rec.network_from_text(text)
        for bad in ("-inf", "inf", "nan"):
            text = text.replace(bad, "0.5")
        assert rec.network_from_text(text).arch == arch


FINITE = st.floats(allow_nan=False, allow_infinity=False)  # subnormals and -0.0 too


@st.composite
def networks(draw, min_neurons=0):
    arch = draw(st.sampled_from(rec.ARCHES))
    m = draw(st.integers(min_neurons, 4))
    d = draw(st.integers(1, 4))
    vec = st.lists(FINITE, min_size=m, max_size=m)
    return rec.NetworkWeights(
        arch=arch, second_layer=draw(vec),
        first_layer=[draw(st.lists(FINITE, min_size=d, max_size=d)) for _ in range(m)],
        alphas=draw(vec) if arch == "normalized" else None,
        linear_flags=draw(st.lists(st.booleans(), min_size=m, max_size=m))
        if arch == "skip" else None)


def _bits(values):
    return np.array(values, dtype=float).tobytes()


@settings(max_examples=200, deadline=None)
@given(net=networks())
def test_network_text_roundtrip_is_bit_exact(net):
    back = rec.network_from_text(rec.network_to_text(net))
    assert back.arch == net.arch
    assert len(back.first_layer) == len(net.first_layer)
    for a, b in zip(back.first_layer, net.first_layer):
        assert a.tobytes() == b.tobytes()
    assert _bits(back.second_layer) == _bits(net.second_layer)
    assert (back.alphas is None) == (net.alphas is None)
    assert _bits(back.alphas or []) == _bits(net.alphas or [])
    assert back.linear_flags == net.linear_flags


@settings(max_examples=200, deadline=None)
@given(net=networks(min_neurons=1), how=st.sampled_from(["drop", "extra", "nonfinite"]),
       data=st.data())
def test_mutated_network_text_raises_schema_error(net, how, data):
    lines = rec.network_to_text(net).splitlines()
    if how == "nonfinite":
        # a neuron row's output weight, alpha (normalized arch) or first-layer entry
        k = data.draw(st.integers(1, len(lines) - 1))
        tok = lines[k].split()
        at = data.draw(st.sampled_from(
            [1] + [2] * (net.arch == "normalized") + list(range(3, len(tok)))))
        tok[at] = data.draw(st.sampled_from(["nan", "inf", "-inf", "1e999", "-NaN",
                                             "Infinity"]))
    else:
        k = data.draw(st.integers(0, len(lines) - 1))  # line 0 is the header
        tok = lines[k].split()
        if how == "extra":
            tok.insert(data.draw(st.integers(0, len(tok))),
                       data.draw(st.sampled_from(["0", "1", "-", "2.5", "network-v1"])))
    lines[k:k + 1] = [] if how == "drop" else [" ".join(tok)]
    with pytest.raises(SchemaError):
        rec.network_from_text("\n".join(lines) + "\n")
