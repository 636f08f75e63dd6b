from qhopf.exactmath import Scalar, basis_vector, vec_eq
from qhopf import tensorspace as ts
from qhopf.tensorspace import Tensor
from qhopf.qha import monodromy
from qhopf.coend import (
    bt_monodromy_matrix,
    bt_monodromy_via_tangle_element,
    copairing,
    factorisability,
    hopf_reduced_maps,
    q_form,
    q_hat,
)

HOPF = ("trivial", "group_Z2_trivialR", "double_Z2")


def test_trivial_algebra_maps(presets, all_maps):
    alg = presets["trivial"].algebra
    maps = all_maps["trivial"]
    one = Scalar.one(1)
    assert maps.mu_hat.dense == [[one], [one]][:1] or maps.mu_hat.rows == 1
    assert maps.mu_hat[0, 0] == one          # mu(1) = 1 x 1
    assert maps.s_hat_L[0, 0] == one         # S = id
    assert maps.eps_hat == [one]
    assert maps.eta_hat == list(alg.counit)


def test_hopf_reduction_oracle(presets, all_maps):
    # on genuinely Hopf inputs the general formulas collapse to the short
    # forms, entry by entry
    for name in HOPF:
        alg = presets[name].algebra
        general = all_maps[name]
        short = hopf_reduced_maps(alg)
        assert general.mu_hat == short.mu_hat, name
        assert general.delta_hat == short.delta_hat, name
        assert general.eta_hat == short.eta_hat, name
        assert general.eps_hat == short.eps_hat, name
        assert general.s_hat_L == short.s_hat_L, name
        assert general.omega_hat == short.omega_hat, name


def test_hopf_delta_hat_is_opposite_product(presets, all_maps):
    alg = presets["double_Z2"].algebra
    delta_hat = all_maps["double_Z2"].delta_hat
    for a in range(alg.dim):
        for b in range(alg.dim):
            col = [delta_hat[i, a * alg.dim + b] for i in range(alg.dim)]
            ba = alg.product(basis_vector(alg.dim, b, alg.order),
                             basis_vector(alg.dim, a, alg.order))
            assert vec_eq(col, ba)


def test_hopf_omega_hat_short_form(presets, all_maps):
    alg = presets["double_Z2"].algebra
    m = monodromy(alg)
    expected = ts.leg_map(ts.permute(m, (2, 1)), 1, alg.antipode)
    assert all_maps["double_Z2"].omega_hat == expected


def test_w_element_matches_x_q(presets, all_maps):
    # W differs from the monodromy product element only by the two
    # evaluation-element insertions; with alpha = 1 they coincide
    for name in HOPF:
        maps = all_maps[name]
        assert maps.w_tensor == maps.x_q, name


def test_factorisability_verdicts(presets, all_maps):
    expected = {
        "trivial": True,
        "group_Z2_trivialR": False,
        "double_Z2": True,
        "twisted_double_Z2": True,
    }
    for name, p in presets.items():
        fact = factorisability(p.algebra, all_maps[name])
        assert fact.is_factorisable == expected[name], name
        assert fact.tests_agree, name
        assert fact.is_factorisable == p.factorisable


def test_group_z2_pairing_degenerates(presets, all_maps):
    maps = all_maps["group_Z2_trivialR"]
    assert maps.omega_hat == Tensor.unit(2, 2)
    fact = factorisability(presets["group_Z2_trivialR"].algebra, maps)
    assert fact.rank_D == 1 and fact.rank_BT == 1
    assert fact.invariants_dim == 2 and fact.omega_iso_rank == 1


def test_double_rank_is_dimension(presets, all_maps):
    fact = factorisability(presets["double_Z2"].algebra, all_maps["double_Z2"])
    assert fact.rank_D == fact.rank_BT == 4
    assert fact.omega_iso_rank == fact.invariants_dim == fact.coinvariants_dim == 4


def test_q_hat_identity_cases(presets, all_maps):
    # trivial algebra and trivial monodromy collapse the bilinear map
    for name in ("trivial", "group_Z2_trivialR"):
        alg = presets[name].algebra
        qm = q_hat(alg, all_maps[name].x_q)
        n = alg.dim * alg.dim
        from qhopf.exactmath import ExactMatrix

        assert qm == ExactMatrix.identity(n, alg.order), name


def test_omega_hat_from_q_hat(presets, all_maps):
    # contracting the bilinear map against the evaluation element on both
    # arguments reproduces the self-pairing element
    for name, p in presets.items():
        alg = p.algebra
        maps = all_maps[name]
        alpha = Tensor.from_vector(alg.alpha, alg.order)
        got = q_form(alg, maps.x_q, alpha, alpha)
        assert got == maps.omega_hat, name


def test_copairing_from_w_directly(presets, all_maps):
    # the copairing built through the self-pairing element equals the
    # direct four-leg contraction of W against the doubled X element
    for name, p in presets.items():
        alg = p.algebra
        maps = all_maps[name]
        mt = alg.mult_table
        xc = ts.coproduct_leg(
            ts.coproduct_leg(alg.x_d, 1, alg.cop_table), 3, alg.cop_table)
        t_x = ts.permute(xc, (3, 4, 1, 2))
        t_w = ts.permute(maps.w_tensor, (3, 4, 1, 2))
        u = ts.mul(t_w, t_x, mt)
        u = ts.leg_map(ts.leg_map(u, 1, alg.antipode), 3, alg.antipode)
        direct = ts.merge_legs(u, ((1, 2), (3, 4)), mt)
        assert direct == copairing(alg, maps), name


def test_bt_monodromy_two_routes(presets):
    for name, p in presets.items():
        assert bt_monodromy_matrix(p.algebra) == bt_monodromy_via_tangle_element(
            p.algebra), name


def test_bt_monodromy_hopf_reduction(presets):
    # for Hopf inputs the end-valued Drinfeld element is the monodromy
    for name in HOPF:
        alg = presets[name].algebra
        assert bt_monodromy_matrix(alg) == monodromy(alg), name


def test_copairing_hopf_reduction(presets, all_maps):
    # for Hopf inputs the copairing equals the self-pairing element
    for name in HOPF:
        maps = all_maps[name]
        assert copairing(presets[name].algebra, maps) == maps.omega_hat, name


def test_q_form_slots_match_elements(presets, all_maps):
    # a slot argument evaluates the map on every basis element at once; its
    # index leg follows the two values, a's before b's
    for name in ("double_Z2", "twisted_double_Z2"):
        alg = presets[name].algebra
        x_q, slot = all_maps[name].x_q, ts.identity(alg.dim, alg.order)
        e = [basis_vector(alg.dim, i, alg.order) for i in range(alg.dim)]
        el = [Tensor.from_vector(v, alg.order) for v in e]
        both = q_form(alg, x_q, slot, slot)
        first = q_form(alg, x_q, slot, el[1])
        second = q_form(alg, x_q, el[1], slot)
        for i in range(alg.dim):
            assert ts.contract_leg(first, 3, e[i]) == q_form(alg, x_q, el[i], el[1])
            assert ts.contract_leg(second, 3, e[i]) == q_form(alg, x_q, el[1], el[i])
            for j in range(alg.dim):
                got = ts.contract_leg(ts.contract_leg(both, 4, e[j]), 3, e[i])
                assert got == q_form(alg, x_q, el[i], el[j]), (name, i, j)
