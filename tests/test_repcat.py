import random
from dataclasses import replace

import pytest

from qhopf.exactmath import ExactMatrix, Scalar
from qhopf.repcat import (
    Morphism,
    associator,
    coadjoint_module,
    associator_inv,
    braiding,
    coevaluation,
    coevaluation_right,
    dual_module,
    dual_of_adjoint_iso,
    evaluation,
    evaluation_right,
    hopf_tangle,
    iota,
    j_end,
    pivotal,
    regular_module,
    ribbon_twist,
    structure_morphisms,
    tensor_module,
    trivial_module,
    verify_braided_hopf,
)


def test_regular_module_representation_property(presets):
    for p in presets.values():
        ok, w = regular_module(p.algebra).check_representation()
        assert ok, (p.name, w)


def test_double_regular_square_is_16_dim(presets):
    alg = presets["double_Z2"].algebra
    reg = regular_module(alg)
    sq = tensor_module(reg, reg)
    assert sq.dim == 16
    ok, w = sq.check_representation()
    assert ok, w


def test_tensor_with_trivial_keeps_action(presets):
    alg = presets["twisted_double_Z2"].algebra
    reg = regular_module(alg)
    t = tensor_module(reg, trivial_module(alg))
    for i in range(alg.dim):
        assert t.action[i] == reg.action[i]


def test_dual_of_trivial_is_trivial(presets):
    for p in presets.values():
        d = dual_module(trivial_module(p.algebra))
        for i in range(p.algebra.dim):
            assert d.action[i] == trivial_module(p.algebra).action[i]


def test_strict_morphism_rejects_non_intertwiner(presets):
    alg = presets["double_Z2"].algebra
    reg = regular_module(alg)
    bad = ExactMatrix.zeros(4, 4, alg.order)
    bad[0, 1] = Scalar.one(alg.order)
    assert Morphism(reg, reg, bad).is_intertwiner() == (False, (1,))


def _zigzags_hold(U):
    A = U.alg
    d = U.dim
    i_u = ExactMatrix.identity(d, A.order)
    us = dual_module(U)
    ev, coev = evaluation(U), coevaluation(U)
    # U -> (U U*) U -> U (U* U) -> U
    z1 = i_u.kron(ev.matrix) * associator_inv(U, us, U).matrix * coev.matrix.kron(i_u)
    # U* -> U* (U U*) -> (U* U) U* -> U*
    z2 = ev.matrix.kron(i_u) * associator(us, U, us).matrix * i_u.kron(coev.matrix)
    return z1 == i_u and z2 == i_u


def _right_zigzags_hold(U):
    A = U.alg
    d = U.dim
    i_u = ExactMatrix.identity(d, A.order)
    us = dual_module(U)
    ev, coev = evaluation_right(U), coevaluation_right(U)
    # U -> U (U* U) -> (U U*) U -> U
    z1 = ev.matrix.kron(i_u) * associator(U, us, U).matrix * i_u.kron(coev.matrix)
    # U* -> (U* U) U* -> U* (U U*) -> U*
    z2 = i_u.kron(ev.matrix) * associator_inv(us, U, us).matrix * coev.matrix.kron(i_u)
    return z1 == i_u and z2 == i_u


def test_duality_zigzags(presets):
    for p in presets.values():
        alg = p.algebra
        for U in (trivial_module(alg), regular_module(alg)):
            assert _zigzags_hold(U), p.name
            assert _right_zigzags_hold(U), p.name
        for lbl, U in zip(p.simples.labels, p.simples.simples):
            assert _zigzags_hold(U), (p.name, lbl)
            assert _right_zigzags_hold(U), (p.name, lbl)


def test_braiding_trivial_tensor_is_flip(presets):
    for p in presets.values():
        alg = p.algebra
        u = regular_module(alg)
        sigma = braiding(trivial_module(alg), u)
        assert sigma.matrix == ExactMatrix.identity(u.dim, alg.order)


def test_braiding_intertwines(presets):
    alg = presets["twisted_double_Z2"].algebra
    reg = regular_module(alg)
    ok, w = braiding(reg, reg).is_intertwiner()
    assert ok, w


def test_hexagons_as_matrices(presets):
    # the two braiding hexagons, independently of the element-level checks
    for name in ("double_Z2", "twisted_double_Z2"):
        alg = presets[name].algebra
        u = regular_module(alg)
        i_u = ExactMatrix.identity(u.dim, alg.order)
        pair = tensor_module(u, u)
        direct = braiding(u, pair).matrix
        composite = (
            associator(u, u, u).matrix
            * i_u.kron(braiding(u, u).matrix)
            * associator_inv(u, u, u).matrix
            * braiding(u, u).matrix.kron(i_u)
            * associator(u, u, u).matrix
        )
        assert direct == composite, name
        direct = braiding(pair, u).matrix
        composite = (
            associator_inv(u, u, u).matrix
            * braiding(u, u).matrix.kron(i_u)
            * associator(u, u, u).matrix
            * i_u.kron(braiding(u, u).matrix)
            * associator_inv(u, u, u).matrix
        )
        assert direct == composite, name


def test_pentagon_on_regular_modules(presets):
    for name in ("double_Z2", "twisted_double_Z2"):
        alg = presets[name].algebra
        u = regular_module(alg)
        i_u = ExactMatrix.identity(u.dim, alg.order)
        uu = tensor_module(u, u)
        lhs = associator(uu, u, u).matrix * associator(u, u, uu).matrix
        rhs = (
            associator(u, u, u).matrix.kron(i_u)
            * associator(u, uu, u).matrix
            * i_u.kron(associator(u, u, u).matrix)
        )
        assert lhs == rhs, name


def test_structure_morphisms_are_intertwiners(presets):
    alg = presets["twisted_double_Z2"].algebra
    u = regular_module(alg)
    mor = structure_morphisms(u, u, u)
    assert set(mor) == {
        "associator", "braiding", "ev", "coev",
        "ev_right", "coev_right", "ribbon", "pivotal",
    }
    for name, m in mor.items():
        ok, w = m.is_intertwiner()
        assert ok, (name, w)


def test_ribbon_twist_is_inverse_ribbon_action(presets):
    alg = presets["double_Z2"].algebra
    u = regular_module(alg)
    assert ribbon_twist(u).matrix == u.act(alg.ribbon_inv)


def test_pivotal_square_relation(presets):
    # the pivotal map intertwines U with its double dual
    for name in ("double_Z2", "twisted_double_Z2"):
        u = regular_module(presets[name].algebra)
        ok, w = pivotal(u).is_intertwiner()
        assert ok, (name, w)


# ---------------------------------------------------------------------------
# coend machinery


def test_iota_on_trivial_module_is_counit(presets):
    for p in presets.values():
        alg = p.algebra
        m = iota(trivial_module(alg)).matrix
        assert [m[a, 0] for a in range(alg.dim)] == list(alg.counit)


def test_iota_on_regular_module_fixes_functionals(presets):
    # f (x) unit goes to f itself
    alg = presets["double_Z2"].algebra
    m = iota(regular_module(alg)).matrix
    for f in range(alg.dim):
        col = [m[a, f * alg.dim + 0] for a in range(alg.dim)]
        expected = [
            Scalar.one(alg.order) if a == f else Scalar.zero(alg.order)
            for a in range(alg.dim)
        ]
        assert col == expected


def test_iota_and_j_are_intertwiners(presets):
    for p in presets.values():
        for M in (trivial_module(p.algebra), regular_module(p.algebra)):
            ok, w = iota(M).is_intertwiner()
            assert ok, (p.name, w)
            ok, w = j_end(M).is_intertwiner()
            assert ok, (p.name, w)


def test_iota_dinaturality_for_group_average(presets):
    # the map 1 -> A sending 1 to the full group average intertwines for
    # the Z/2 group algebra; dinaturality relates the two transports
    alg = presets["group_Z2_trivialR"].algebra
    triv, reg = trivial_module(alg), regular_module(alg)
    one = Scalar.one(alg.order)
    f = Morphism(triv, reg, ExactMatrix(2, 1, alg.order, [[one], [one]]))
    assert f.is_intertwiner() == (True, None)
    i_t = ExactMatrix.identity(1, alg.order)
    i_r = ExactMatrix.identity(2, alg.order)
    # dinaturality: iota_N (id x f) = iota_M (f* x id) with M = triv, N = reg
    left = iota(reg).matrix * i_r.kron(f.matrix)
    right = iota(triv).matrix * f.matrix.transpose().kron(i_t)
    assert left == right


def test_j_dinaturality_for_right_multiplication(presets):
    # right multiplication by any element intertwines the regular module
    alg = presets["double_Z2"].algebra
    reg = regular_module(alg)
    x = alg.ribbon
    f = Morphism(reg, reg, alg.rmult_of(x))
    assert f.is_intertwiner() == (True, None)
    i_r = ExactMatrix.identity(reg.dim, alg.order)
    left = i_r.kron(f.matrix.transpose()) * j_end(reg).matrix
    right = f.matrix.kron(i_r) * j_end(reg).matrix
    assert left == right


def test_dual_of_adjoint_iso(presets):
    for p in presets.values():
        mor = dual_of_adjoint_iso(p.algebra)
        ok, w = mor.is_intertwiner()
        assert ok, (p.name, w)
        assert mor.matrix.rank() == p.algebra.dim


def test_dual_of_adjoint_iso_hopf_case(presets):
    # with a trivial twist the comparison map is the inverse antipode
    for name in ("trivial", "group_Z2_trivialR", "double_Z2"):
        alg = presets[name].algebra
        mor = dual_of_adjoint_iso(alg)
        assert mor.matrix == alg.antipode_inv.transpose()


def test_hopf_tangle_trivial_algebra(presets):
    alg = presets["trivial"].algebra
    t = hopf_tangle(trivial_module(alg), trivial_module(alg))
    assert t.matrix == ExactMatrix.identity(1, alg.order)


def test_hopf_tangle_with_trivial_legs(presets):
    for name in ("double_Z2", "twisted_double_Z2"):
        alg = presets[name].algebra
        reg, triv = regular_module(alg), trivial_module(alg)
        # trivial source: the tangle is evaluation then coevaluation
        t = hopf_tangle(triv, reg)
        assert t.matrix == coevaluation(reg).matrix * evaluation(triv).matrix
        # trivial target: evaluation of the source
        t = hopf_tangle(reg, triv)
        assert t.matrix == coevaluation(triv).matrix * evaluation(reg).matrix


def test_verify_braided_hopf_all_presets(presets):
    for name, p in presets.items():
        rep = verify_braided_hopf(p.algebra)
        assert rep.ok, (name, rep.failures())


def test_verify_braided_hopf_fails_on_mutant(presets):
    from qhopf.exactmath import Scalar
    from qhopf.presets import mutate

    alg = presets["twisted_double_Z2"].algebra
    bad = mutate(alg, ("coproduct", (1, 1, 1)), Scalar.rational(1, order=4))
    rep = verify_braided_hopf(bad)
    assert not rep.ok


def test_verify_braided_hopf_reads_the_ribbon(presets):
    # a ribbon changed without its solved inverse: S_L^2 still equals the
    # action of ribbon_inv, so only the second identity, S_L^2 v = 1, fails
    from qhopf.presets import mutate

    base = presets["twisted_double_Z2"].algebra
    for i in range(base.dim):
        rep = verify_braided_hopf(mutate(base, ("ribbon", (i,)), Scalar.one(base.order)))
        assert [str(r).partition("@")[0] for r in rep.failures()] == \
            ["antipode_square_is_twist[1]"], (i, rep)


def test_verify_braided_hopf_locates_matrix_failures(presets, all_maps, monkeypatch):
    import copy
    from dataclasses import replace

    import qhopf.repcat

    maps = all_maps["twisted_double_Z2"]
    mu_hat = copy.deepcopy(maps.mu_hat)
    mu_hat[5, 1] = mu_hat[5, 1] + Scalar.one(4)
    monkeypatch.setattr(qhopf.repcat, "coend_maps", lambda A: replace(maps, mu_hat=mu_hat))
    rep = verify_braided_hopf(presets["twisted_double_Z2"].algebra)
    witness = rep["associativity"].witness
    assert not rep["associativity"].ok
    assert isinstance(witness, tuple) and len(witness) == 2
    assert all(r.witness is not None for r in rep.failures())


# the mutation sites, with their arities, whose single-entry mutants of
# twisted_double_Z2 mostly leave no invertible Drinfeld element or twist;
# coproduct, counit and phi_inv mutants mostly reach the braided Hopf checks
MUTANT_ARITY = {"mult": 3, "antipode": 2, "phi": 3, "alpha": 1, "beta": 1,
                "r_matrix": 2, "r_inv": 2}


def test_verify_braided_hopf_reports_invalid_inputs(presets):
    # where the structure maps cannot be built, the validate report stands in
    from qhopf.presets import mutate

    base = presets["twisted_double_Z2"].algebra
    rng = random.Random(5)
    fallback = 0
    for _ in range(30):
        section = rng.choice(sorted(MUTANT_ARITY))
        idx = tuple(rng.randrange(base.dim) for _ in range(MUTANT_ARITY[section]))
        delta = Scalar.rational(rng.choice([1, -1]), rng.choice([1, 2]), order=base.order)
        rep = verify_braided_hopf(mutate(base, (section, idx), delta))
        assert not rep.ok, (section, idx, delta)
        assert all(r.witness is not None for r in rep.failures()), (section, idx, rep)
        fallback += rep.results[0].name != "module_morphism_product"
    assert fallback >= 20


def test_verify_braided_hopf_raises_again_on_a_valid_input(presets, monkeypatch):
    import qhopf.repcat

    def broken(A, maps):
        raise ValueError("structure maps unavailable")

    monkeypatch.setattr(qhopf.repcat, "dualised_structure", broken)
    with pytest.raises(ValueError, match="structure maps unavailable"):
        verify_braided_hopf(presets["double_Z2"].algebra)


def test_coadjoint_of_trivial_algebra_is_trivial(presets):
    alg = presets["trivial"].algebra
    L = coadjoint_module(alg)
    assert L.dim == 1
    assert L.action == trivial_module(alg).action


@pytest.mark.parametrize("morphism", [ribbon_twist, pivotal, evaluation_right, coevaluation_right])
def test_ribbon_morphisms_refuse_an_input_without_ribbon(presets, morphism):
    alg = replace(presets["double_Z2"].algebra, ribbon=None, ribbon_inv=None)
    with pytest.raises(ValueError, match="operation requires ribbon data"):
        morphism(trivial_module(alg))
