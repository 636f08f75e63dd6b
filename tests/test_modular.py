from dataclasses import replace
import re

import pytest

from qhopf.exactmath import (
    ExactMatrix,
    Scalar,
    basis_vector,
    common_eigenvectors,
    vec_eq,
    zero_vector,
)
from qhopf import modular, tensorspace as ts
from qhopf.coend import coend_maps, factorisability, invariant_functionals
from qhopf.modular import (
    center,
    cointegral_L,
    integral_L,
    modular_data,
    pairing_of,
    s_hat_pairing_form,
    s_t_hat,
    sl2z_on_center,
)

FACTORISABLE = ("trivial", "double_Z2", "twisted_double_Z2")


def two_sided_integrals(alg):
    """Basis of the two-sided integrals of A, which cointegral_L scales."""
    return common_eigenvectors(alg.left_mult + alg.right_mult, alg.counit + alg.counit)


def test_center_dimensions(presets):
    assert len(center(presets["trivial"].algebra)) == 1
    assert len(center(presets["group_Z2_trivialR"].algebra)) == 2
    assert len(center(presets["double_Z2"].algebra)) == 4
    assert len(center(presets["twisted_double_Z2"].algebra)) == 4


def test_center_vectors_commute(presets):
    alg = presets["twisted_double_Z2"].algebra
    for z in center(alg):
        assert alg.lmult_of(z) == alg.rmult_of(z)


def test_trivial_integral_is_counit(presets, all_maps):
    alg = presets["trivial"].algebra
    lam = integral_L(alg, all_maps["trivial"])
    assert vec_eq(lam, list(alg.counit))
    assert pairing_of(lam, lam, all_maps["trivial"].omega_hat).is_one()


def test_double_integral_one_dimensional(presets, all_maps):
    # integral_L refuses a space of any other dimension
    for name in ("double_Z2", "twisted_double_Z2"):
        lam = integral_L(presets[name].algebra, all_maps[name])
        assert not pairing_of(lam, lam, all_maps[name].omega_hat).is_zero(), name


def test_hopf_right_integral_short_form(presets, all_maps):
    # for Hopf inputs the right-invariance condition collapses to the
    # classical right-cointegral condition on the coproduct
    for name in ("trivial", "group_Z2_trivialR", "double_Z2"):
        alg = presets[name].algebra
        lam = integral_L(alg, all_maps[name])
        for a in range(alg.dim):
            acc = zero_vector(alg.dim, alg.order)
            for (j, k), c in alg.cop_table[a]:
                acc[k] = acc[k] + c * lam[j]
            expected = [lam[a] * e for e in
                        (Scalar.one(alg.order),) + (Scalar.zero(alg.order),) * (alg.dim - 1)]
            assert vec_eq(acc, expected), (name, a)


def test_trivial_cointegral(presets, all_maps):
    alg = presets["trivial"].algebra
    c = cointegral_L(alg, integral_L(alg, all_maps["trivial"]))
    assert vec_eq(c, alg.unit())


def test_group_z2_cointegral_is_group_sum(presets, all_maps):
    alg = presets["group_Z2_trivialR"].algebra
    assert len(two_sided_integrals(alg)) == 1
    c = cointegral_L(alg, integral_L(alg, all_maps["group_Z2_trivialR"]))
    assert c[0] == c[1] and not c[0].is_zero()


def test_double_cointegral_pairs_with_integral(presets, all_maps):
    for name in ("double_Z2", "twisted_double_Z2"):
        alg = presets[name].algebra
        assert len(two_sided_integrals(alg)) == 1, name
        lam = integral_L(alg, all_maps[name])
        c = cointegral_L(alg, lam)
        paired = sum(
            (lam[i] * c[i] for i in range(alg.dim)),
            Scalar.zero(alg.order),
        )
        assert paired.is_one(), name


def test_cointegral_satisfies_transposed_conditions(presets, all_maps, all_modular):
    # both degeneracy conditions of the transposed coproduct hold exactly
    for name in FACTORISABLE:
        alg = presets[name].algebra
        maps = all_maps[name]
        c = all_modular[name].cointegral
        for a in range(alg.dim):
            eps_beta_a = alg.counit_of(
                alg.product(alg.beta, basis_vector(alg.dim, a, alg.order)))
            expected = [eps_beta_a * x for x in c]
            flat = zero_vector(alg.dim * alg.dim, alg.order)
            for i, ci in enumerate(c):
                flat[i * alg.dim + a] = ci
            assert vec_eq(maps.delta_hat.apply(flat), expected), (name, a, "left")
            flat = zero_vector(alg.dim * alg.dim, alg.order)
            for i, ci in enumerate(c):
                flat[a * alg.dim + i] = ci
            assert vec_eq(maps.delta_hat.apply(flat), expected), (name, a, "right")


def test_trivial_modular_transformations(presets, all_maps, all_modular):
    md = all_modular["trivial"]
    one = ExactMatrix.identity(1, 1)
    assert md.s_hat == one and md.t_hat == one
    assert md.s_z == one and md.t_z == one
    assert md.lam.is_one()


def test_s_hat_dual_path_agreement(presets, all_maps, all_modular):
    for name in FACTORISABLE:
        alg = presets[name].algebra
        md = all_modular[name]
        oracle = s_hat_pairing_form(alg, all_maps[name], md.integral)
        assert oracle == md.s_hat, name


def test_s_hat_commutes_with_conjugation_action(presets, all_modular):
    for name in FACTORISABLE:
        alg = presets[name].algebra
        s_hat = all_modular[name].s_hat
        for b, m in enumerate(alg.conjugation_action):
            assert s_hat * m == m * s_hat, (name, b)


def test_s_hat_restricted_to_invariants(presets, all_maps, all_modular):
    # on invariant functionals the transformation collapses to the
    # pairing-and-integral form
    for name in FACTORISABLE:
        alg = presets[name].algebra
        maps = all_maps[name]
        md = all_modular[name]
        for f in invariant_functionals(alg):
            lhs = [
                sum((f[i] * md.s_hat[i, a] for i in range(alg.dim)),
                    Scalar.zero(alg.order))
                for a in range(alg.dim)
            ]
            rhs = zero_vector(alg.dim, alg.order)
            for (w1, w2), c in maps.omega_hat.nonzero():
                for a in range(alg.dim):
                    flat = zero_vector(alg.dim * alg.dim, alg.order)
                    flat[a * alg.dim + w1] = Scalar.one(alg.order)
                    val = sum(
                        (md.integral[i] * x for i, x in
                         enumerate(maps.delta_hat.apply(flat))),
                        Scalar.zero(alg.order))
                    rhs[a] = rhs[a] + c * val * f[w2]
            assert vec_eq(lhs, rhs), name


def test_s_hat_restricted_to_alpha_center(presets, all_maps, all_modular):
    # evaluation on alpha * z collapses to the short pairing form
    for name in FACTORISABLE:
        alg = presets[name].algebra
        maps = all_maps[name]
        md = all_modular[name]
        for z in md.center_basis:
            az = alg.product(alg.alpha, z)
            lhs = md.s_hat.apply(az)
            rhs = zero_vector(alg.dim, alg.order)
            for (w1, w2), c in maps.omega_hat.nonzero():
                flat = zero_vector(alg.dim * alg.dim, alg.order)
                for k, azk in enumerate(az):
                    if not azk.is_zero():
                        flat[w1 * alg.dim + k] = azk
                val = sum(
                    (md.integral[i] * x for i, x in
                     enumerate(maps.delta_hat.apply(flat))),
                    Scalar.zero(alg.order))
                if not val.is_zero():
                    rhs[w2] = rhs[w2] + c * val
            assert vec_eq(lhs, rhs), name


def test_k_corrected_modular_relations(presets, all_maps, all_modular):
    for name in FACTORISABLE:
        alg = presets[name].algebra
        maps = all_maps[name]
        md = all_modular[name]
        k = md.pairing_value
        ss = md.s_hat * md.s_hat
        assert ss == maps.s_hat_L.inverse().scale(k), name
        kv = alg.two_sided_action(
            ts.leg_map(alg.delta_of(alg.ribbon), 1, alg.antipode))
        assert ss * ss == kv.scale(k * k), name
        st = md.t_hat * md.s_hat
        lhs = st * st * st
        scalar = None
        for i in range(alg.dim):
            for j in range(alg.dim):
                if not ss[i, j].is_zero():
                    scalar = lhs[i, j] / ss[i, j]
                    break
            if scalar is not None:
                break
        assert scalar is not None and not scalar.is_zero(), name
        assert lhs == ss.scale(scalar), name


def test_lambda_rescales_with_integral(presets, all_maps):
    # scaling the integral by t scales the projective constant by t
    alg = presets["double_Z2"].algebra
    maps = all_maps["double_Z2"]
    integral = integral_L(alg, maps)
    t = Scalar.rational(3)
    scaled = [t * x for x in integral]
    _, _, lam1 = sl2z_on_center(alg, *s_t_hat(alg, maps, integral), center(alg))
    _, _, lam2 = sl2z_on_center(alg, *s_t_hat(alg, maps, scaled), center(alg))
    assert lam2 == t * lam1


def test_sl2z_proportionality(presets, all_modular):
    for name in ("double_Z2", "twisted_double_Z2"):
        md = all_modular[name]
        assert md.s_z.rank() == len(md.center_basis), name
        st = md.s_z * md.t_z
        assert st * st * st == (md.s_z * md.s_z).scale(md.lam), name
        assert not md.lam.is_zero()


def test_t_z_eigenvalues_fourth_roots_for_twisted(presets, all_modular):
    t_z = all_modular["twisted_double_Z2"].t_z
    n = len(all_modular["twisted_double_Z2"].center_basis)
    ident = ExactMatrix.identity(n, 4)
    t2 = t_z * t_z
    assert t2 * t2 == ident
    assert t2 != ident  # genuinely order four: eigenvalues include +-i


def test_pairing_value_flip_invariance(all_maps, all_modular):
    for name in FACTORISABLE:
        md = all_modular[name]
        k = pairing_of(md.integral, md.integral, all_maps[name].omega_hat)
        assert k == md.pairing_value


def test_sl2z_on_center_names_failing_basis_vector(presets, all_modular):
    # each basis spans a subspace that S or T leaves; the error names the
    # first basis vector whose image leaves it, S checked before T
    alg = presets["double_Z2"].algebra
    md = all_modular["double_Z2"]

    def vec(*xs):
        return [Scalar.rational(x, order=alg.order) for x in xs]

    cases = [
        ([alg.unit()], "S", 0, "[1, 0, 0, 0]"),
        ([vec(1, 1, 1, -1), vec(1, 0, 0, 0)], "S", 1, "[1, 0, 0, 0]"),
        ([vec(1, 1, 1, 1), vec(1, 0, 0, 0)], "T", 1, "[1, 0, 0, 0]"),
        ([vec(1, 1, 1, 0), vec(1, -1, -1, -1)], "T", 0, "[1, 1, 1, 0]"),
    ]
    for basis, name, k, shown in cases:
        message = f"{name} does not preserve the centre at centre basis vector {k} = {shown}"
        with pytest.raises(ValueError, match=re.escape(message)):
            sl2z_on_center(alg, md.s_hat, md.t_hat, basis)


def test_sl2z_on_center_locates_the_failed_proportionality(presets, all_maps, all_fact,
                                                          monkeypatch):
    # on the commutative double_Z2 every vector is central, so stand-in S
    # and T act on the standard basis, which serves as the centre basis
    from qhopf import modular

    alg = presets["double_Z2"].algebra
    one, zero, two = (Scalar.rational(x, order=alg.order) for x in (1, 0, 2))

    def matrix(*entries):
        rows = [[zero] * alg.dim for _ in range(alg.dim)]
        for i, j, c in entries:
            rows[i][j] = c
        return ExactMatrix(alg.dim, alg.dim, alg.order, rows)

    basis = [basis_vector(alg.dim, i, alg.order) for i in range(alg.dim)]
    # S = 1 and T = diag(1, 2, 1, 1): (S T)^3 = diag(1, 8, 1, 1) and lam = 1
    t_hat = matrix((0, 0, one), (1, 1, two), (2, 2, one), (3, 3, one))
    monkeypatch.setattr(modular, "center", lambda A: basis)
    s_hat = ExactMatrix.identity(alg.dim, alg.order)
    monkeypatch.setattr(modular, "s_t_hat", lambda A, maps, integral: (s_hat, t_hat))
    with pytest.raises(ValueError, match=re.escape("not proportional to S^2 at (1, 1)")):
        modular.modular_data(alg, all_maps["double_Z2"], all_fact["double_Z2"])
    # S = E_01 and T the swap of e_0 and e_1: S^2 = 0 while (S T)^3 = E_00
    s_hat = matrix((0, 1, one))
    t_hat = matrix((0, 1, one), (1, 0, one), (2, 2, one), (3, 3, one))
    with pytest.raises(ValueError, match=re.escape("not proportional to S^2 at (0, 0)")):
        sl2z_on_center(alg, s_hat, t_hat, basis)


def test_modular_data_refuses_a_non_factorisable_input(presets, all_maps, all_fact):
    with pytest.raises(ValueError, match=re.escape(
            "input is not factorisable (copairing rank 1 < 2); the modular action needs it")):
        modular_data(presets["group_Z2_trivialR"].algebra, all_maps["group_Z2_trivialR"],
                     all_fact["group_Z2_trivialR"])


def test_modular_data_refuses_an_integral_space_not_of_dimension_one(presets, all_maps,
                                                                     all_fact):
    # with a zero transposed product every slice of integral_L is zero, so
    # alpha_0 = 1 forces lam = 0 and the space is {0}
    alg = presets["double_Z2"].algebra
    dim, order = alg.dim, alg.order
    maps = replace(all_maps["double_Z2"], mu_hat=ExactMatrix.zeros(dim * dim, dim, order))
    with pytest.raises(ValueError, match="^two-sided integral space has dimension 0, not 1$"):
        modular_data(alg, maps, all_fact["double_Z2"])


# modular_data trusts the factorisability verdict it is handed, so past a
# passed gate the cointegral stage refuses on its own: H4 is not unimodular,
# and the integral `element` kills the group sum, the cointegral of C[Z/2]
@pytest.mark.parametrize("element, message", [
    (None, "no two-sided integral of the algebra exists"),
    ([Scalar.one(), -Scalar.one()], "integral pairs to zero against the cointegral"),
])
def test_modular_data_refuses_a_missing_or_unnormalised_cointegral(
        presets, all_maps, h4, monkeypatch, element, message):
    if element is None:
        alg, maps = h4, coend_maps(h4)
    else:
        alg, maps = presets["group_Z2_trivialR"].algebra, all_maps["group_Z2_trivialR"]
        monkeypatch.setattr(modular, "integral_L", lambda A, maps: element)
    fact = replace(factorisability(alg, maps), rank_D=alg.dim)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        modular_data(alg, maps, fact)


def test_s_t_hat_refuses_an_input_without_ribbon_data(presets, all_maps, all_modular):
    alg = replace(presets["double_Z2"].algebra, ribbon=None, ribbon_inv=None)
    with pytest.raises(ValueError, match="^modular transformations require ribbon data$"):
        s_t_hat(alg, all_maps["double_Z2"], all_modular["double_Z2"].integral)
