import pytest
from hypothesis import given, settings, strategies as st

from qhopf.exactmath import DivisionByZero, Scalar, basis_vector, vec_eq
from qhopf import qha, tensorspace as ts
from qhopf.tensorspace import Tensor
from qhopf.qha import (
    QuasiHopfAlgebra,
    drinfeld_element,
    drinfeld_twist,
    monodromy,
    validate,
)
from qhopf.presets import PRESET_NAMES, mutate, preset
from qhopf.repcat import regular_module


def test_trivial_algebra_all_pass(presets):
    rep = validate(presets["trivial"].algebra)
    assert rep.ok
    names = [r.name for r in rep.results]
    assert "three_cocycle" in names and "hexagon_coproduct_left" in names


def test_double_all_pass(presets):
    assert validate(presets["double_Z2"].algebra).ok


def test_mutation_fails_with_witness(presets):
    alg = presets["double_Z2"].algebra
    bad = mutate(alg, ("mult", (1, 1, 0)), Scalar.rational(1))
    rep = validate(bad)
    assert not rep.ok
    assert any(r.witness is not None for r in rep.failures())


def test_witness_is_the_failing_index(presets):
    # a slot identity is located at its first differing multi-index; the
    # two sides are recomputed here from the structure constants alone
    alg = mutate(presets["twisted_double_Z2"].algebra, ("mult", (1, 2, 3)),
                 Scalar.rational(1, order=4))
    m, S, r, zero = alg.mult, alg.antipode, range(alg.dim), Scalar.zero(alg.order)
    rep = validate(alg)
    i, j, k, n = rep["associativity"].witness
    left = sum((m[i][j][a] * m[a][k][n] for a in r), zero)        # (e_i e_j) e_k
    right = sum((m[j][k][a] * m[i][a][n] for a in r), zero)       # e_i (e_j e_k)
    assert left != right
    i, j, n = rep["antipode_anti_homomorphism"].witness
    lhs = sum((m[i][j][a] * S[n, a] for a in r), zero)            # S(e_i e_j)
    rhs = sum((S[x, j] * S[y, i] * m[x][y][n] for x in r for y in r), zero)
    assert lhs != rhs


def test_drinfeld_errors_are_located(presets):
    one = Scalar.rational(1)
    bad_inv = mutate(presets["double_Z2"].algebra, ("r_inv", (1, 1)), one)
    with pytest.raises(ValueError, match=r"^drinfeld element is not invertible "
                                         r"against S\^-1\(u~\) at \(\d+,\)$"):
        drinfeld_element(bad_inv)
    bad_s = mutate(presets["group_Z2_trivialR"].algebra, ("antipode", (1, 1)), one)
    with pytest.raises(ValueError, match=r"^S\^2 is not conjugation by the drinfeld "
                                         r"element at \(1, 1\)$"):
        drinfeld_element(bad_s)


def test_twist_trivial_for_hopf_presets(presets):
    for name in ("trivial", "group_Z2_trivialR", "double_Z2"):
        alg = presets[name].algebra
        f, f_inv, gamma = drinfeld_twist(alg)
        unit2 = Tensor.unit(alg.dim, 2, alg.order)
        assert f == unit2, name
        assert f_inv == unit2
        assert gamma == unit2


def test_twist_conjugation_identity(presets):
    # f Delta(S(a)) f^-1 = (S x S)(flip(Delta(a))) for all basis elements
    for name in ("double_Z2", "twisted_double_Z2"):
        alg = presets[name].algebra
        f, f_inv, _ = drinfeld_twist(alg)
        mt = alg.mult_table
        for i in range(alg.dim):
            sa = alg.antipode_of(basis_vector(alg.dim, i, alg.order))
            lhs = ts.mul(ts.mul(f, alg.delta_of(sa), mt), f_inv, mt)
            rhs = ts.permute(alg.coproduct[i], (2, 1))
            rhs = ts.leg_map(ts.leg_map(rhs, 1, alg.antipode), 2, alg.antipode)
            assert lhs == rhs, (name, i)


def test_twist_nontrivial_for_twisted_double(presets):
    alg = presets["twisted_double_Z2"].algebra
    f, _, _ = drinfeld_twist(alg)
    assert f != Tensor.unit(alg.dim, 2, alg.order)


def test_twist_falls_back_to_the_solve(monkeypatch):
    # a closed form that fails its certificate hands over to the solve,
    # which still gives f^-1 and, for a singular f, the same error
    closed_form = qha._twist_inverse
    alg = preset("twisted_double_Z2").algebra
    singular = mutate(alg, ("alpha", (1,)), Scalar.rational(1, order=alg.order))
    solve = QuasiHopfAlgebra.invert_element
    solved = []

    def counted(self, t):
        solved.append(t.legs)
        return solve(self, t)

    monkeypatch.setattr(qha, "_twist_inverse", lambda A: Tensor.zero(A.dim, 2, A.order))
    monkeypatch.setattr(QuasiHopfAlgebra, "invert_element", counted)
    f, f_inv, _ = drinfeld_twist(alg)
    assert solved == [2]
    assert f_inv == solve(alg, f) == closed_form(alg)
    with pytest.raises(DivisionByZero, match="^drinfeld twist is not invertible$"):
        drinfeld_twist(singular)
    assert solved == [2, 2]


def test_drinfeld_element_trivial(presets):
    alg = presets["trivial"].algebra
    u, u_tilde, u_inv = drinfeld_element(alg)
    assert vec_eq(u, alg.unit())
    assert vec_eq(u_tilde, alg.unit())
    assert vec_eq(u_inv, alg.unit())


def test_drinfeld_element_triangular_preset(presets):
    # R = 1 x 1 collapses the defining sum to the unit
    alg = presets["group_Z2_trivialR"].algebra
    u, _, _ = drinfeld_element(alg)
    assert vec_eq(u, alg.unit())


def test_drinfeld_element_conjugates_antipode_square(presets):
    for name in ("double_Z2", "twisted_double_Z2"):
        alg = presets[name].algebra
        u, u_tilde, u_inv = drinfeld_element(alg)
        assert vec_eq(alg.product(u, u_inv), alg.unit())
        s2 = alg.antipode * alg.antipode
        assert s2 == alg.lmult_of(u) * alg.rmult_of(u_inv)
        # the inverse-braiding variant is the antipode of the inverse
        assert vec_eq(u_tilde, alg.antipode_of(u_inv))


def test_hopf_preset_u_short_form(presets):
    # with trivial coassociator and alpha = beta = 1 the element collapses
    # to the antipode-contraction of the flipped R-matrix
    for name in ("trivial", "group_Z2_trivialR", "double_Z2"):
        alg = presets[name].algebra
        u, _, _ = drinfeld_element(alg)
        short = ts.merge_legs(
            ts.leg_map(ts.permute(alg.r_matrix, (2, 1)), 1, alg.antipode),
            ((1, 2),),
            alg.mult_table,
        ).to_vector()
        assert vec_eq(u, short), name


def test_monodromy_trivial_r(presets):
    alg = presets["group_Z2_trivialR"].algebra
    assert monodromy(alg) == Tensor.unit(alg.dim, 2, alg.order)


def test_monodromy_full_rank_for_double(presets):
    alg = presets["double_Z2"].algebra
    assert ts.as_matrix(monodromy(alg), 1).rank() == 4


def test_invert_element_roundtrip(presets):
    alg = presets["twisted_double_Z2"].algebra
    inv = alg.invert_element(alg.r_matrix)
    assert inv == alg.r_inv
    assert alg.invert_element(Tensor.zero(alg.dim, 2, alg.order)) is None


def test_validate_reports_singular_antipode():
    alg = preset("group_Z2_trivialR").algebra
    bad = mutate(alg, ("antipode", (1, 1)), Scalar.rational(-1))
    rep = validate(bad)
    assert not rep["antipode_invertible"].ok


def test_report_as_dict_shape(presets):
    d = validate(presets["trivial"].algebra).as_dict()
    assert d["ok"] is True
    assert all(set(c) == {"name", "ok", "witness"} for c in d["checks"])


def element_vectors(alg):
    """Elements of alg with small integer coefficients, zeta-multiples
    included when the field is not Q."""
    coeff = st.integers(-2, 2)
    entry = st.tuples(coeff, coeff).map(
        lambda ab: Scalar(alg.order, [ab[0], ab[1] if alg.order > 1 else 0]))
    return st.lists(entry, min_size=alg.dim, max_size=alg.dim)


@pytest.mark.parametrize("name", PRESET_NAMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_product_routes_agree(presets, name, data):
    # product expands through mult_table; the matrix routes go through
    # kron_combination of left_mult, right_mult and the regular action
    alg = presets[name].algebra
    u, v = data.draw(element_vectors(alg)), data.draw(element_vectors(alg))
    uv = alg.product(u, v)
    assert vec_eq(uv, alg.lmult_of(u).apply(v))
    assert vec_eq(uv, alg.rmult_of(v).apply(u))
    assert regular_module(alg).act(v) == alg.lmult_of(v)
