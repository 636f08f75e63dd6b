import re
from dataclasses import replace

import pytest

from qhopf.exactmath import (
    ExactMatrix,
    Scalar,
    matrix_from_columns,
    vec_eq,
    zero_vector,
)
from qhopf.cli import parse_text
from qhopf.coend import coend_maps, factorisability
from qhopf.modular import modular_data
from qhopf.repcat import AModule, dual_module, regular_module, trivial_module
from qhopf.fusion import (
    FusionError,
    SimpleSet,
    chi_central,
    chi_central_hopf,
    grothendieck_class,
    phi_central,
    phi_central_hopf,
    radical_dimension,
    verlinde_fusion,
)

DOUBLES = ("double_Z2", "twisted_double_Z2")


def test_presets_are_semisimple(presets):
    for p in presets.values():
        assert radical_dimension(p.algebra) == 0, p.name


def test_simple_sets_validate(presets):
    for p in presets.values():
        assert p.simples.validate(p.algebra) == [], p.name


def test_incomplete_simple_set_detected(presets):
    p = presets["double_Z2"]
    partial = SimpleSet.from_modules(
        list(zip(p.simples.labels[:3], p.simples.simples[:3]))
    )
    problems = partial.validate(p.algebra)
    assert any("squared dimensions" in msg for msg in problems)


def test_chi_of_trivial_module_hopf(presets):
    # with R = 1 x 1 every tensor collapses and the character of the
    # trivial module is the unit
    alg = presets["group_Z2_trivialR"].algebra
    chi = chi_central(alg, trivial_module(alg))
    assert vec_eq(chi, alg.unit())


def test_chi_matches_hopf_short_form(presets):
    for name in ("trivial", "group_Z2_trivialR", "double_Z2"):
        p = presets[name]
        for V in p.simples.simples + [regular_module(p.algebra)]:
            assert vec_eq(
                chi_central(p.algebra, V), chi_central_hopf(p.algebra, V)
            ), name


def test_phi_matches_hopf_short_form(presets, all_modular):
    p = presets["double_Z2"]
    c = all_modular["double_Z2"].cointegral
    for V in p.simples.simples:
        assert vec_eq(
            phi_central(p.algebra, V, c), phi_central_hopf(p.algebra, V, c)
        )


def test_phi_of_trivial_algebra(presets, all_modular):
    alg = presets["trivial"].algebra
    c = all_modular["trivial"].cointegral
    phi = phi_central(alg, trivial_module(alg), c)
    assert vec_eq(phi, alg.unit())


def test_chi_values_linearly_independent(presets):
    for name in DOUBLES:
        p = presets[name]
        chis = [chi_central(p.algebra, V) for V in p.simples.simples]
        assert matrix_from_columns(chis, p.algebra.order).rank() == 4, name


def test_fusion_rejects_nonfactorisable(presets):
    # with a trivial monodromy the characters collapse onto the unit and
    # the runtime independence check trips
    p = presets["group_Z2_trivialR"]
    with pytest.raises(FusionError):
        verlinde_fusion(p.algebra, p.simples)


def test_fusion_rejects_non_central_internal_characters(presets, monkeypatch):
    # every input is commutative, so only a stand-in commutator stack can
    # make the internal characters fail the centrality check
    p = presets["double_Z2"]
    A = p.algebra
    monkeypatch.setattr(A, "commutators", ExactMatrix.identity(A.dim, A.order))
    with pytest.raises(ValueError, match=re.escape(
            f"internal character of {p.simples.labels[0]} is not central (it does not "
            "commute with e_0); input data is inconsistent")):
        verlinde_fusion(A, p.simples)


def test_fusion_names_the_pair_whose_product_leaves_the_span(presets, monkeypatch):
    # s01 and s10 of double_Z2 are a set that validate() would refuse: the
    # square of s01 is s00, outside their span
    p = presets["double_Z2"]
    part = SimpleSet(p.simples.labels[1:3], p.simples.simples[1:3], p.simples.characters[1:3])
    monkeypatch.setattr(SimpleSet, "validate", lambda self, A: [])
    with pytest.raises(FusionError, match=re.escape(
            "product of internal characters leaves their span at pair (s01, s01)")):
        verlinde_fusion(p.algebra, part)


def _stand_in_commutators(A, chis, s, i):
    """A stacked commutator map whose only nonzero row is row 0 of block i,
    the functional dual to chis[s] against the other characters: of the
    characters it fails only chis[s], and only against e_i."""
    dual = matrix_from_columns(chis, A.order).inverse().dense[s]
    zero = [Scalar.zero(A.order)] * A.dim
    return ExactMatrix(A.dim * A.dim, A.dim, A.order,
                       [dual if r == i * A.dim else zero for r in range(A.dim * A.dim)])


def test_non_central_character_names_the_simple_and_the_basis_element(presets, monkeypatch):
    p = presets["double_Z2"]
    A = p.algebra
    chis = [chi_central(A, V) for V in p.simples.simples]
    monkeypatch.setattr(A, "commutators", _stand_in_commutators(A, chis, 1, 3))
    with pytest.raises(ValueError, match=re.escape(
            f"internal character of {p.simples.labels[1]} is not central (it does not "
            "commute with e_3); input data is inconsistent")):
        verlinde_fusion(A, p.simples)
    # the single-character route checks through the same stack
    assert vec_eq(chi_central(A, p.simples.simples[0]), chis[0])
    with pytest.raises(ValueError, match=re.escape(
            f"internal character of {p.simples.labels[1]} is not central (it does not "
            "commute with e_3); input data is inconsistent")):
        chi_central(A, p.simples.simples[1])


def test_grothendieck_class_of_simples(presets):
    for name in DOUBLES:
        p = presets[name]
        for i, V in enumerate(p.simples.simples):
            cls = grothendieck_class(V, p.simples)
            assert cls == [1 if j == i else 0 for j in range(4)], name


def test_grothendieck_class_of_direct_sum(presets):
    p = presets["double_Z2"]
    alg = p.algebra
    s0, s1 = p.simples.simples[0], p.simples.simples[1]
    blocks = []
    for a in range(alg.dim):
        m = ExactMatrix.zeros(2, 2, alg.order)
        m[0, 0] = s0.action[a][0, 0]
        m[1, 1] = s1.action[a][0, 0]
        blocks.append(m)
    direct_sum = AModule(alg, blocks, label="s0+s1")
    assert grothendieck_class(direct_sum, p.simples) == [1, 1, 0, 0]


def test_grothendieck_class_of_regular_module(presets):
    for name in DOUBLES:
        p = presets[name]
        cls = grothendieck_class(regular_module(p.algebra), p.simples)
        assert cls == [1, 1, 1, 1], name


def test_grothendieck_incomplete_set_raises(presets):
    p = presets["double_Z2"]
    partial = SimpleSet.from_modules(
        list(zip(p.simples.labels[:2], p.simples.simples[:2]))
    )
    with pytest.raises(FusionError):
        grothendieck_class(regular_module(p.algebra), partial)


def _is_klein_four_table(table):
    n = len(table.labels)
    # unit row and column
    for v in range(n):
        for w in range(n):
            if table.table[0][v][w] != (1 if v == w else 0):
                return False
    # every row is a permutation and every object is self-inverse
    for u in range(n):
        for v in range(n):
            row = table.table[u][v]
            if sum(row) != 1:
                return False
        if table.table[u][u][0] != 1:
            return False
    return True


def test_fusion_is_klein_four_group(presets):
    for name in DOUBLES:
        table = verlinde_fusion(presets[name].algebra, presets[name].simples)
        assert _is_klein_four_table(table), name


def test_fusion_unit_row(presets):
    for name in DOUBLES:
        table = verlinde_fusion(presets[name].algebra, presets[name].simples)
        for v in range(4):
            assert table.table[0][v] == [1 if w == v else 0 for w in range(4)]


def test_fusion_commutative(presets):
    for name in DOUBLES:
        table = verlinde_fusion(presets[name].algebra, presets[name].simples)
        for u in range(4):
            for v in range(4):
                assert table.table[u][v] == table.table[v][u], name


def test_chi_is_s_transform_of_phi(presets, all_modular):
    for name in DOUBLES:
        p = presets[name]
        alg = p.algebra
        md = all_modular[name]
        cmat = matrix_from_columns(md.center_basis, alg.order)
        for lbl, V in zip(p.simples.labels, p.simples.simples):
            chi = chi_central(alg, V)
            phi = phi_central(alg, V, md.cointegral)
            coords = cmat.solve(phi)
            assert coords is not None
            sz = md.s_z.apply(coords)
            recon = zero_vector(alg.dim, alg.order)
            for j, cj in enumerate(sz):
                for i in range(alg.dim):
                    recon[i] = recon[i] + md.center_basis[j][i] * cj
            assert vec_eq(chi, recon), (name, lbl)


def test_phi_of_dual_is_double_s_transform(presets, all_modular):
    # charge conjugation: the class function of the dual module is the
    # square of the S-action on the class function.  The single S-action
    # identity is scale-invariant, but the squared one picks up one
    # pairing-value factor from the unnormalised integral.
    for name in DOUBLES:
        p = presets[name]
        alg = p.algebra
        md = all_modular[name]
        k = md.pairing_value
        cmat = matrix_from_columns(md.center_basis, alg.order)
        for lbl, V in zip(p.simples.labels, p.simples.simples):
            phi = phi_central(alg, V, md.cointegral)
            phi_dual = phi_central(alg, dual_module(V), md.cointegral)
            coords = cmat.solve(phi)
            twice = md.s_z.apply(md.s_z.apply(coords))
            recon = zero_vector(alg.dim, alg.order)
            for j, cj in enumerate(twice):
                for i in range(alg.dim):
                    recon[i] = recon[i] + md.center_basis[j][i] * cj
            assert vec_eq([k * x for x in phi_dual], recon), (name, lbl)


def _rebased():
    from test_rebased import rebased_text

    return parse_text(rebased_text())


@pytest.mark.parametrize("k", [None, 1, 2], ids=["rebased", "d_z3_k1", "d_z3_k2"])
def test_chi_is_s_transform_of_phi_for_all_simples_at_once(double_z3, k):
    # chi_V = S_Z(phi_V) for every simple V as one matrix identity: with Z
    # the centre basis as columns, chis = Z S_Z Z^-1 phis; k = None is the
    # rebased twisted_double_Z2, else the generated D(Z/3)
    from qhopf.fusion import _central_elements, _class_function_core

    A, simples = _rebased() if k is None else (double_z3[k].algebra, double_z3[k].simples)
    maps = coend_maps(A)
    md = modular_data(A, maps, factorisability(A, maps))
    chars, labels = simples.characters, simples.labels
    chis = _central_elements(A, A.monodromy_core, chars, labels, "internal character")
    phis = _central_elements(A, _class_function_core(A, md.cointegral), chars, labels,
                             "class-function central element")
    z = matrix_from_columns(md.center_basis, A.order)
    coords = z.solve_each(phis.transpose().dense)
    assert None not in coords
    assert chis == z * md.s_z * matrix_from_columns(coords, A.order)


def test_multiplicities_are_read_from_numerators():
    from qhopf.exactmath import Scalar
    from qhopf.fusion import _as_nonneg_int

    assert [_as_nonneg_int(Scalar.rational(k, order=4)) for k in (0, 1, 3)] == [0, 1, 3]
    for value, message in [(Scalar.rational(-1), "multiplicity -1 is not"),
                           (Scalar.rational(1, 2, order=3), "multiplicity 1/2 is not"),
                           (Scalar.rational(-3, 2), "multiplicity -3/2 is not"),
                           (Scalar.zeta(4), "non-rational multiplicity z")]:
        with pytest.raises(FusionError, match=message):
            _as_nonneg_int(value)


def _oracle_with(monkeypatch, edits):
    """Patch the oracle's tensor-product characters: edits maps a pair
    index (U major) to a function of the simple characters giving the
    character that pair reports instead."""
    from qhopf import fusion

    real = fusion._tensor_characters

    def patched(A, chars):
        out = real(A, chars)
        for p, edit in edits.items():
            out[p] = edit(chars)
        return out

    monkeypatch.setattr(fusion, "_tensor_characters", patched)


def _half_sum(a, b):
    from qhopf.exactmath import Scalar

    half = Scalar.rational(1, 2)
    return lambda chars: [(x + y) * half for x, y in zip(chars[a], chars[b])]


def test_oracle_names_the_pair_it_disagrees_at(presets, monkeypatch):
    # (x1, x2) is x3 in the Klein four ring; the oracle is told it is x0
    p = presets["twisted_double_Z2"]
    _oracle_with(monkeypatch, {1 * 4 + 2: lambda chars: list(chars[0])})
    with pytest.raises(FusionError) as err:
        verlinde_fusion(p.algebra, p.simples)
    assert str(err.value) == ("Verlinde expansion [0, 0, 0, 1] disagrees with the "
                              "character oracle [1, 0, 0, 0] at pair (x1, x2)")


def test_oracle_rejects_a_fractional_class(presets, monkeypatch):
    p = presets["twisted_double_Z2"]
    _oracle_with(monkeypatch, {2 * 4 + 3: _half_sum(0, 1)})
    with pytest.raises(FusionError) as err:
        verlinde_fusion(p.algebra, p.simples)
    assert str(err.value) == "multiplicity 1/2 is not a non-negative integer"


def test_oracle_reports_the_earlier_of_two_bad_pairs(presets, monkeypatch):
    # the later pair would raise the fractional-class error instead
    p = presets["twisted_double_Z2"]
    _oracle_with(monkeypatch, {3 * 4 + 1: _half_sum(2, 3),
                               0 * 4 + 3: lambda chars: list(chars[1])})
    with pytest.raises(FusionError) as err:
        verlinde_fusion(p.algebra, p.simples)
    assert str(err.value) == ("Verlinde expansion [0, 0, 0, 1] disagrees with the "
                              "character oracle [0, 1, 0, 0] at pair (x0, x3)")


def test_class_character_weights_each_simple(presets):
    # every preset fusion ring has multiplicities 0 and 1 only, so a
    # multiplicity 2 is checked here
    from qhopf.fusion import _class_character

    p = presets["twisted_double_Z2"]
    chars = p.simples.characters
    got = _class_character([2, 0, 0, 1], chars, p.algebra.order)
    assert vec_eq(got, [x + x + y for x, y in zip(chars[0], chars[3])])
    assert vec_eq(_class_character([0, 0, 0, 0], chars, p.algebra.order),
                  zero_vector(p.algebra.dim, p.algebra.order))


@pytest.mark.parametrize("chi", [chi_central, chi_central_hopf])
def test_internal_characters_refuse_an_input_without_ribbon(presets, chi):
    alg = replace(presets["double_Z2"].algebra, ribbon=None, ribbon_inv=None)
    with pytest.raises(ValueError, match="internal characters require ribbon data"):
        chi(alg, trivial_module(alg))
