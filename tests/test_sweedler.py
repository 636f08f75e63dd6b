"""Sweedler's four-dimensional Hopf algebra H4 over Q: the first input
that is neither commutative nor semisimple.

Basis (e0, e1, e2, e3) = (1, g, x, gx) with g^2 = 1, x^2 = 0, xg = -gx;
g is group-like, Delta(x) = x (x) 1 + g (x) x, S(x) = -gx.  R is the
triangular R-matrix
    1/2 (1(x)1 + 1(x)g + g(x)1 - g(x)g)
      + 1/2 (x(x)x - x(x)gx + gx(x)x + gx(x)gx),
and the other sign patterns on the x-terms fail a hexagon.  Apart from
the mutation harness, whose single-entry mutants depend on this basis,
only basis-free facts are asserted.
"""

import hashlib
import json
import pathlib
from collections import Counter
from itertools import product

import pytest
from click.testing import CliRunner

from qhopf.cli import main, parse_text, serialize
from qhopf.coend import coend_maps, factorisability, hopf_reduced_maps
from qhopf.exactmath import Scalar, common_eigenvectors
from qhopf.fusion import radical_dimension
from qhopf.modular import center, cointegral_L, integral_L, s_hat_pairing_form, s_t_hat
from qhopf.presets import mutate
from qhopf.qha import validate
from qhopf.repcat import verify_braided_hopf

H4 = """\
# Sweedler's H4 over Q in the basis (1, g, x, gx)
dim 4
field 1

mult:
0 0 0 = 1
0 1 1 = 1
0 2 2 = 1
0 3 3 = 1
1 0 1 = 1
1 1 0 = 1
1 2 3 = 1
1 3 2 = 1
2 0 2 = 1
2 1 3 = -1
3 0 3 = 1
3 1 2 = -1

counit:
0 = 1
1 = 1

coproduct:
0 0 0 = 1
1 1 1 = 1
2 2 0 = 1
2 1 2 = 1
3 3 1 = 1
3 0 3 = 1

antipode:
0 0 = 1
1 1 = 1
2 3 = -1
3 2 = 1

phi:
0 0 0 = 1

alpha:
0 = 1

beta:
0 = 1

R:
0 0 = 1/2
0 1 = 1/2
1 0 = 1/2
1 1 = -1/2
2 2 = 1/2
2 3 = -1/2
3 2 = 1/2
3 3 = 1/2

ribbon:
0 = 1
"""


def test_h4_passes_check(h4):
    rep = validate(h4)
    assert rep.ok, rep.failures()


def test_h4_sign_slip_fails_hexagon():
    alg, _ = parse_text(H4.replace("2 3 = -1/2\n", "2 3 = 1/2\n"), source="H4~")
    failing = {r.name for r in validate(alg).failures()}
    assert "hexagon_coproduct_left" in failing


def test_h4_report_skips_modular_and_fusion(tmp_path):
    src = tmp_path / "h4.alg"
    src.write_text(H4, encoding="utf-8")
    res = CliRunner().invoke(main, ["report", str(src)])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["modular"] is None and doc["fusion"] is None
    assert doc["modular_skipped"] == "requires a factorisable ribbon algebra"
    assert doc["fusion_skipped"] == "no simple modules declared"


def test_h4_report_bytes_are_pinned(tmp_path, monkeypatch):
    # the only pinned report with multi-term structure constants; run from
    # the file's directory so that the "algebra" field reads h4.alg
    monkeypatch.chdir(tmp_path)
    pathlib.Path("h4.alg").write_text(H4, encoding="utf-8")
    res = CliRunner().invoke(main, ["report", "h4.alg", "--out", "report.json"])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(pathlib.Path("report.json").read_bytes()).hexdigest() == (
        "8f010f50584ae6fca64b0305d81471c1d2d0f208b5050dd1f54ba35ff1f304a7")


def test_h4_braided_hopf(h4):
    rep = verify_braided_hopf(h4)
    assert rep.ok, rep.failures()
    assert len(rep.results) == 19


def test_h4_oracles(h4):
    # the first noncommutative, noncocommutative input of the Hopf short
    # forms and the S-route oracle, where a swapped coproduct leg or a
    # dropped antipode no longer cancels
    maps, short = coend_maps(h4), hopf_reduced_maps(h4)
    for name in ("mu_hat", "delta_hat", "eta_hat", "eps_hat", "s_hat_L", "omega_hat"):
        assert getattr(maps, name) == getattr(short, name), name
    integral = integral_L(h4, maps)      # refuses a space not of dimension 1
    s_hat, _ = s_t_hat(h4, maps, integral)
    assert s_hat.rank() == 1      # degenerate, as H4 is not factorisable
    assert s_hat_pairing_form(h4, maps, integral) == s_hat


def test_h4_not_factorisable(h4):
    fact = factorisability(h4, coend_maps(h4))
    assert (fact.rank_D, fact.rank_BT) == (1, 1)
    assert (fact.invariants_dim, fact.coinvariants_dim) == (2, 1)
    assert not fact.is_factorisable
    assert fact.tests_agree


def test_h4_not_semisimple_not_unimodular(h4):
    assert radical_dimension(h4) == 2
    assert len(center(h4)) == 1
    # the left and right integrals of H4 differ, so no two-sided one exists
    assert common_eigenvectors(h4.left_mult + h4.right_mult, h4.counit + h4.counit) == []
    integral = integral_L(h4, coend_maps(h4))
    with pytest.raises(ValueError, match="^no two-sided integral of the algebra exists$"):
        cointegral_L(h4, integral)


# every single-entry mutation (delta 1) of these sites, with its index count
H4_MUTATION_SITES = {"mult": 3, "coproduct": 3, "antipode": 2, "phi": 3, "alpha": 1,
                     "beta": 1, "counit": 1, "r_matrix": 2, "ribbon": 1}

# how many of the 240 mutants fail each check
H4_MUTANT_FAILURES = {
    "unit_element": 28, "associativity": 64, "counit_algebra_map": 36,
    "coproduct_algebra_map": 128, "counitality": 52, "quasi_coassociativity": 137,
    "coassociator_counital": 33, "three_cocycle": 84, "coassociator_invertible": 68,
    "antipode_anti_homomorphism": 74, "antipode_zigzag": 118,
    "coassociator_antipode_left": 48, "coassociator_antipode_right": 16,
    "r_matrix_intertwines_coproduct": 132, "hexagon_coproduct_left": 208,
    "hexagon_coproduct_right": 208, "r_matrix_counit": 16, "r_matrix_invertible": 80,
    "antipode_invertible": 1, "ribbon_invertible": 8, "ribbon_central": 27,
    "ribbon_monodromy": 98, "ribbon_antipode_fixed": 6, "ribbon_square": 107,
    "ribbon_counit": 3,
}


def test_h4_mutation_harness(h4):
    # on a noncommutative input every check can fail, ribbon_central and
    # r_matrix_intertwines_coproduct included; each failure is located
    failures = Counter()
    one = Scalar.rational(1)
    for section, arity in H4_MUTATION_SITES.items():
        for idx in product(range(h4.dim), repeat=arity):
            rep = validate(mutate(h4, (section, idx), one))
            assert not rep.ok, (section, idx)
            for r in rep.failures():
                assert r.witness, (section, idx, r.name)
            failures.update(r.name for r in rep.failures())
    assert failures == H4_MUTANT_FAILURES


def test_failing_identity_is_named(h4, tmp_path):
    # H4 is noncommutative, so a beta mutant breaks x' beta S(x'') = eps(x) beta,
    # the second identity of antipode_zigzag, while the first still holds; on
    # a commutative input such as twisted_double_Z2 no beta mutant fails it
    bad = mutate(h4, ("beta", (1,)), Scalar.rational(1))
    rep = validate(bad)
    zigzag, single = rep["antipode_zigzag"], rep["coassociator_antipode_left"]
    assert zigzag.identity == 1 and single.identity is None
    assert str(zigzag) == f"antipode_zigzag[1]@{zigzag.witness}"
    assert str(single) == f"coassociator_antipode_left@{single.witness}"
    assert f"antipode_zigzag[1]@{zigzag.witness}" in repr(rep)
    path = tmp_path / "beta.alg"
    path.write_text(serialize(bad), encoding="utf-8")
    res = CliRunner().invoke(main, ["derived", str(path)])
    assert res.exit_code == 1
    assert f"antipode_zigzag[1]@{zigzag.witness}, " in res.stderr
    assert f"coassociator_antipode_left@{single.witness}, " in res.stderr
    # the JSON of check does not carry the position
    res = CliRunner().invoke(main, ["check", str(path)])
    assert res.exit_code == 1
    assert json.loads(res.stdout)["checks"] == rep.as_dict()["checks"]
