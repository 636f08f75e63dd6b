import pytest

from qhopf.exactmath import Scalar
from qhopf.tensorspace import Tensor
from qhopf.qha import validate
from qhopf.coend import factorisability
from qhopf.fusion import radical_dimension
from qhopf.presets import PRESET_NAMES, mutate, preset, preset_path
from qhopf.fileformat import algebras_equal, parse_text, serialize


def test_preset_names_resolve():
    with pytest.raises(KeyError):
        preset("nonsense")
    for name in PRESET_NAMES:
        assert preset(name).name == name


def test_trivial_dimensions(presets):
    assert presets["trivial"].algebra.dim == 1
    assert presets["group_Z2_trivialR"].algebra.dim == 2
    assert presets["double_Z2"].algebra.dim == 4
    assert presets["twisted_double_Z2"].algebra.dim == 4


def test_all_presets_validate(presets):
    for p in presets.values():
        rep = validate(p.algebra)
        assert rep.ok, (p.name, rep.failures())


def test_declared_flags_hold(presets, all_maps):
    # each flag on a file's flags line is checked by its own derivation
    for name, p in presets.items():
        alg = p.algebra
        one = alg.unit()
        fact = factorisability(alg, all_maps[name])
        assert p.factorisable == fact.is_factorisable, name
        assert p.semisimple == (radical_dimension(alg) == 0), name
        trivial_phi = Tensor.unit(alg.dim, 3, alg.order)
        assert p.hopf == (alg.phi == alg.phi_inv == trivial_phi
                          and alg.alpha == one and alg.beta == one), name


def test_files_are_canonical(presets):
    # the shipped text is exactly what the serialiser writes for the
    # parsed algebra, its simples, its declared flags and its header
    for name, p in presets.items():
        text = preset_path(name).read_text(encoding="utf-8")
        header = []
        for line in text.splitlines():
            if not line.startswith("#"):
                break
            header.append(line)
        comment = "\n".join(header).removeprefix("# ")
        flags = [f for f in ("factorisable", "semisimple", "hopf") if getattr(p, f)]
        assert serialize(p.algebra, p.simples, flags=flags, comment=comment) == text, name


def test_double_factorisable_flag(presets, all_maps):
    p = presets["double_Z2"]
    fact = factorisability(p.algebra, all_maps["double_Z2"])
    assert fact.is_factorisable and p.factorisable


def test_twisted_double_has_nontrivial_coassociator(presets):
    p = presets["twisted_double_Z2"]
    assert p.algebra.phi != Tensor.unit(4, 3, 4)
    assert not p.hopf


def test_hopf_presets_have_trivial_coassociator(presets):
    for name in ("trivial", "group_Z2_trivialR", "double_Z2"):
        p = presets[name]
        alg = p.algebra
        assert alg.phi == Tensor.unit(alg.dim, 3, alg.order)
        assert p.hopf


def test_mutate_r_breaks_hexagon(presets):
    alg = presets["double_Z2"].algebra
    bad = mutate(alg, ("r_matrix", (0, 0)), Scalar.rational(1))
    rep = validate(bad)
    failing = {r.name for r in rep.failures()}
    assert any("hexagon" in n for n in failing)
    assert all(r.witness is not None for r in rep.failures())


def test_mutate_phi_breaks_cocycle(presets):
    alg = presets["twisted_double_Z2"].algebra
    bad = mutate(alg, ("phi", (2, 2, 2)), Scalar.rational(1, order=4))
    rep = validate(bad)
    assert "three_cocycle" in {r.name for r in rep.failures()}


def test_zero_delta_mutation_passes(presets):
    alg = presets["twisted_double_Z2"].algebra
    same = mutate(alg, ("phi", (2, 2, 2)), Scalar.zero(4))
    assert validate(same).ok


def test_mutate_does_not_touch_original(presets):
    alg = presets["double_Z2"].algebra
    mutate(alg, ("mult", (1, 1, 0)), Scalar.rational(7))
    assert validate(alg).ok


def test_mutate_unknown_site(presets):
    for section in ("nonsense", "name", "dim"):
        with pytest.raises(KeyError):
            mutate(presets["trivial"].algebra, (section, (0,)), Scalar.rational(1))


# every structure constant the file format holds, with its number of indices
SERIALISED_SITES = [("mult", 3), ("counit", 1), ("coproduct", 3), ("antipode", 2),
                    ("phi", 3), ("phi_inv", 3), ("alpha", 1), ("beta", 1),
                    ("r_matrix", 2), ("r_inv", 2), ("ribbon", 1)]


@pytest.mark.parametrize("section, arity", SERIALISED_SITES)
def test_mutate_reaches_every_serialised_site(presets, section, arity):
    alg = presets["twisted_double_Z2"].algebra
    site = (section, (1, 2, 3)[:arity])
    d = Scalar.rational(1, 2, order=4) * Scalar.zeta(4)
    once = mutate(alg, site, d)
    assert not algebras_equal(once, alg)
    assert algebras_equal(mutate(once, site, -d), alg)
    if section == "antipode":
        # matrix indices: entry (1, 2) is the coefficient of e_1 in S(e_2)
        assert once.antipode[1, 2] == alg.antipode[1, 2] + d


# H4 in the basis (1, g, x, gx) has x g = -gx and the term x (x) 1 of Delta(x)
@pytest.mark.parametrize("section, idx, delta", [("mult", (2, 1, 3), 1),
                                                 ("coproduct", (2, 2, 0), -1)])
def test_a_cancelled_entry_leaves_the_stored_tensor(h4, section, idx, delta):
    m = mutate(h4, (section, idx), Scalar.rational(delta))
    assert idx in getattr(h4, section).entries
    assert idx not in getattr(m, section).entries
    text = serialize(m)
    block = next(b for b in text.split("\n\n") if b.startswith(section + ":\n"))
    assert not any(line.startswith(f"{' '.join(map(str, idx))} = ")
                   for line in block.splitlines()), block
    assert algebras_equal(parse_text(text)[0], m)


def test_every_preset_carries_simples(presets):
    for p in presets.values():
        assert len(p.simples.simples) >= 1
        assert p.simples.validate(p.algebra) == []


def test_mutate_after_warm_caches():
    # every derived view of the original is read first, so a mutant that
    # inherited any of them would still look like the original
    from qhopf.qha import drinfeld_element, monodromy

    alg = preset("twisted_double_Z2").algebra
    alg.mult_table, alg.left_mult, alg.coadjoint_action, drinfeld_element(alg)
    original_monodromy = monodromy(alg)
    one = Scalar.rational(1, order=4)

    bad_mult = mutate(alg, ("mult", (1, 2, 3)), one)
    assert "associativity" in {r.name for r in validate(bad_mult).failures()}

    bad_r = mutate(alg, ("r_matrix", (1, 2)), one)
    assert monodromy(bad_r) != original_monodromy
    assert validate(alg).ok
