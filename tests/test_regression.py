"""Frozen exact values for the shipped doubles, plus integration tests
with hand-authored definition files (including the no-ribbon path)."""

import json

import pytest
from click.testing import CliRunner

from qhopf.exactmath import format_scalar
from qhopf.cli import main, parse_text
from qhopf.qha import validate
from qhopf.coend import coend_maps, factorisability


def _fmt_matrix(m):
    return [[format_scalar(c) for c in row] for row in m.dense]


def test_double_modular_data_frozen(all_modular):
    md = all_modular["double_Z2"]
    assert [format_scalar(c) for c in md.integral] == ["1", "0", "0", "0"]
    assert format_scalar(md.pairing_value) == "1/4"
    assert format_scalar(md.lam) == "1/2"
    assert [format_scalar(c) for c in md.cointegral] == ["1", "1", "1", "1"]
    # one quarter of the Klein four-group character table
    assert _fmt_matrix(md.s_z) == [
        ["1/4", "1/4", "1/4", "1/4"],
        ["1/4", "1/4", "-1/4", "-1/4"],
        ["1/4", "-1/4", "1/4", "-1/4"],
        ["1/4", "-1/4", "-1/4", "1/4"],
    ]
    assert _fmt_matrix(md.t_z) == [
        ["1/2", "1/2", "1/2", "-1/2"],
        ["1/2", "1/2", "-1/2", "1/2"],
        ["1/2", "-1/2", "1/2", "1/2"],
        ["-1/2", "1/2", "1/2", "1/2"],
    ]


def test_twisted_double_modular_data_frozen(all_modular):
    md = all_modular["twisted_double_Z2"]
    assert format_scalar(md.pairing_value) == "1/4"
    assert format_scalar(md.lam) == "1/2"
    assert _fmt_matrix(md.s_z) == [
        ["1/4", "1/4", "1/4", "1/4"],
        ["1/4", "-1/4", "-1/4", "1/4"],
        ["1/4", "-1/4", "1/4", "-1/4"],
        ["1/4", "1/4", "-1/4", "-1/4"],
    ]
    assert _fmt_matrix(md.t_z) == [
        ["1/2", "-1/2", "1/2", "1/2"],
        ["1/2", "1/2", "-1/2", "1/2"],
        ["1/2", "1/2", "1/2", "-1/2"],
        ["-1/2", "1/2", "1/2", "1/2"],
    ]


# the group algebra of Z/2 with its nontrivial triangular R-matrix and
# ribbon element g, written by hand in the definition format
SIGN_BRAIDED_Z2 = """
# group algebra of Z/2 with the sign R-matrix (triangular, so the
# monodromy is trivial and the algebra is not factorisable)
dim 2
field 1

mult:
0 0 0 = 1
0 1 1 = 1
1 0 1 = 1
1 1 0 = 1

counit:
0 = 1
1 = 1

coproduct:
0 0 0 = 1
1 1 1 = 1

antipode:
0 0 = 1
1 1 = 1

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

ribbon:
1 = 1

simple plus dim 1:
0 0 0 = 1
1 0 0 = 1

simple minus dim 1:
0 0 0 = 1
1 0 0 = -1
"""


def test_hand_authored_sign_braiding_file(tmp_path):
    alg, simples = parse_text(SIGN_BRAIDED_Z2, source="sign_braided_Z2")
    rep = validate(alg)
    assert rep.ok, rep.failures()
    assert any("R_inv solved" in n for n in alg.notes)
    assert any("ribbon_inv solved" in n for n in alg.notes)
    # triangular: the R-matrix is its own flip-inverse, so the monodromy
    # degenerates and all three tests say non-factorisable
    fact = factorisability(alg, coend_maps(alg))
    assert not fact.is_factorisable and fact.tests_agree
    assert simples is not None and simples.validate(alg) == []


def test_cli_on_hand_authored_file(tmp_path):
    path = tmp_path / "sign_braided_Z2.alg"
    path.write_text(SIGN_BRAIDED_Z2, encoding="utf-8")
    runner = CliRunner()
    res = runner.invoke(main, ["check", str(path)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["factorisable", str(path)])
    assert res.exit_code == 0
    assert json.loads(res.output)["is_factorisable"] is False
    # fusion needs a factorisable input: the dependence of the internal
    # characters is detected and reported as invalid input
    res = runner.invoke(main, ["fusion", str(path)])
    assert res.exit_code == 1


def test_field_embedding_preserves_everything(presets):
    # run the full pipeline over a strictly larger cyclotomic field and
    # compare against the native computation
    from qhopf.coend import coend_maps
    from qhopf.fusion import verlinde_fusion
    from qhopf.modular import modular_data
    from qhopf.presets import preset_path

    p = presets["twisted_double_Z2"]
    text = preset_path("twisted_double_Z2").read_text(encoding="utf-8")
    big, big_simples = parse_text(text, field_order=8)
    assert validate(big).ok
    maps_small, maps_big = coend_maps(p.algebra), coend_maps(big)
    md_small = modular_data(p.algebra, maps_small, factorisability(p.algebra, maps_small))
    md_big = modular_data(big, maps_big, factorisability(big, maps_big))
    assert format_scalar(md_big.lam) == format_scalar(md_small.lam)
    assert md_big.pairing_value == md_small.pairing_value.embed(8)
    table_big = verlinde_fusion(big, big_simples)
    table_small = verlinde_fusion(p.algebra, p.simples)
    assert table_big.table == table_small.table


def test_cli_without_ribbon_section(tmp_path, presets):
    from qhopf.cli import serialize

    alg = presets["double_Z2"].algebra
    text = serialize(alg)
    lines = []
    skip = False
    for line in text.splitlines():
        if line.startswith("ribbon:"):
            skip = True
            continue
        if skip:
            if "=" in line:
                continue
            skip = False
        lines.append(line)
    path = tmp_path / "no_ribbon.alg"
    path.write_text("\n".join(lines), encoding="utf-8")

    runner = CliRunner()
    res = runner.invoke(main, ["check", str(path)])
    assert res.exit_code == 0, res.output
    names = {c["name"] for c in json.loads(res.output)["checks"]}
    assert not any(n.startswith("ribbon") for n in names)
    res = runner.invoke(main, ["derived", str(path)])
    assert res.exit_code == 0
    assert json.loads(res.output)["u_inv"] is None
    # the modular pipeline needs the ribbon and must refuse
    res = runner.invoke(main, ["modular", str(path)])
    assert res.exit_code == 1
    # the combined report completes, skipping the ribbon-dependent parts
    res = runner.invoke(main, ["report", str(path)])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["modular"] is None and payload["check"]["ok"] is True
