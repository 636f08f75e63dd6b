import json
import pathlib
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from qhopf.exactmath import Scalar
from qhopf.cli import (
    ParseError,
    _json_text,
    algebras_equal,
    main,
    parse_scalar,
    parse_text,
    serialize,
)
from qhopf.presets import PRESET_NAMES, preset_path


@pytest.fixture()
def runner():
    return CliRunner()


def preset_text(name):
    return preset_path(name).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# scalar literals


def test_scalar_literal_examples():
    assert parse_scalar("1/2*z^3 - 1", 8) == (
        Scalar.rational(1, 2, order=8) * Scalar.zeta(8) ** 3 - Scalar.one(8)
    )
    assert parse_scalar("z^4", 4).is_one()
    assert parse_scalar("-3/4", 1).to_fraction() == Fraction(-3, 4)
    assert parse_scalar("2*3", 1).to_fraction() == 6
    assert parse_scalar("(1 + z)*(1 - z)", 4) == Scalar.rational(2, order=4)
    assert parse_scalar("2*-z", 4) == -(Scalar.rational(2, order=4) * Scalar.zeta(4))


def test_scalar_literal_roundtrip():
    for text in ("0", "1", "-1/2", "z", "-z^3", "1/2*z^3 - 1", "z^2 + 1/7"):
        s = parse_scalar(text, 8)
        assert parse_scalar(str(s), 8) == s


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=9),
                min_size=4, max_size=4))
def test_scalar_literal_fuzz_roundtrip(coeffs):
    s = Scalar(8, [Fraction(c) for c in coeffs])
    assert parse_scalar(str(s), 8) == s


@pytest.mark.parametrize("order", [1, 3, 4, 16])
def test_zeta_power_literals(order):
    # z^k is shared per field and reduced mod the order: it must still be
    # the k-th power, past the order too
    for k in range(2 * order + 1):
        assert parse_scalar(f"z^{k}", order) == Scalar.zeta(order) ** k, k


def test_scalar_literal_errors():
    with pytest.raises(ParseError):
        parse_scalar("1//2", 4)
    with pytest.raises(ParseError):
        parse_scalar("q", 4)
    with pytest.raises(ParseError):
        parse_scalar("1 +", 4)
    with pytest.raises(ParseError):
        parse_scalar("1/0", 4)


# ---------------------------------------------------------------------------
# definition files


def test_roundtrip_all_presets(presets):
    for name, p in presets.items():
        text = serialize(p.algebra, p.simples)
        alg2, simples2 = parse_text(text, source="roundtrip")
        assert algebras_equal(p.algebra, alg2), name
        assert serialize(alg2, simples2) == text, name


def test_zero_ribbon_is_not_no_ribbon(presets):
    from dataclasses import replace

    alg = presets["double_Z2"].algebra
    zero_ribbon = replace(alg, ribbon=[Scalar.zero(alg.order)] * alg.dim)
    assert not algebras_equal(zero_ribbon, replace(alg, ribbon=None))
    back, _ = parse_text(serialize(zero_ribbon))
    assert back.ribbon is not None and algebras_equal(back, zero_ribbon)


def test_parse_sums_repeated_entries(presets):
    # repeated indices add up, in the sections and in the simples, and a
    # sum that cancels is no entry at all
    p = presets["double_Z2"]
    text = serialize(p.algebra, p.simples)
    split = (text.replace("mult:\n0 0 0 = 1\n", "mult:\n0 0 0 = 1/2\n0 0 0 = 1/2\n", 1)
             .replace("R:\n", "R:\n3 3 = 1\n3 3 = -1\n", 1)
             .replace("simple s00 dim 1:\n", "simple s00 dim 1:\n1 0 0 = 2\n1 0 0 = -2\n", 1))
    assert split.count("\n") == text.count("\n") + 5
    alg, simples = parse_text(split)
    assert serialize(alg, simples) == text


def test_parse_reports_missing_section():
    with pytest.raises(ParseError, match="mult"):
        parse_text("dim 1\nfield 1\n\ncounit:\n0 = 1\n")


def test_parse_reports_bad_index():
    text = preset_text("trivial").replace("0 0 0 = 1", "0 0 7 = 1", 1)
    with pytest.raises(ParseError, match="out of range"):
        parse_text(text)


def test_parse_reports_bad_literal_with_line():
    text = preset_text("trivial").replace("mult:\n0 0 0 = 1", "mult:\n0 0 0 = 1%", 1)
    with pytest.raises(ParseError, match="scalar literal") as e:
        parse_text(text)
    # the column counts from 1 in the line, not in the literal
    assert (e.value.line, e.value.col) == (text[:text.index("0 0 0 = 1%")].count("\n") + 1, 10)


def _counted_parse_scalar(monkeypatch):
    # the texts fileformat.parse_scalar is called on, in order
    import qhopf.fileformat as fileformat

    calls, helper = [], fileformat.parse_scalar

    def counted(text, order):
        calls.append(text)
        return helper(text, order)

    monkeypatch.setattr(fileformat, "parse_scalar", counted)
    return calls


def test_parse_parses_each_distinct_literal_once(monkeypatch, double_z3):
    text = double_z3[1].text
    literals = [line.split("=", 1)[1].strip() for line in text.splitlines() if "=" in line]
    calls = _counted_parse_scalar(monkeypatch)
    assert serialize(*parse_text(text)) == text
    assert sorted(calls) == sorted(set(literals)) and len(calls) < len(literals)


def test_parse_shares_no_literal_across_calls(monkeypatch):
    # the same text under two declared fields gives a value in each field
    calls = _counted_parse_scalar(monkeypatch)
    rational = parse_text(TRIVIAL)[0].counit[0]
    cyclotomic = parse_text(TRIVIAL.replace("field 1", "field 4", 1))[0].counit[0]
    assert (rational.order, cyclotomic.order) == (1, 4) and calls == ["1", "1"]


def test_parse_reports_a_repeated_bad_literal_at_its_first_line(monkeypatch):
    calls = _counted_parse_scalar(monkeypatch)
    text = TRIVIAL.replace("counit:\n0 = 1", "counit:\n0 = 1%", 1).replace(
        "alpha:\n0 = 1", "alpha:\n0 = 1%", 1)
    with pytest.raises(ParseError, match="unexpected character") as e:
        parse_text(text)
    assert e.value.line == text[:text.index("0 = 1%")].count("\n") + 1
    assert calls == ["1", "1%"]


def test_parse_solves_missing_inverses():
    text = preset_text("double_Z2")
    lines = [l for l in text.splitlines() if l.strip()]
    # drop the R_inv section
    out, skip = [], False
    for line in lines:
        if line.startswith("R_inv:"):
            skip = True
            continue
        if skip and "=" in line:
            continue
        skip = False
        out.append(line)
    alg, _ = parse_text("\n".join(out))
    assert any("R_inv solved" in n for n in alg.notes)
    from qhopf.qha import validate

    assert validate(alg).ok


def test_parse_records_failed_inverse():
    text = (
        "dim 2\nfield 1\n\nmult:\n0 0 0 = 1\n0 1 1 = 1\n1 0 1 = 1\n\n"
        "counit:\n0 = 1\n1 = 1\n\ncoproduct:\n0 0 0 = 1\n1 1 1 = 1\n\n"
        "antipode:\n0 0 = 1\n1 1 = 1\n\nphi:\n0 0 0 = 1\n\nalpha:\n0 = 1\n\n"
        "beta:\n0 = 1\n\nR:\n1 1 = 1\n"  # R is nilpotent-ish, not invertible
    )
    alg, _ = parse_text(text)
    assert any("not invertible" in n for n in alg.notes)
    from qhopf.qha import validate

    assert not validate(alg).ok


# ---------------------------------------------------------------------------
# commands and exit codes


def test_check_preset_exit_zero(runner):
    res = runner.invoke(main, ["check", "trivial"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["ok"] is True


def test_check_mutated_file_exit_one(runner, tmp_path, presets):
    from qhopf.presets import mutate

    bad = mutate(presets["double_Z2"].algebra, ("r_matrix", (0, 0)),
                 Scalar.rational(1))
    path = tmp_path / "bad.alg"
    path.write_text(serialize(bad), encoding="utf-8")
    res = runner.invoke(main, ["check", str(path)])
    assert res.exit_code == 1
    payload = json.loads(res.output)
    assert payload["ok"] is False
    witnessed = [c for c in payload["checks"] if not c["ok"]]
    assert witnessed and all(c["witness"] is not None for c in witnessed)


def test_missing_file_exit_two(runner):
    res = runner.invoke(main, ["check", "/nonexistent/file.alg"])
    assert res.exit_code == 2


def test_parse_error_exit_two(runner, tmp_path):
    path = tmp_path / "broken.alg"
    path.write_text("dim 1\nfield 1\n\nmult:\n0 0 0 = ??\n", encoding="utf-8")
    res = runner.invoke(main, ["check", str(path)])
    assert res.exit_code == 2


def test_derived_command(runner):
    res = runner.invoke(main, ["derived", "double_Z2"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert set(payload) >= {"twist_f", "u", "u_tilde", "u_inv", "monodromy"}


def test_coend_command(runner):
    res = runner.invoke(main, ["coend", "twisted_double_Z2"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert set(payload["intermediates"]) == {"D", "W", "X_Q", "X_D"}


def test_factorisable_command(runner):
    res = runner.invoke(main, ["factorisable", "group_Z2_trivialR"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["is_factorisable"] is False and payload["tests_agree"] is True


def test_modular_command_with_projective(runner):
    # the note is always written; --projective is no option
    res = runner.invoke(main, ["modular", "double_Z2"])
    assert res.exit_code == 0
    assert "normalisation_note" in json.loads(res.output)
    for command in ("modular", "report"):
        res = runner.invoke(main, [command, "double_Z2", "--projective"])
        assert res.exit_code == 2 and "No such option '--projective'" in res.stderr


def test_modular_rejects_nonfactorisable(runner):
    res = runner.invoke(main, ["modular", "group_Z2_trivialR"])
    assert res.exit_code == 1


def test_fusion_csv_group_law(runner):
    res = runner.invoke(main, ["fusion", "double_Z2", "--output", "csv"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "U,V,W,N"
    assert len(lines) == 1 + 4 * 4 * 4
    entries = {tuple(l.split(",")[:3]): int(l.split(",")[3]) for l in lines[1:]}
    assert entries[("s01", "s01", "s00")] == 1
    assert entries[("s01", "s10", "s11")] == 1
    assert entries[("s01", "s10", "s00")] == 0


def test_fusion_no_oracle(runner):
    # the character oracle always runs; --no-oracle and --oracle are no options
    for command in ("fusion", "report"):
        for flag in ("--no-oracle", "--oracle"):
            res = runner.invoke(main, [command, "twisted_double_Z2", flag])
            assert res.exit_code == 2 and f"No such option '{flag}'" in res.stderr


def test_fusion_without_simples_exit_two(runner, tmp_path, presets):
    path = tmp_path / "nosimples.alg"
    path.write_text(serialize(presets["double_Z2"].algebra), encoding="utf-8")
    res = runner.invoke(main, ["fusion", str(path)])
    assert res.exit_code == 2


def test_fusion_rejects_nonfactorisable(runner):
    # the Verlinde formula needs the same factorisability gate as modular
    res = runner.invoke(main, ["fusion", "group_Z2_trivialR"])
    assert res.exit_code == 1
    assert "not factorisable" in res.stderr


# each stage command and the report section it prints
STAGE_COMMANDS = {"derived": "derived", "coend": "coend", "factorisable": "factorisability",
                  "modular": "modular", "fusion": "fusion"}


@pytest.mark.parametrize("name", [*PRESET_NAMES, "H4"])
def test_stage_commands_print_their_report_section(runner, tmp_path, name):
    # a stage command prints its section of the report, or exits 1 with the
    # report's skip reason; fusion without simples is a parse error
    from test_sweedler import H4

    path = name
    if name == "H4":
        path = str(tmp_path / "H4.alg")
        pathlib.Path(path).write_text(H4, encoding="utf-8")
    report = json.loads(runner.invoke(main, ["report", path]).stdout)
    for command, stage in STAGE_COMMANDS.items():
        res = runner.invoke(main, [command, path])
        if report[stage] is not None:
            assert res.exit_code == 0, (command, res.stderr)
            payload = json.loads(res.stdout)
            del payload["algebra"], payload["schema_version"]
            assert payload == report[stage], command
        elif report[f"{stage}_skipped"] == "no simple modules declared":
            assert res.exit_code == 2 and "requires a 'simple' section" in res.stderr
        else:
            assert (res.exit_code, res.stdout) == (1, ""), command
            assert report[f"{stage}_skipped"] in res.stderr, (command, res.stderr)


def test_stage_commands_stop_on_axiom_failure(runner, tmp_path, presets):
    from qhopf.presets import mutate

    p = presets["double_Z2"]
    bad = mutate(p.algebra, ("r_matrix", (0, 0)), Scalar.rational(1))
    path = tmp_path / "bad.alg"
    path.write_text(serialize(bad, p.simples), encoding="utf-8")
    for command in STAGE_COMMANDS:
        res = runner.invoke(main, [command, str(path)])
        assert (res.exit_code, res.stdout) == (1, ""), command
        assert res.stderr.startswith("axiom failure: hexagon_coproduct_left@"), command


def test_csv_rejected_elsewhere(runner):
    res = runner.invoke(main, ["check", "trivial", "--output", "csv"])
    assert res.exit_code != 0


@pytest.mark.parametrize("command", ["check", "derived", "coend", "factorisable", "modular",
                                     "report"])
def test_csv_rejected_before_any_stage(runner, monkeypatch, command):
    # only fusion offers csv; elsewhere click refuses it before the input
    # is even loaded, so no stage runs (and a skipped stage exits 2, not 1)
    import qhopf.cli as cli

    loaded = []
    monkeypatch.setattr(cli, "_load", lambda *args: loaded.append(args))
    for name in ("double_Z2", "group_Z2_trivialR"):
        res = runner.invoke(main, [command, name, "--output", "csv"])
        assert res.exit_code == 2, (name, res.output)
        assert "Invalid value for '--output'" in res.stderr
    assert loaded == []



TRIVIAL = preset_text("trivial")
# id -> (definition text, first text of the offending line or None, message)
REFUSED_FILES = {
    "trailing-int": (TRIVIAL.replace("mult:\n0 0 0 = 1", "mult:\n0 0 0 = 1 2", 1), "0 0 0 = 1 2",
                     "trailing 'int' in scalar literal"),
    "simple-header": (TRIVIAL.replace("simple triv dim 1:", "simple triv 1:"), "simple triv 1:",
                      "malformed simple header"),
    "unknown-section": (TRIVIAL.replace("ribbon:", "ribon:"), "ribon:",
                        "unknown section 'ribon'"),
    "entry-before-section": (TRIVIAL.replace("mult:\n", "0 = 1\nmult:\n", 1), "0 = 1\nmult:",
                             "entry before any section header"),
    "index-letter": (TRIVIAL.replace("mult:\n0 0 0", "mult:\n0 0 x", 1), "0 0 x",
                     "non-integer index in '0 0 x'"),
    "index-range": (TRIVIAL.replace("simple triv dim 1:\n0 0 0", "simple triv dim 1:\n0 1 0"),
                    "0 1 0", "index (0, 1, 0) out of range for simple of dim 1"),
    "garbage": (TRIVIAL.replace("mult:\n", "mult:\ngarbage\n", 1), "garbage",
                "cannot parse line 'garbage'"),
    "deep-minus": (TRIVIAL.replace("mult:\n0 0 0 = 1", "mult:\n0 0 0 = " + "-" * 3000 + "1", 1),
                   "0 0 0 = -", "literal is nested too deeply"),
    "deep-parentheses": (TRIVIAL.replace(
        "mult:\n0 0 0 = 1", "mult:\n0 0 0 = " + "(" * 3000 + "1" + ")" * 3000, 1),
        "0 0 0 = (", "literal is nested too deeply"),
    "no-dim": ("field 1\nflags hopf\n", None, "missing 'dim' header"),
    "no-field": ("dim 1\nflags hopf\n", None, "missing 'field' header"),
    # str.isdigit and int() accept more than the ASCII digits the format has
    "dim-superscript": (TRIVIAL.replace("dim 1", "dim \u00b2", 1), "dim \u00b2",
                        "malformed dim header 'dim \u00b2'"),
    "field-superscript": (TRIVIAL.replace("field 1", "field \u00b2", 1), "field \u00b2",
                          "malformed field header 'field \u00b2'"),
    "simple-dim-superscript": (TRIVIAL.replace("simple triv dim 1:", "simple triv dim \u00b2:"),
                               "simple triv dim", "malformed simple header"),
    "literal-superscript": (TRIVIAL.replace("mult:\n0 0 0 = 1", "mult:\n0 0 0 = 1\u00b2", 1),
                            "0 0 0 = 1\u00b2", "unexpected character '\u00b2' in scalar literal"),
    "literal-arabic-digit": (TRIVIAL.replace("mult:\n0 0 0 = 1", "mult:\n0 0 0 = \u0663", 1),
                             "0 0 0 = \u0663", "unexpected character '\u0663' in scalar literal"),
    "index-underscore": (TRIVIAL.replace("mult:\n0 0 0", "mult:\n0 0 0_0", 1), "0 0 0_0",
                         "non-integer index in '0 0 0_0'"),
    "index-plus": (TRIVIAL.replace("mult:\n0 0 0", "mult:\n0 0 +0", 1), "0 0 +0",
                   "non-integer index in '0 0 +0'"),
    # a second header is refused before the pair is complete and after it
    "repeated-dim": (TRIVIAL.replace("dim 1", "dim 3\ndim 1", 1), "dim 1",
                     "repeated 'dim' header"),
    "repeated-field": (TRIVIAL.replace("flags", "field 1\nflags", 1), "field 1\nflags",
                       "repeated 'field' header"),
    # a second flags line would replace the first, and a second simple of
    # one label would give its fusion rows two contradictory values
    "repeated-flags": (TRIVIAL.replace("flags factorisable hopf semisimple",
                                       "flags hopf\nflags factorisable semisimple", 1),
                       "flags factorisable", "repeated 'flags' header"),
    "repeated-simple-label": (preset_text("double_Z2").replace(
        "simple s11 dim 1:", "simple s10 dim 1:  # was s11"), "simple s10 dim 1:  #",
        "repeated simple label 's10'"),
    # int() refuses more than 4,300 digits; the long dim is refused before
    # any section could be built at that size
    "long-dim": (TRIVIAL.replace("dim 1", "dim " + "1" * 5000, 1), "dim 1",
                 "number of 5000 digits exceeds the limit"),
    "long-index": (TRIVIAL.replace("mult:\n0 0 0", "mult:\n0 0 " + "0" * 5000, 1), "0 0 00",
                   "number of 5000 digits exceeds the limit"),
    "long-literal": (TRIVIAL.replace("mult:\n0 0 0 = 1", "mult:\n0 0 0 = " + "1" * 5000, 1),
                     "0 0 0 = 11", "number of 5000 digits exceeds the limit"),
}


@pytest.mark.parametrize("text, line, message", REFUSED_FILES.values(), ids=list(REFUSED_FILES))
def test_parser_refusals_exit_two_with_a_located_error(runner, tmp_path, text, line, message):
    path = tmp_path / "refused.alg"
    path.write_text(text, encoding="utf-8")
    res = runner.invoke(main, ["check", str(path)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit) and "Traceback" not in res.output
    where = str(path) if line is None else f"{path}:{text[:text.index(line)].count(chr(10)) + 1}"
    assert res.stderr.startswith(f"error: {where}"), res.stderr
    assert message in res.stderr, res.stderr


@pytest.mark.parametrize("text, line", [REFUSED_FILES[k][:2] for k in ("deep-minus",
                                                                       "deep-parentheses")],
                         ids=["minus", "parentheses"])
def test_a_deep_literal_is_echoed_in_short(runner, tmp_path, text, line):
    # the 3,000-character literal is cut to its start; the line and the
    # column inside it locate the fault
    path = tmp_path / "deep.alg"
    path.write_text(text, encoding="utf-8")
    res = runner.invoke(main, ["check", str(path)])
    assert res.exit_code == 2, res.output
    where = f"error: {path}:{text[:text.index(line)].count(chr(10)) + 1}:"
    assert res.stderr.startswith(where) and len(res.stderr) < len(where) + 100, res.stderr
    col, rest = res.stderr[len(where):].split(":", 1)
    assert int(col) > len("0 0 0 = ")
    assert rest == f" bad scalar literal {line[-1] * 24!r}...: literal is nested too deeply\n"


def test_a_file_that_is_not_utf8_exits_two_with_a_located_error(runner, tmp_path):
    path = tmp_path / "latin.alg"
    path.write_bytes(b"dim 1\nfield 1\n\xff\xfe\n")
    res = runner.invoke(main, ["check", str(path)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit) and "Traceback" not in res.output
    assert res.stderr == f"error: {path}:3: not UTF-8 text (invalid start byte at byte offset 14)\n"


def test_a_simple_declared_twice_is_refused_as_dependent(runner, tmp_path):
    # s01 again under another label: its character repeats s01's
    text = preset_text("double_Z2")
    start = text.index("simple s01 dim 1:")
    section = text[start:text.index("simple s10", start)]
    path = tmp_path / "twice.alg"
    path.write_text(text.rstrip("\n") + "\n\n" + section.replace("s01", "s01b"),
                    encoding="utf-8")
    res = runner.invoke(main, ["report", str(path)])
    assert res.exit_code == 1, res.output
    assert res.stderr == (
        "invalid input: declared simples are not a complete set of simple modules: "
        "characters are linearly dependent; sum of squared dimensions is 5, expected 4 "
        "(dim A minus the radical)\n")


def test_markdown_output(runner):
    res = runner.invoke(main, ["check", "trivial", "--output", "md"])
    assert res.exit_code == 0
    assert res.output.startswith("# axiom report")



def test_report_markdown_output(runner, tmp_path):
    # nested sections, matrix rows and the fusion table; --out writes the
    # bytes stdout shows
    res = runner.invoke(main, ["report", "double_Z2", "--output", "md"])
    assert res.exit_code == 0, res.output
    text = res.stdout
    assert text.startswith("# report for preset:double_Z2\n")
    assert "\n  - **intermediates**:\n    - **D**:\n      - **dim**: `4`\n" in text
    assert "\n  - **mu_hat**:\n    - `['1', '0', '0', '0']`\n" in text
    assert "\n    | U | V | W | N |\n    |---|---|---|---|\n" in text
    target = tmp_path / "report.md"
    res = runner.invoke(main, ["report", "double_Z2", "--output", "md", "--out", str(target)])
    assert res.exit_code == 0 and res.stdout == ""
    assert target.read_bytes() == text.encode("utf-8")


# JSON payloads: str keys and values that need escapes, ints past 64 bits,
# the three constants, and empty or tuple containers
JSON_STRINGS = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'),
                                 st.characters()))
JSON_LEAVES = st.one_of(JSON_STRINGS, st.integers(), st.integers(2**64, 2**80).map(
    lambda n: -n if n % 2 else n), st.booleans(), st.none())


def _containers(items, min_size=0, max_size=4):
    lists = st.lists(items, min_size=min_size, max_size=max_size)
    return st.one_of(lists, lists.map(tuple), st.dictionaries(
        JSON_STRINGS, items, min_size=min_size, max_size=max_size))


JSON_PAYLOADS = st.recursive(JSON_LEAVES, _containers, max_leaves=20)
# nested at least four levels deep
DEEP_PAYLOADS = JSON_LEAVES
for _ in range(4):
    DEEP_PAYLOADS = _containers(DEEP_PAYLOADS, 1, 2)


@settings(max_examples=100, deadline=None)
@given(st.one_of(JSON_PAYLOADS, DEEP_PAYLOADS))
def test_json_writer_matches_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("args", [["report", "double_Z2"],
                                  ["check", "double_Z2", "--output", "json"]])
def test_stdout_and_out_file_bytes_agree(runner, tmp_path, args):
    target = tmp_path / "payload.json"
    printed = runner.invoke(main, args)
    written = runner.invoke(main, [*args, "--out", str(target)])
    assert printed.exit_code == written.exit_code == 0
    assert written.stdout_bytes == b""
    assert printed.stdout_bytes == target.read_bytes()


def test_report_deterministic(runner):
    a = runner.invoke(main, ["report", "double_Z2"])
    b = runner.invoke(main, ["report", "double_Z2"])
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output
    payload = json.loads(a.output)
    assert payload["modular"] is not None and payload["fusion"] is not None


def test_report_on_nonfactorisable_skips_modular(runner):
    res = runner.invoke(main, ["report", "group_Z2_trivialR"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["modular"] is None
    assert "factorisable" in payload["modular_skipped"]


def test_report_without_ribbon_skips_modular_and_fusion(runner, tmp_path):
    # a factorisable input with simples but no ribbon section: the
    # characters need ribbon data, so fusion is skipped like modular
    text = preset_text("double_Z2")
    start = text.index("ribbon:")
    path = tmp_path / "noribbon.alg"
    path.write_text(text[:start] + text[text.index("simple ", start):], encoding="utf-8")
    res = runner.invoke(main, ["report", str(path)])
    assert res.exit_code == 0, res.stderr
    payload = json.loads(res.output)
    assert payload["factorisability"]["is_factorisable"]
    assert payload["modular"] is None and payload["fusion"] is None
    assert "ribbon" in payload["modular_skipped"] and "ribbon" in payload["fusion_skipped"]


def test_field_order_embedding(runner):
    res = runner.invoke(main, ["check", "double_Z2", "--field-order", "4"])
    assert res.exit_code == 0
    # 6 is not a multiple of the declared order 4; the error names the
    # line of the 'field' header
    res = runner.invoke(main, ["check", "twisted_double_Z2", "--field-order", "6"])
    assert res.exit_code == 2
    text = preset_text("twisted_double_Z2")
    header = next(n for n, line in enumerate(text.splitlines(), start=1)
                  if line.startswith("field "))
    assert f"preset:twisted_double_Z2:{header}: field order 6" in res.stderr
    with pytest.raises(ParseError, match="not a positive multiple of declared 4") as e:
        parse_text(text, field_order=6)
    assert e.value.line == header


def test_import_layering():
    # the command line loads the heavy stages only when a command needs
    # them, which keeps its start-up short; the presets do not need it
    import os
    import subprocess
    import sys
    from pathlib import Path

    import qhopf

    env = dict(os.environ, PYTHONPATH=str(Path(qhopf.__file__).parents[1]))
    checks = [
        "import sys, qhopf.cli\n"
        "heavy = {f'qhopf.{m}' for m in ('coend', 'modular', 'fusion', 'repcat')}\n"
        "assert not heavy & set(sys.modules), sorted(heavy & set(sys.modules))",
        "import sys, qhopf.presets\n"
        "qhopf.presets.preset('trivial')\n"
        "assert 'qhopf.cli' not in sys.modules",
    ]
    for code in checks:
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr


def test_out_writes_file(runner, tmp_path):
    target = tmp_path / "report.json"
    res = runner.invoke(main, ["check", "trivial", "--out", str(target)])
    assert res.exit_code == 0
    assert json.loads(target.read_text())["ok"] is True


def test_field_zero_is_header_error(runner, tmp_path):
    text = preset_text("trivial").replace("field 1", "field 0", 1)
    with pytest.raises(ParseError, match="field order must be positive") as e:
        parse_text(text)
    assert e.value.line == 3
    path = tmp_path / "field0.alg"
    path.write_text(text, encoding="utf-8")
    res = runner.invoke(main, ["check", str(path)])
    assert res.exit_code == 2
    for bad in ("0", "-2"):
        res = runner.invoke(main, ["check", "trivial", "--field-order", bad])
        assert res.exit_code == 2, bad


def test_simple_before_header_is_parse_error(runner, tmp_path):
    text = "simple a dim 1:\n0 0 0 = 1\n" + preset_text("trivial")
    with pytest.raises(ParseError, match="must come after the 'dim' and 'field'") as e:
        parse_text(text)
    assert e.value.line == 1
    path = tmp_path / "early_simple.alg"
    path.write_text(text, encoding="utf-8")
    res = runner.invoke(main, ["check", str(path)])
    assert res.exit_code == 2


def test_declared_simple_that_is_not_a_module_exit_one(runner, tmp_path):
    text = preset_text("double_Z2").replace("simple s00 dim 1:", "simple s00 dim 2:", 1)
    path = tmp_path / "bad_simple.alg"
    path.write_text(text, encoding="utf-8")
    for command in ("fusion", "report"):
        res = runner.invoke(main, [command, str(path)])
        assert res.exit_code == 1, command
        assert "s00: representation property fails at (0,)" in res.stderr


# line edits of a definition file: (kind, line, choice)
LINE_EDITS = st.tuples(st.sampled_from(("delete", "duplicate", "index", "scalar")),
                       st.integers(0, 200), st.integers(0, 9))
LITERALS = ("0", "1", "-1", "1/2", "-3/4*z", "z", "z^2 - 1", "1/0", "", "x")


def _edit(lines, kind, at, choice):
    at %= len(lines)
    line = lines[at]
    if kind == "delete":
        del lines[at]
    elif kind == "duplicate":
        lines.insert(at, line)
    elif kind == "index" and "=" in line:
        head, _, value = line.partition("=")
        idx = head.split()
        if idx:
            idx[choice % len(idx)] = str(choice)
            lines[at] = " ".join(idx) + " =" + value
    elif kind == "scalar" and "=" in line:
        lines[at] = line.partition("=")[0] + "= " + LITERALS[choice]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(PRESET_NAMES), st.lists(LINE_EDITS, min_size=1, max_size=3))
def test_report_contract_on_edited_files(name, edits):
    # whatever the edit, report exits 0, 1 or 2 and never raises
    lines = preset_text(name).splitlines()
    for edit in edits:
        _edit(lines, *edit)
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("edited.alg", "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        res = runner.invoke(main, ["report", "edited.alg"])
    assert res.exit_code in (0, 1, 2), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception


# whole definition files from a small grammar: (section, index count)
SECTIONS = (("mult", 3), ("counit", 1), ("coproduct", 3), ("antipode", 2), ("phi", 3),
            ("phi_inv", 3), ("alpha", 1), ("beta", 1), ("R", 2), ("R_inv", 2), ("ribbon", 1))
OPTIONAL = ("phi_inv", "R_inv", "ribbon")


def _group_lines(section, dim):
    """The entries of Q[Z/dim] with trivial R, unit phi, alpha and beta."""
    r = range(dim)
    return {"mult": [(i, j, (i + j) % dim) for i in r for j in r],
            "counit": [(i,) for i in r],
            "coproduct": [(i, i, i) for i in r],
            "antipode": [(i, -i % dim) for i in r]}.get(
        section, [(0,) * dict(SECTIONS)[section]])


@st.composite
def definition_files(draw):
    dim, field = draw(st.integers(1, 3)), draw(st.sampled_from((1, 3, 4)))
    power = st.integers(0, 2 * field + 1)
    # literals equal to one, then any literals, z^k with k >= m and 0 among them
    ones = st.sampled_from(("1", f"z^{field}", f"z^{2 * field}", "-1/6*z + 1 + 1/6*z"))
    literal = st.one_of(ones, st.sampled_from(("0", "-1", "1/2", "-1/6*z + 2", "z - z")),
                        power.map(lambda k: f"z^{k}"), power.map(lambda k: f"-1/2*z^{k} + 1/3"))
    # one file in eight may name dim or dim + 1, which are out of range
    index = st.integers(0, dim + 1 if draw(st.integers(0, 7)) == 0 else dim - 1)
    # each section is the group algebra's, with random lines added to it or
    # in its place, at a rate of none, one in six or one in two per file
    noise = draw(st.sampled_from((0, 1, 3)))
    lines = [f"dim {dim}", f"field {field}"]
    for section, arity in SECTIONS:
        if section in OPTIONAL and draw(st.booleans()):
            continue
        lines.append(f"{section}:")
        mode = draw(st.integers(0, 5)) if noise else 5
        if mode:
            lines += [" ".join(map(str, idx)) + f" = {draw(ones)}"
                      for idx in _group_lines(section, dim)]
        extra = st.tuples(st.tuples(*[index] * arity), literal)
        for idx, value in draw(st.lists(extra, min_size=1, max_size=2)) if mode < noise else ():
            lines.append(" ".join(map(str, idx)) + f" = {value}")
        if lines[-1] != f"{section}:" and draw(st.integers(0, 4)) == 0:
            head, _, value = lines.pop().partition(" = ")    # repeated entries add up
            lines += [f"{head} = 1/2*({value})"] * 2
    if draw(st.booleans()):
        lines.append("simple s0 dim 1:")
        lines += [f"{a} 0 0 = {draw(ones)}" for a in range(dim)]
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(definition_files())
def test_report_contract_on_generated_files(text):
    # whatever the file, report exits 0, 1 or 2 and never raises
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("generated.alg", "w", encoding="utf-8") as f:
            f.write(text)
        res = runner.invoke(main, ["report", "generated.alg"])
    assert res.exit_code in (0, 1, 2), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
