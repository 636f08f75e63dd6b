"""The benchmark in perfbench/ looks up engine names (module functions,
methods defined on Tensor and ExactMatrix, keyword constructors).  Loading
its tracer and its input generators here makes a rename fail the test
suite instead of the benchmark.  The perfbench files are only imported.
The preset report digests the benchmark checks are checked here too, so a
change of the report bytes fails the test suite first.  The generated
D(Z/3), with nine simples, runs the fusion and modular solves at a size no
preset reaches, and its universal Hopf algebra is checked as a Hopf algebra
in the module category and against the S-route oracle and the Hopf short
forms."""

import hashlib
import importlib.util
import json
import pathlib
import tracemalloc

import pytest
from click.testing import CliRunner

from qhopf.cli import main, parse_text
from qhopf.coend import coend_maps, factorisability, hopf_reduced_maps
from qhopf.modular import modular_data, s_hat_pairing_form
from qhopf.presets import PRESET_NAMES, preset
from qhopf.qha import QuasiHopfAlgebra, drinfeld_twist
from qhopf.repcat import verify_braided_hopf
from qhopf.tensorspace import Tensor, mul

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_wrapped_name():
    from qhopf import tensorspace

    mul = tensorspace.mul
    tracer = _load("tracer").Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tensorspace.mul is mul


def test_inputs_self_check():
    _load("inputs").self_check()


INPUTS = _load("inputs")


@pytest.mark.parametrize("args", list(INPUTS.PRESET_DIGESTS),
                         ids=["-".join(a) for a in INPUTS.PRESET_DIGESTS])
def test_preset_report_bytes_match_benchmark_digests(tmp_path, args):
    out = tmp_path / "report.json"
    result = CliRunner().invoke(main, ["report", *args, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == INPUTS.PRESET_DIGESTS[args]


def test_traced_report_counts_tensor_work_and_uninstalls(tmp_path):
    from qhopf import tensorspace

    tracer_mod = _load("tracer")
    names = tracer_mod.TENSOR_METHODS + ("nonzero",)
    methods = {name: vars(tensorspace.Tensor)[name] for name in names}
    funcs = {name: getattr(tensorspace, name) for name in tracer_mod.TENSOR_FUNCS}
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert all(vars(tensorspace.Tensor)[n] is not m for n, m in methods.items())
        result = CliRunner().invoke(
            main, ["report", "double_Z2", "--out", str(tmp_path / "report.json")])
        assert result.exit_code == 0, result.output
        _, counts, _, _ = tracer.take()
    finally:
        tracer.uninstall()
    assert counts["tensorspace.ops_calls"] > 0
    assert counts["tensorspace.nonzero_calls"] > 0
    assert {n: vars(tensorspace.Tensor)[n] for n in names} == methods
    assert {n: getattr(tensorspace, n) for n in tracer_mod.TENSOR_FUNCS} == funcs


# SHA-256 of the report bytes, run from the file's directory so that the
# "algebra" field reads the relative path d_z3.alg
DOUBLE_Z3_DIGESTS = {
    1: "cfb0ddb8a86043ab6f92dab4d762aba110751de050786f59b569a0b31bda37e4",
    2: "35ab72b9624b2480a51e3516ec05b74023891cf857c433dd9e3e0ea0b1512952",
}


@pytest.mark.parametrize("k", [1, 2])
def test_generated_double_z3_report(tmp_path, monkeypatch, double_z3, k):
    monkeypatch.chdir(tmp_path)
    pathlib.Path("d_z3.alg").write_text(double_z3[k].text, encoding="utf-8")
    result = CliRunner().invoke(main, ["report", "d_z3.alg", "--out", "report.json"])
    assert result.exit_code == 0, result.output
    data = pathlib.Path("report.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == DOUBLE_Z3_DIGESTS[k]
    doc = json.loads(data)
    assert doc["factorisability"]["is_factorisable"]
    assert doc["modular"]["lambda"] == "1/3"
    labels = [f"s{s}{t}" for s in range(3) for t in range(3)]
    assert sorted(doc["fusion"]["labels"]) == labels
    # the fusion ring is the group ring of Z/3 x Z/3: N = 1 iff W = U + V
    table = {(r["U"], r["V"], r["W"]): r["N"] for r in doc["fusion"]["table"]}
    assert table == {
        (u, v, w): int(all((int(a) + int(b) - int(c)) % 3 == 0
                           for a, b, c in zip(u[1:], v[1:], w[1:])))
        for u in labels for v in labels for w in labels
    }


# SHA-256 of the report bytes of more generated inputs, run the same way:
# D(Z/4) with k = 3 (k = 2 is not prime to 4 and fails the axioms), D(Z/5)
# with k = 1 (over Q(zeta5), phi = 4, where the rank certificate runs at an
# order no preset has) and Q[Z/2 x Z/6], each in its identity labelling
GENERATED_DIGESTS = {
    "d_z4": "d222a5931674997443fbf7ee9ab86b1a7433b0fd4bc55a5103a433e751239f1e",
    "d_z5": "223b4291c6084ea5c11a9360c7575d435f1ebcabf6b1b84911f218d8cf3ee457",
    "q_z2xz6": "1ed6e67a8757f5c5979a13dd76ca12d233004fcce1186139863f20751051bd78",
}
DOUBLES = {"d_z4": (4, 3), "d_z5": (5, 1)}


def _generated(name):
    if name in DOUBLES:
        n, k = DOUBLES[name]
        alg, simples = INPUTS.double_cyclic(n, k, list(range(n * n)))
        return INPUTS.serialize(alg, simples, comment=alg.name)
    alg = INPUTS.group_algebra((2, 6), list(range(12)))
    return INPUTS.serialize(alg, comment=alg.name)


@pytest.mark.parametrize("name", list(GENERATED_DIGESTS))
def test_generated_report_bytes_are_pinned(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    pathlib.Path(f"{name}.alg").write_text(_generated(name), encoding="utf-8")
    result = CliRunner().invoke(main, ["report", f"{name}.alg", "--out", "report.json"])
    assert result.exit_code == 0, result.output
    data = pathlib.Path("report.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GENERATED_DIGESTS[name]


def test_parse_cost_follows_the_entries():
    # Q[Z/200] has 200^2 products among the 8M slots of a dense dim^3
    # product; parsing it stores the entries only, and writes them back
    alg = INPUTS.group_algebra((200,), list(range(200)))
    assert (alg.mult.legs, alg.coproduct.legs) == (3, 3)
    text = INPUTS.serialize(alg, comment=alg.name)
    tracemalloc.start()
    try:
        parsed, _ = parse_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"parse_text peaked at {peak / 2**20:.1f} MiB"
    assert INPUTS.serialize(parsed, comment=alg.name) == text


@pytest.mark.parametrize("name", [*PRESET_NAMES, "H4", *GENERATED_DIGESTS])
def test_twist_inverse_is_certified_without_a_solve(monkeypatch, name):
    # the closed form of f^-1 passes its one-product certificate on every
    # pinned input, so drinfeld_twist never reaches the solve
    from test_sweedler import H4

    if name == "H4":
        alg = parse_text(H4)[0]
    elif name in GENERATED_DIGESTS:
        alg = parse_text(_generated(name))[0]
    else:
        alg = preset(name).algebra
    monkeypatch.setattr(QuasiHopfAlgebra, "invert_element",
                        lambda self, t: pytest.fail("drinfeld_twist solved for f^-1"))
    f, f_inv, _ = drinfeld_twist(alg)
    unit = Tensor.unit(alg.dim, 2, alg.order)
    assert mul(f, f_inv, alg.mult_table) == unit == mul(f_inv, f, alg.mult_table)


# Scalar work per field order of one `report twisted_double_Z2` plus one
# verify_braided_hopf of that preset, of one `report` of the generated
# D(Z/3) (k = 1, relabelling seed 1), and of one `report` of the rebased
# twisted_double_Z2 of test_rebased, whose products have several terms,
# each freshly loaded.  "work" is the
# Scalar multiplies plus the products exactmath.sum_of_products multiplies
# inside its one sum, which never reach Scalar.__mul__; like `times`, it
# multiplies no pair with a zero factor or with a one of the other
# factor's field.  So moving a product into a sum costs no more than the
# multiply it saves, and a kernel change that adds work raises a count.
SCALAR_WORK_CEILING = {
    "twisted_double_Z2": {"work": {4: 6219}, "inv": {4: 32}},
    "double_Z3": {"work": {3: 8000}, "inv": {3: 54}},
    "rebased": {"work": {4: 241521}, "inv": {4: 24}},
}


def _multiplied(flat):
    return sum(1 for x, y in zip(flat[::2], flat[1::2])
               if x.num and y.num and not (x.order == y.order and (x.is_one() or y.is_one())))


def _scalar_work(run):
    """(work, inv) per field order of run(), with sum_of_products wrapped
    at every qhopf module attribute bound to it while run() runs."""
    import sys
    from collections import Counter

    from qhopf import exactmath

    summed = Counter()
    helper = exactmath.sum_of_products

    def counted(flat, order):
        summed[order] += _multiplied(flat)
        return helper(flat, order)

    tracer = _load("tracer").Tracer()
    with pytest.MonkeyPatch.context() as mp:
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "qhopf":
                for attr, value in list(vars(module).items()):
                    if value is helper:
                        mp.setattr(module, attr, counted)
        tracer.install()
        try:
            run()
            _, _, muls, invs = tracer.take()
        finally:
            tracer.uninstall()
    return muls + summed, invs


def test_scalar_work_does_not_grow(tmp_path, double_z3):
    def twisted_double_z2():
        result = CliRunner().invoke(
            main, ["report", "twisted_double_Z2", "--out", str(tmp_path / "report.json")])
        assert result.exit_code == 0, result.output
        assert verify_braided_hopf(preset("twisted_double_Z2").algebra).ok

    def double_z3_k1():
        result = CliRunner().invoke(
            main, ["report", str(tmp_path / "d_z3.alg"), "--out", str(tmp_path / "d_z3.json")])
        assert result.exit_code == 0, result.output

    from test_rebased import rebased_text

    # the files are written before the count starts
    (tmp_path / "d_z3.alg").write_text(double_z3[1].text, encoding="utf-8")
    (tmp_path / "rebased.alg").write_text(rebased_text(), encoding="utf-8")

    def rebased():
        result = CliRunner().invoke(main, [
            "report", str(tmp_path / "rebased.alg"), "--out", str(tmp_path / "rebased.json")])
        assert result.exit_code == 0, result.output

    for name, run in (("twisted_double_Z2", twisted_double_z2), ("double_Z3", double_z3_k1),
                      ("rebased", rebased)):
        work, invs = _scalar_work(run)
        for kind, counts in (("work", work), ("inv", invs)):
            ceiling = SCALAR_WORK_CEILING[name][kind]
            assert set(counts) <= set(ceiling), (name, kind, counts)
            assert all(counts[o] <= ceiling[o] for o in counts), (name, kind, counts, ceiling)


@pytest.mark.parametrize("k", [1, 2])
def test_generated_double_z3_is_braided_hopf(double_z3, k):
    rep = verify_braided_hopf(double_z3[k].algebra)
    assert rep.ok, rep.failures()
    assert len(rep.results) == 19


@pytest.mark.parametrize("k", [1, 2])
def test_generated_double_z3_oracles(double_z3, k):
    # the S-route oracle and the Hopf short forms at dim 9; D(Z/3) is Hopf
    alg = double_z3[k].algebra
    maps = coend_maps(alg)
    md = modular_data(alg, maps, factorisability(alg, maps))
    assert s_hat_pairing_form(alg, maps, md.integral) == md.s_hat
    short = hopf_reduced_maps(alg)
    assert short.mu_hat == maps.mu_hat
    assert short.delta_hat == maps.delta_hat
    assert short.s_hat_L == maps.s_hat_L
