"""The benchmark in perfbench/ looks up engine names (module functions,
methods defined on Tensor and ExactMatrix, keyword constructors).  Loading
its tracer and its input generators here makes a rename fail the test
suite instead of the benchmark.  The perfbench files are only imported.
The preset report digests the benchmark checks are checked here too, so a
change of the report bytes fails the test suite first.  The generated
D(Z/3), with nine simples, runs the fusion and modular solves at a size no
preset reaches, and its universal Hopf algebra is checked as a Hopf algebra
in the module category."""

import hashlib
import importlib.util
import json
import pathlib
import random

import pytest
from click.testing import CliRunner

from qhopf.cli import main, parse_text
from qhopf.repcat import verify_braided_hopf

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


@pytest.mark.parametrize("k", [1, 2])
def test_generated_double_z3_report(tmp_path, k):
    alg, simples = INPUTS.double_cyclic(3, k, INPUTS.relabelling(random.Random(k), 9))
    src = tmp_path / "d_z3.alg"
    src.write_text(INPUTS.serialize(alg, simples, comment=alg.name), encoding="utf-8")
    out = tmp_path / "report.json"
    result = CliRunner().invoke(main, ["report", str(src), "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_bytes())
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


@pytest.mark.parametrize("k", [1, 2])
def test_generated_double_z3_is_braided_hopf(k):
    alg, simples = INPUTS.double_cyclic(3, k, INPUTS.relabelling(random.Random(k), 9))
    # parsing solves for the inverse ribbon element, which the twist check needs
    alg, _ = parse_text(INPUTS.serialize(alg, simples))
    rep = verify_braided_hopf(alg)
    assert rep.ok, rep.failures()
    assert len(rep.results) == 19
