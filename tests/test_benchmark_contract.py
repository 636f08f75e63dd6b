"""The benchmark in perfbench/ looks up engine names (module functions,
methods defined on Tensor and ExactMatrix, keyword constructors).  Loading
its tracer and its input generators here makes a rename fail the test
suite instead of the benchmark.  The perfbench files are only imported.
The preset report digests the benchmark checks are checked here too, so a
change of the report bytes fails the test suite first."""

import hashlib
import importlib.util
import pathlib

import pytest
from click.testing import CliRunner

from qhopf.cli import main

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
