"""The benchmark in perfbench/ looks up engine names (module functions,
methods defined on Tensor and ExactMatrix, keyword constructors).  Loading
its tracer and its input generators here makes a rename fail the test
suite instead of the benchmark.  The perfbench files are only imported."""

import importlib.util
import pathlib

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
