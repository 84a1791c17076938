"""Keeps the benchmark's per-layer tracer working against the program.

``perfbench/tracer.py`` patches the names it traces by looking each one up in
its owner's own namespace, so deleting or moving a traced function breaks
``perfbench/run.py --trace 1``. This loads the tracer from its file, installs
it and removes it again.
"""

import importlib.util
from pathlib import Path

import chorchain.harness  # noqa: F401  (imports every module the tracer patches)
from chorchain.provider import ProviderChainView

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_benchmark_tracer_finds_every_traced_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    original = vars(ProviderChainView)["get_transaction"]
    tracer = module.Tracer()
    try:
        tracer.install()  # a KeyError or AttributeError names the missing name
        assert vars(ProviderChainView)["get_transaction"] is not original
    finally:
        tracer.uninstall()
    assert vars(ProviderChainView)["get_transaction"] is original
