"""The benchmark's tracer (``perfbench/tracing.py``) replaces library names
by span wrappers for the length of a traced solve.  A renamed or deleted
name would surface only as a failure of the slow traced smoke run; this
checks every one of them in milliseconds."""

import importlib.util
import os

import krymat
from krymat import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_library_callable():
    package = os.path.dirname(krymat.__file__)
    patches = _tracing()._PATCHES
    assert patches
    for module, name, _, _ in patches:
        assert os.path.dirname(module.__file__) == package, module.__name__
        assert callable(getattr(module, name, None)), "%s.%s" % (module.__name__, name)
    # the tracer also swaps the CLI's operator class for a factory
    assert callable(cli.SparseOperator)
