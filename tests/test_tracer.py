"""The benchmark's tracer patches library names by string; a rename that
drops one of them must fail here, not only in the benchmark."""

import os
import sys
import types

from coxnorm.parabolic import shape_catalog
from coxnorm.rootsys import build_root_system

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def load_tracer():
    """perfbench/tracer.py as a module, executed from its source (no bytecode is written)."""
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = TRACER
    with open(TRACER) as f:
        exec(compile(f.read(), TRACER, "exec"), module.__dict__)
    return module


def bindings():
    """Every module attribute and class attribute of the coxnorm modules."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "coxnorm" or name.startswith("coxnorm.")):
            continue
        for attr, value in vars(module).items():
            out[name, attr] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, v in vars(value).items():
                    out[name, attr, member] = v
    return out


def test_tracer_installs_traces_decompose_and_restores_every_binding():
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()   # imports every module it patches, then patches them
    tracer.uninstall()
    before = bindings()
    tracer.install()
    try:
        patched = bindings()
        assert any(patched[k] is not v for k, v in before.items())
        rs = build_root_system("B3")
        shape = shape_catalog(rs).by_selector("A1")
        sys.modules["coxnorm.normalizer"].decompose(rs, shape)
    finally:
        tracer.uninstall()
    assert tracer.summary()["calls"]["normalizer.decompose"] == 1
    after = bindings()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
