"""The traced benchmark's layer hooks still name real functions.

``perfbench/layers.py`` maps each layer to ``(module, attribute)`` pairs
that a traced run (``perfbench/run.py --trace 1``) wraps by name, where
the callers look them up.  A rename or a move under ``src/`` would
otherwise only show as an ``AttributeError`` in a traced run.
"""

from __future__ import annotations

import importlib
import inspect

from perfbench.layers import FLEET, SERVICE, TOOLCHAIN


def _hooks() -> list[tuple[str, str]]:
    return [
        site
        for table in (TOOLCHAIN, SERVICE, FLEET)
        for sites in table.values()
        for site in sites
    ]


def test_every_layer_hook_resolves():
    unresolved = []
    for module, attr in _hooks():
        owner = importlib.import_module(module)
        try:
            for part in attr.split("."):
                owner = inspect.getattr_static(owner, part)
        except AttributeError:
            unresolved.append(f"{module}:{attr}")
            continue
        if not callable(owner) and not isinstance(owner, (staticmethod, classmethod)):
            unresolved.append(f"{module}:{attr} (not callable)")
    assert not unresolved, unresolved


def test_plan_compile_hook_sees_compiled_queries(monkeypatch):
    # The runtime.plan.compile layer wraps the name the plan cache calls.
    from repro.ir import IRModel
    from repro.model import from_document
    from repro.runtime import clear_plan_cache, query_all, xpdl_init_from_model
    from repro.runtime import paths
    from repro.xpdlxml import parse_xml

    calls = []
    original = paths.compile_path

    def counting(path):
        calls.append(path)
        return original(path)

    monkeypatch.setattr(paths, "compile_path", counting)
    clear_plan_cache()
    model = from_document(parse_xml("<system id='s'><node id='n'/></system>"))
    ctx = xpdl_init_from_model(IRModel.from_model(model))
    assert len(query_all(ctx, "node")) == 1
    assert calls == ["node"]
