"""The benchmark tracer's patch targets must exist and be called.

``benchmarks/tracer.py`` wraps functions in the namespace that calls them.
If a call site moves, the wrapper would silently find nothing to patch, or
patch a name nothing calls, and the per-layer figures would read zero.  So
every target is resolved here, and every module-level name is checked to
be called inside the module it is patched in.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_patches():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.PATCHES


def test_every_tracer_patch_target_resolves():
    patches = load_patches()
    assert patches
    missing = []
    for module_name, attr, _ in patches:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_every_undotted_tracer_patch_target_is_called_in_its_module():
    uncalled = []
    for module_name, attr, _ in load_patches():
        if "." in attr:
            continue
        source = Path(importlib.import_module(module_name).__file__).read_text()
        called = {node.func.id for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        if attr not in called:
            uncalled.append(f"{module_name}.{attr}")
    assert uncalled == []
