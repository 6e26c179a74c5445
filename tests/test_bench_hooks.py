"""The benchmark tracer's patch targets must exist.

``benchmarks/tracer.py`` wraps functions in the namespace that calls them.
If a call site moves, the wrapper would silently find nothing to patch and
the per-layer figures would read zero, so every target is resolved here.
"""

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
