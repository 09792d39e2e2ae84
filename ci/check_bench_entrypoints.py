#!/usr/bin/env python
"""Fail when a benchmark entry point no longer resolves.

The benchmark under ``perfbench/`` drives the program through the
``repro`` names that ``perfbench/child.py`` and ``perfbench/build.py``
import, and its traced run wraps every entry point listed in
``perfbench.layers.SPANS``.  A rename inside ``src/`` that misses one of
them either breaks the benchmark or silently drops a layer from the
traced run.  This check resolves all of them and exits 1, listing each
one that is missing.

Usage: ``python ci/check_bench_entrypoints.py``
"""

import ast
import importlib
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = ("perfbench/child.py", "perfbench/build.py")
_REPRO_MODULE = re.compile(r"^repro(\.\w+)*$")


def imported_names(path):
    """``(module, name or None)`` for every ``repro`` import in ``path``,
    counting module names passed as strings (``importlib`` targets)."""
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and _REPRO_MODULE.match(node.module or ""):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _REPRO_MODULE.match(alias.name):
                    yield alias.name, None
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and _REPRO_MODULE.match(node.value):
            yield node.value, None


def resolve(module, attr_path=None):
    """Import ``module`` and walk ``attr_path`` (``"Class.method"``); a
    first segment that is a submodule is imported."""
    obj = importlib.import_module(module)
    for index, part in enumerate((attr_path or "").split(".")
                                 if attr_path else ()):
        if not hasattr(obj, part) and index == 0:
            obj = importlib.import_module(f"{module}.{part}")
        else:
            obj = getattr(obj, part)
    return obj


def entry_points():
    """``(label, module, attribute path)`` for everything to resolve."""
    from perfbench.layers import SPANS

    for rel in SOURCES:
        for module, name in imported_names(os.path.join(ROOT, rel)):
            label = f"{rel} imports {module}" + (f".{name}" if name else "")
            yield label, module, name
    for span in SPANS:
        module, _sep, attr = span.target.partition(":")
        yield f"SPANS {span.span} -> {span.target}", module, attr


def main():
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    checked, missing = 0, []
    for label, module, attr in entry_points():
        checked += 1
        try:
            resolve(module, attr)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{label}: {exc}")
    for line in missing:
        print(f"::error::missing benchmark entry point: {line}")
    print(f"{checked - len(missing)}/{checked} benchmark entry points "
          "resolve")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
