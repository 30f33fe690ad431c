"""The benchmark under perfbench/ imports driftlab names at module level.

perfbench/tests sits outside the Tier-1 test paths, so without this check a
rename in driftlab would pass Tier-1 and only break the benchmark.  The
benchmark's files are parsed, not imported or run.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _driftlab_names():
    """Dotted paths of the driftlab names perfbench/*.py imports with
    ``from driftlab... import name``, plus each attribute it reads off one of
    them, such as ``driftlab.acceptance.CORE_CRITERIA``."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "driftlab":
                for alias in node.names:
                    imported[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        found.update(imported.values())
        found.update(f"{imported[node.value.id]}.{node.attr}" for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id in imported)
    return found


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` names an object, importing driftlab submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part):
            try:
                importlib.import_module(".".join(parts[:i]))
            except ModuleNotFoundError:
                return False
        obj = getattr(obj, part)
    return True


def test_benchmark_imports_resolve():
    names = _driftlab_names()
    # the parse must see the benchmark's imports, or the check below is empty
    assert {"driftlab.bridge_loglikelihood", "driftlab.parallel.map_replicates",
            "driftlab.simulate.euler_endpoints"} <= names
    missing = sorted(name for name in names if not _resolves(name))
    assert not missing, f"perfbench uses driftlab names that do not exist: {missing}"
