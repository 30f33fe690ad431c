"""Checks on what the sources import, parsed, not imported or run.

No driftlab module reduces with scipy.special.logsumexp: scipy's costs about
120 us per call on a few hundred values, and the particle filter and the
bridge call it on every step and evaluation; ``densities.logsumexp`` is the
same arithmetic at a fraction of that cost.

Every name the package exports is used by the package, its scripts or its
benchmark, so no public function is kept alive by tests alone.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "driftlab"

# exported names no program uses yet, each with the reason it stays
UNUSED_EXPORTS_KEPT = {
    # the unit-quadratic-variation check of the planned Lamperti-space bridge
    "quadratic_variation",
}


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def _scipy_logsumexp_uses(tree):
    """Line numbers where ``tree`` imports logsumexp from scipy.special or
    reads it off scipy.special (``special.logsumexp``, ``scipy.special.logsumexp``)."""
    special_names = set()
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy.special"):
            lines += [node.lineno for alias in node.names if alias.name == "logsumexp"]
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            special_names.update(alias.asname or alias.name for alias in node.names
                                 if alias.name == "special")
        elif isinstance(node, ast.Import):
            special_names.update(alias.asname for alias in node.names
                                 if alias.name == "scipy.special" and alias.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "logsumexp":
            base = node.value
            if (isinstance(base, ast.Name) and base.id in special_names) or (
                    isinstance(base, ast.Attribute) and base.attr == "special"
                    and isinstance(base.value, ast.Name) and base.value.id == "scipy"):
                lines.append(node.lineno)
    return lines


def test_no_module_uses_scipy_logsumexp():
    trees = _trees()
    found = {name: lines for name, tree in trees.items()
             if (lines := _scipy_logsumexp_uses(tree))}
    assert not found, f"use driftlab.densities.logsumexp instead of scipy's: {found}"


def test_filter_and_bridge_reduce_with_the_densities_logsumexp():
    # the parse must see the two call sites, or the check above is empty
    trees = _trees()
    for name in ("particle.py", "bridge.py"):
        assert any(isinstance(node, ast.ImportFrom) and node.module == "densities"
                   and node.level == 1 and "logsumexp" in {a.name for a in node.names}
                   for node in ast.walk(trees[name])), name


def test_the_check_catches_each_import_form():
    for text in ("from scipy.special import logsumexp",
                 "from scipy.special import gammaln, logsumexp as lse",
                 "from scipy.special._logsumexp import logsumexp",
                 "from scipy import special\nspecial.logsumexp([0.0])",
                 "import scipy.special as sp\nsp.logsumexp([0.0])",
                 "import scipy.special\nscipy.special.logsumexp([0.0])"):
        assert _scipy_logsumexp_uses(ast.parse(text)), text
    assert not _scipy_logsumexp_uses(ast.parse("from .densities import logsumexp"))


def _package_exports():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _names_read_by_programs():
    """Every name and attribute the package modules, scripts and benchmark read."""
    files = [path for path in SRC.glob("*.py") if path.name != "__init__.py"]
    files += [path for folder in ("scripts", "perfbench") for path in (ROOT / folder).rglob("*.py")
              if "tests" not in path.relative_to(ROOT).parts]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_is_used_by_a_program():
    unused = _package_exports() - _names_read_by_programs() - UNUSED_EXPORTS_KEPT
    assert not unused, f"exported but used only by tests: {sorted(unused)}"


def test_kept_exports_are_still_exported_and_unused():
    # an allowlisted name that a program starts using, or that the package
    # stops exporting, leaves the list
    assert UNUSED_EXPORTS_KEPT <= _package_exports()
    assert not UNUSED_EXPORTS_KEPT & _names_read_by_programs()
