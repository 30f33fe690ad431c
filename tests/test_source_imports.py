"""No driftlab module reduces with scipy.special.logsumexp.

scipy's logsumexp costs about 120 us per call on a few hundred values, and
the particle filter and the bridge call it on every step and evaluation;
``densities.logsumexp`` is the same arithmetic at a fraction of that cost.
The sources are parsed, not imported or run.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "driftlab"


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
