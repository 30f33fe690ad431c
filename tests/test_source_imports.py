"""Checks on what the sources import, parsed, not imported or run.

No driftlab module reduces with scipy.special.logsumexp: scipy's costs about
120 us per call on a few hundred values, and the particle filter and the
bridge call it on every step and evaluation; ``densities.logsumexp`` is the
same arithmetic at a fraction of that cost.

No driftlab module runs scipy's Nelder-Mead: ``likelihood.nelder_mead`` is
its exact port without the per-iteration array work, and the MLE and
collocation's theta pass call it on every fit.

Every name the package exports is used by the package, its scripts or its
benchmark, so no public function is kept alive by tests alone.

numpy's floating-point state is set in one place: ``errors._fp_policy``, which
the package's entry points apply.  Kernels set none of their own, apart from
the few listed below with their reasons.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "driftlab"

# exported names no program uses yet, each with the reason it stays
UNUSED_EXPORTS_KEPT = {
    # the unit-quadratic-variation check of the planned Lamperti-space bridge
    "quadratic_variation",
}

# the np.errstate calls allowed in src, by (module, enclosing function), each with its reason
ERRSTATE_CALLS_ALLOWED = {
    ("errors.py", "_fp_policy"): "the floating-point policy itself: every event ignored",
    ("densities.py", "logsumexp"): "pinned bit for bit to scipy's, and called directly with +-inf",
    ("simulate.py", "euler_advance"): "propagates non-finite states to any caller, by its contract",
    ("simulate.py", "simulate_tv_growth"): 'over="raise" is control flow: it names the step k',
}

# the entry points that apply ``errors._fp_policy``, by module
POLICY_ENTRY_POINTS = {
    ("cli.py", "cli_run"),
    ("likelihood.py", "mle_fit"),
    ("likelihood.py", "discrete_loglikelihood"),
    ("likelihood.py", "logdensities"),  # TransitionDensity's
    ("collocation.py", "collocation_fit"),
    ("particle.py", "particle_filter"),
}


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def _scipy_uses(tree, submodule, names):
    """Line numbers where ``tree`` imports one of ``names`` from scipy.<submodule>
    or reads it off that module (``sub.name``, ``scipy.<submodule>.name``)."""
    module_names = set()
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(f"scipy.{submodule}"):
            lines += [node.lineno for alias in node.names if alias.name in names]
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            module_names.update(alias.asname or alias.name for alias in node.names
                                if alias.name == submodule)
        elif isinstance(node, ast.Import):
            module_names.update(alias.asname for alias in node.names
                                if alias.name == f"scipy.{submodule}" and alias.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in names:
            base = node.value
            if (isinstance(base, ast.Name) and base.id in module_names) or (
                    isinstance(base, ast.Attribute) and base.attr == submodule
                    and isinstance(base.value, ast.Name) and base.value.id == "scipy"):
                lines.append(node.lineno)
    return lines


def _scipy_logsumexp_uses(tree):
    return _scipy_uses(tree, "special", {"logsumexp"})


def _scipy_nelder_mead_uses(tree):
    """Line numbers of calls that ask any optimizer for method "Nelder-Mead"
    (keyword or fourth positional argument, in any case), and of uses of
    scipy.optimize's ``fmin`` or ``_minimize_neldermead``."""
    lines = _scipy_uses(tree, "optimize", {"fmin", "_minimize_neldermead"})
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            methods = [kw.value for kw in node.keywords if kw.arg == "method"] + node.args[3:4]
            if any(isinstance(m, ast.Constant) and str(m.value).lower() == "nelder-mead"
                   for m in methods):
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


def test_no_module_runs_scipy_nelder_mead():
    trees = _trees()
    found = {name: lines for name, tree in trees.items()
             if (lines := _scipy_nelder_mead_uses(tree))}
    assert not found, f"use driftlab.likelihood.nelder_mead instead of scipy's: {found}"


def test_mle_and_collocation_run_the_ported_simplex():
    # the parse must see both callers, or the check above is empty
    trees = _trees()
    assert any(isinstance(node, ast.FunctionDef) and node.name == "nelder_mead"
               for node in ast.walk(trees["likelihood.py"]))
    for name, caller in (("likelihood.py", "minimize_simplex"),
                         ("collocation.py", "collocation_fit")):
        function = next(node for node in ast.walk(trees[name])
                        if isinstance(node, ast.FunctionDef) and node.name == caller)
        assert any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == "nelder_mead" for node in ast.walk(function)), name


def test_the_nelder_mead_check_catches_each_form():
    for text in ('from scipy.optimize import minimize\nminimize(f, x0, method="Nelder-Mead")',
                 'import scipy.optimize as so\nso.minimize(f, x0, method="nelder-mead")',
                 'minimize(f, x0, (), "NELDER-MEAD")',
                 "from scipy.optimize import fmin",
                 "from scipy import optimize\noptimize.fmin(f, x0)",
                 "import scipy.optimize\nscipy.optimize.fmin(f, x0)",
                 "from scipy.optimize._optimize import _minimize_neldermead"):
        assert _scipy_nelder_mead_uses(ast.parse(text)), text
    for text in ('minimize(f, x0, method="L-BFGS-B", jac=g)',
                 "np.fmin(a, b)",
                 "from .likelihood import nelder_mead\nnelder_mead(f, x0, 400, 1e-9, 1e-10)"):
        assert not _scipy_nelder_mead_uses(ast.parse(text)), text


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


def _errstate_calls(tree):
    """The enclosing function name (None at module level) of every call to
    ``errstate`` or ``seterr``, as ``np.errstate(...)`` or a bare ``errstate(...)``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("errstate", "seterr"):
                    found.append(function)
            visit(child, function)

    visit(tree, None)
    return found


def test_only_the_policy_and_the_listed_kernels_set_numpy_error_state():
    calls = [(name, function) for name, tree in _trees().items()
             for function in _errstate_calls(tree)]
    assert Counter(calls) == Counter(ERRSTATE_CALLS_ALLOWED.keys()), (
        "set numpy's floating-point state through errors._fp_policy at an entry point, "
        f"not in a kernel: {calls}")


def test_each_entry_point_applies_the_policy():
    trees = _trees()
    applied = {(name, node.name) for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_fp_policy"
                       for d in node.decorator_list)}
    assert applied == POLICY_ENTRY_POINTS
    assert any(isinstance(node, ast.FunctionDef) and node.name == "_fp_policy"
               for node in trees["errors.py"].body)


def test_the_errstate_check_catches_a_kernel_that_sets_its_own():
    kernel = ("def record_logdensities(spec, theta, record):\n"
              "    with np.errstate(divide='ignore'):\n"
              "        return theta\n")
    for text in (kernel, kernel.replace("np.errstate", "errstate"),
                 kernel.replace("np.errstate(divide='ignore')", "np.seterr(all='ignore')")):
        assert _errstate_calls(ast.parse(text)) == ["record_logdensities"], text
    assert _errstate_calls(ast.parse("x = np.errstate(over='raise')")) == [None]
    assert not _errstate_calls(ast.parse("def f():\n    return np.geterr()"))
