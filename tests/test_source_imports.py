"""Checks on what the sources import, parsed, not imported or run.

No driftlab module reduces with scipy.special.logsumexp: scipy's costs about
120 us per call on a few hundred values, and the particle filter and the
bridge call it on every step and evaluation; ``densities.logsumexp`` is the
same arithmetic at a fraction of that cost.

Every fit steps through one damped loop, ``likelihood.descend``: the MLE, the
Gauss-Newton collocation pass and the estimating-equation solve call it, and no
other function halves a step.  scipy.optimize runs only where it is listed
below, with its method: the MLE's simplex fallback and collocation's joint
L-BFGS-B pass.

Every name the package exports, and every public function a module defines at
its top level, is used by the package, its scripts or its benchmark, so no
public function is kept alive by tests alone.

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

# module-level public functions no program calls, each with the reason it stays
UNUSED_FUNCTIONS_KEPT = {
    ("paths.py", "quadratic_variation"): "the unit-quadratic-variation check of the planned "
                                         "Lamperti-space bridge",
    ("acceptance.py", "run_all"): "the recipe of the acceptance hash: sha256 of the "
                                  "concatenated CriterionResult.to_json() of its results",
}

# the np.errstate calls allowed in src, by (module, enclosing function), each with its reason
ERRSTATE_CALLS_ALLOWED = {
    ("errors.py", "_fp_policy"): "the floating-point policy itself: every event ignored",
    ("densities.py", "logsumexp"): "pinned bit for bit to scipy's, and called directly with +-inf",
    ("simulate.py", "euler_advance"): "propagates non-finite states to any caller, by its contract",
}

# the scipy.optimize calls allowed in src, by (module, enclosing function): method and reason
OPTIMIZE_CALLS_ALLOWED = {
    ("likelihood.py", "minimize_simplex"): ("Nelder-Mead", "the MLE's fallback where descend "
                                                           "stalls, with one restart"),
    ("collocation.py", "collocation_fit"): ("L-BFGS-B", "the joint pass over (c, theta) for "
                                                        "non-Gaussian noise or a stalled "
                                                        "Gauss-Newton pass"),
}

# the entry points that apply ``errors._fp_policy``, by (module, function), each with its reason
POLICY_ENTRY_POINTS = {
    ("cli.py", "cli_run"): "every command: an overflow ends in an exit code, not a warning",
    ("likelihood.py", "mle_fit"): "the whole fit: a non-finite objective counts as +inf",
    ("likelihood.py", "discrete_loglikelihood"): "a non-finite term raises NonFiniteTermError",
    ("likelihood.py", "logdensities"): "TransitionDensity's: the terms as computed, inf or NaN",
    ("collocation.py", "collocation_fit"): "the whole fit: a non-finite objective counts as +inf",
    ("estimating.py", "ee_solve"): "the whole solve: a non-finite residual norm counts as +inf",
    ("particle.py", "particle_filter"): "non-finite states and degenerate weights raise, "
                                        "naming the step",
    ("simulate.py", "tv_growth_states"): "simulate's and diagnose's tv-growth recursion: an "
                                         "overflow raises, naming the step",
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


def test_no_module_uses_scipy_logsumexp():
    trees = _trees()
    found = {name: lines for name, tree in trees.items()
             if (lines := _scipy_logsumexp_uses(tree))}
    assert not found, f"use driftlab.densities.logsumexp instead of scipy's: {found}"


def test_filter_and_bridge_reduce_with_the_densities_logsumexp():
    # the parse must see the two call sites, or the check above is empty; the
    # filter reduces at a finite max only, by logsumexp's own shifted sum
    trees = _trees()
    for name, function in (("particle.py", "_shifted_log_sum"), ("bridge.py", "logsumexp")):
        assert any(isinstance(node, ast.ImportFrom) and node.module == "densities"
                   and node.level == 1 and function in {a.name for a in node.names}
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


def _program_files():
    """The package modules, scripts and benchmark sources, tests left out."""
    files = [path for path in SRC.glob("*.py") if path.name != "__init__.py"]
    return files + [path for folder in ("scripts", "perfbench")
                    for path in (ROOT / folder).rglob("*.py")
                    if "tests" not in path.relative_to(ROOT).parts]


def _names_read_by_programs():
    """Every name and attribute the package modules, scripts and benchmark read."""
    names = set()
    for path in _program_files():
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


def _function_uses(tree, own, modules, exports):
    """(module, name) of each top-level function a program reaches: by name in its own
    module ``own``, imported from a module, read off one (``bridge.name``) or through a
    package export (``from driftlab import name``, ``driftlab.name``)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and own:
            used.add((own, node.id))
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").rsplit(".", 1)[-1] + ".py"
            used.update((module if module in modules else exports.get(alias.name), alias.name)
                        for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = node.value.id + ".py"
            if module in modules:
                used.add((module, node.attr))
            elif node.value.id == "driftlab":
                used.add((exports.get(node.attr), node.attr))
    return used


def _functions_no_program_calls(trees, uses):
    """(module, name) of each public function defined at a module's top level that no
    program reaches."""
    return {(name, node.name) for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_") and (name, node.name) not in uses}


def test_every_public_function_is_used_by_a_program():
    # a listed function that a program starts using, or that goes, leaves the list
    trees = _trees()
    exports = {alias.asname or alias.name: f"{node.module}.py"
               for node in trees["__init__.py"].body if isinstance(node, ast.ImportFrom)
               for alias in node.names}
    uses = set()
    for path in _program_files():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        uses |= _function_uses(tree, path.name if path.parent == SRC else None, trees, exports)
    unused = _functions_no_program_calls(trees, uses)
    assert unused == set(UNUSED_FUNCTIONS_KEPT), (
        f"defined but called only by tests: {sorted(unused - set(UNUSED_FUNCTIONS_KEPT))}; "
        f"kept but used or gone: {sorted(set(UNUSED_FUNCTIONS_KEPT) - unused)}")


def test_the_function_check_catches_a_function_only_tests_call():
    # bridge.logdensities was such a function: a method of the same name, read
    # by programs, did not count as a use of it
    bridge = ast.parse("def logdensities(spec, dts, x, y, z):\n"
                       "    return record_logdensities(spec, spec.theta, prepare(dts, x, y, z))\n"
                       "def record_logdensities(spec, theta, record):\n"
                       "    return theta\n"
                       "def prepare(dts, x, y, z):\n"
                       "    return z\n"
                       "def draws(n):\n"
                       "    return n\n"
                       "def exported(n):\n"
                       "    return n\n")
    program = ast.parse("from driftlab import exported\n"
                        "from driftlab.bridge import prepare\n"
                        "from . import bridge\n"
                        "td.logdensities(prepare(1, 2, 3, bridge.draws(4)))\n")
    modules = {"bridge.py": bridge}
    exports = {"exported": "bridge.py"}
    uses = _function_uses(program, "likelihood.py", modules, exports)
    assert _functions_no_program_calls(modules, uses) == {
        ("bridge.py", "logdensities"), ("bridge.py", "record_logdensities")}
    uses |= _function_uses(bridge, "bridge.py", modules, exports)
    assert _functions_no_program_calls(modules, uses) == {("bridge.py", "logdensities")}


def _enclosing_functions(tree, match):
    """The enclosing function name (None at module level) of every node ``match`` accepts."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if match(child):
                found.append(function)
            visit(child, function)

    visit(tree, None)
    return found


def _errstate_calls(tree):
    """The enclosing function name (None at module level) of every call to
    ``errstate`` or ``seterr``, as ``np.errstate(...)`` or a bare ``errstate(...)``."""
    def match(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name in ("errstate", "seterr")

    return _enclosing_functions(tree, match)


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
    assert applied == set(POLICY_ENTRY_POINTS)
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


def _step_halvings(tree):
    """The enclosing function name of every ``x *= 0.5``."""
    return _enclosing_functions(tree, lambda node: isinstance(node, ast.AugAssign)
                                and isinstance(node.op, ast.Mult)
                                and isinstance(node.value, ast.Constant)
                                and node.value.value == 0.5)


def test_every_fit_steps_through_the_one_descend_loop():
    trees = _trees()
    halvings = [(name, function) for name, tree in trees.items()
                for function in _step_halvings(tree)]
    assert halvings == [("likelihood.py", "descend")], (
        f"halve steps in likelihood.descend, not in a loop of its own: {halvings}")
    for name, caller in (("likelihood.py", "mle_fit"), ("collocation.py", "collocation_fit"),
                         ("estimating.py", "ee_solve")):
        function = next(node for node in ast.walk(trees[name])
                        if isinstance(node, ast.FunctionDef) and node.name == caller)
        assert any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == "descend" for node in ast.walk(function)), name


def _optimize_calls(tree):
    """(enclosing function, ``method=`` string or None) of every call to a scipy.optimize
    function, imported from it (``from scipy.optimize import minimize``) or read off it
    (``optimize.minimize``, ``scipy.optimize.minimize``, ``so.minimize``)."""
    names, modules, methods = set(), {"scipy.optimize"}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy.optimize"):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            prefix = "scipy." if isinstance(node, ast.ImportFrom) and node.module == "scipy" else ""
            modules.update(alias.asname or alias.name for alias in node.names
                           if prefix + alias.name == "scipy.optimize")

    def match(node):
        func = getattr(node, "func", None)
        if not isinstance(node, ast.Call) or not (
                (isinstance(func, ast.Name) and func.id in names)
                or (isinstance(func, ast.Attribute) and ast.unparse(func.value) in modules)):
            return False
        methods.append(next((kw.value.value for kw in node.keywords if kw.arg == "method"
                             and isinstance(kw.value, ast.Constant)), None))
        return True

    return list(zip(_enclosing_functions(tree, match), methods))


def test_only_the_listed_functions_call_scipy_optimize():
    calls = [(name, function, method) for name, tree in _trees().items()
             for function, method in _optimize_calls(tree)]
    allowed = [key + (method,) for key, (method, _) in OPTIMIZE_CALLS_ALLOWED.items()]
    assert Counter(calls) == Counter(allowed), (
        f"minimize through likelihood.descend, or list the call with its reason: {calls}")


def test_the_optimize_check_catches_each_call_form():
    for text in ("from scipy.optimize import minimize\nminimize(f, x, method='Powell')",
                 "from scipy.optimize import minimize as m\nm(f, x, method='Powell')",
                 "from scipy import optimize\noptimize.minimize(f, x, method='Powell')",
                 "import scipy.optimize\nscipy.optimize.minimize(f, x, method='Powell')",
                 "import scipy.optimize as so\nso.minimize(f, x, method='Powell')"):
        assert _optimize_calls(ast.parse("def fit():\n    " + text.replace("\n", "\n    "))) \
            == [("fit", "Powell")], text
    assert _optimize_calls(ast.parse("from scipy.optimize import brentq\nbrentq(f, 0, 1)")) \
        == [(None, None)]
    assert not _optimize_calls(ast.parse("from .likelihood import minimize_simplex\n"
                                         "minimize_simplex(f, x)"))
