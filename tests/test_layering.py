"""Each module of the package imports only modules below it in one order,
the solver module imports nothing that only the theorems need, no module
keeps a decision threshold outside Tolerances, no module traps
floating-point errors, and only the CLI reads the environment."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "altiter"
LAYERS = (
    "errors", "kernel", "mmio", "ginverse", "splittings",
    "alternating", "bench", "analysis", "catalog", "cli",
)


def imports(module: str) -> tuple[set[str], set[str]]:
    """(package modules imported, names imported from them) by src/altiter/<module>.py,
    which imports the package relatively."""
    modules, names = set(), set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "altiter" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            assert (node.module or "").split(".")[0] != "altiter"
        elif isinstance(node, ast.ImportFrom) and node.module:  # from .x import y
            modules.add(node.module.split(".")[0])
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):  # from . import x
            modules.update(alias.name for alias in node.names)
    return modules, names


def test_every_module_has_a_layer():
    found = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert found == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_only_earlier_layers(module):
    modules, _ = imports(module)
    assert modules <= set(LAYERS[: LAYERS.index(module)])


def test_solver_module_imports_nothing_only_the_theorems_need():
    _, names = imports("alternating")
    assert names.isdisjoint({
        "CrossCheckError", "HypothesisViolationError", "NotProperSplittingError",
        "SplittingClass", "is_nonneg", "rel_residual",
    })


ARITHMETIC = (ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop)


def module_fractions(module: str) -> set[str]:
    """Names that src/altiter/<module>.py binds at module level to a constant
    expression (numbers and arithmetic on them) evaluating to a float in (0, 1)."""
    found = set()
    for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if not all(isinstance(n, ARITHMETIC) for n in ast.walk(value)):
            continue
        number = eval(compile(ast.Expression(value), module, "eval"), {"__builtins__": {}})
        if isinstance(number, float) and 0.0 < number < 1.0:
            found.update(t.id for t in targets if isinstance(t, ast.Name))
    return found


@pytest.mark.parametrize("module", ("__init__",) + LAYERS)
def test_every_threshold_comes_from_tolerances(module):
    # the one module-level fraction is an underflow guard, not a decision
    allowed = {"_TINY_NORM"} if module == "kernel" else set()
    assert module_fractions(module) == allowed


def traps_floating_point_errors(module: str) -> list[int]:
    """Lines of src/altiter/<module>.py that name FloatingPointError or call
    errstate with a "raise" argument."""
    lines = []
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Name) and node.id == "FloatingPointError":
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "errstate":
            values = node.args + [kw.value for kw in node.keywords]
            if any(isinstance(v, ast.Constant) and v.value == "raise" for v in values):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("module", ("__init__",) + LAYERS)
def test_no_module_traps_floating_point_errors(module):
    # an overflowing product raises NumericFailureError where it is formed
    assert traps_floating_point_errors(module) == []


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def reads_environment(module: str) -> bool:
    """Whether src/altiter/<module>.py names any of ENVIRONMENT, e.g. os.environ."""
    return any(
        (node.attr if isinstance(node, ast.Attribute) else node.id) in ENVIRONMENT
        for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text()))
        if isinstance(node, (ast.Attribute, ast.Name))
    )


@pytest.mark.parametrize("module", ("__init__",) + LAYERS)
def test_only_the_cli_reads_the_environment(module):
    # cli.main reads the ALTITER_* overrides once per call; the library takes a Tolerances
    assert reads_environment(module) == (module == "cli")
