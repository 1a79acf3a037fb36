"""Static checks on the package source."""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "giantnet"

# Names that exist only from NumPy 2.0 on; pyproject.toml declares numpy>=1.24.
NUMPY2_ONLY = {
    ".mT": r"\.mT\b",
    "vecdot": r"\bvecdot\b",
    "matrix_transpose": r"\bmatrix_transpose\b",
    "np.astype": r"\bnp\.astype\b",
    "unstack": r"\bunstack\b",
}


@pytest.mark.parametrize("name", sorted(NUMPY2_ONLY))
def test_source_uses_no_numpy2_only_name(name):
    pattern = re.compile(NUMPY2_ONLY[name])
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert not hits, f"{name} needs NumPy >= 2.0:\n" + "\n".join(hits)


def test_the_floor_is_still_declared():
    # The check above is meaningful only while the package promises NumPy 1.x.
    pyproject = (SRC.parents[1] / "pyproject.toml").read_text()
    assert '"numpy>=1.24"' in pyproject


def _private_module_names(tree):
    """Names of the module-level functions, classes and assignments that start with one underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _uses(tree):
    """Every name the module reads: bare names, attributes and imported names."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_private_module_name_is_used_in_the_package():
    # A private helper that only its definition names is reachable from tests alone.
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set().union(*map(_uses, trees.values()))
    unused = [
        f"{module[:-3]}.{name}" for module, tree in trees.items() for name in sorted(_private_module_names(tree) - used)
    ]
    assert not unused, "private names referenced only at their definition: " + ", ".join(unused)


# The batched Cholesky kernels. Every other module reaches the local inverse
# Hessians through AgentFamily.newton_directions; __init__ only re-exports them.
CHOLESKY_KERNELS = {"spd_factorize_stack", "spd_solve_stack"}
KERNEL_MODULES = {"numerics.py", "objectives.py", "__init__.py"}


def test_only_numerics_and_objectives_name_the_cholesky_kernels():
    hits = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in KERNEL_MODULES
        for name in sorted(_uses(ast.parse(path.read_text())) & CHOLESKY_KERNELS)
    ]
    assert not hits, "Cholesky kernels named outside numerics and objectives: " + ", ".join(hits)


# The package's promise (cli's module docstring, README): no environment variable is read or set.
ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def _environment_uses(tree):
    """``os.<name>`` attributes and ``from os import <name>`` imports of an environment function or mapping."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            names = [alias.name for alias in node.names]
        else:
            continue
        hits += [f"{node.lineno}: os.{name}" for name in names if name in ENVIRONMENT_NAMES]
    return hits


def test_no_module_reads_the_environment():
    hits = [
        f"{path.name}:{hit}"
        for path in sorted(SRC.glob("*.py"))
        for hit in _environment_uses(ast.parse(path.read_text()))
    ]
    assert not hits, "environment access in the package: " + ", ".join(hits)


def test_environment_check_sees_each_form():
    source = "import os\nfrom os import getenv, path\nos.environ['A']\nos.putenv('A', '1')\nos.path.join('a')\n"
    assert _environment_uses(ast.parse(source)) == ["2: os.getenv", "3: os.environ", "4: os.putenv"]


def _srclines():
    path = SRC.parents[1] / "tools" / "srclines.py"
    spec = importlib.util.spec_from_file_location("srclines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_srclines_splits_docstring_lines_from_the_rest():
    source = '''"""Module docstring,
over two lines."""

import os  # a comment

X = "a string that is no docstring"


class A:
    """Class docstring."""

    def f(self):
        """Method docstring
        over three
        lines."""
        return 1


async def g():
    pass
'''
    assert _srclines().count(source) == (6, 14)

