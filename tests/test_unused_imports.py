"""No module of the package imports a name at module level that it never
uses. ``__init__.py``'s ``from . import ...`` lines load the modules for
their side effect and are exempt."""

import ast
from pathlib import Path

import fibervox

PACKAGE = Path(fibervox.__file__).parent


def unused_imports(source: str, module_loads: bool = False) -> list[str]:
    """Names bound by the module-level imports of ``source`` that no ``Name``
    node reads; ``import a.b`` binds ``a``. With ``module_loads``, relative
    ``from . import`` lines are skipped."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            if not (module_loads and node.level and node.module is None):
                bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_imports_sees_an_unused_name():
    source = "from . import a\nimport os.path\nimport sys\nfrom x import y as z\nsys.exit(0)\n"
    assert unused_imports(source) == ["a", "os", "z"]
    assert unused_imports(source, module_loads=True) == ["os", "z"]


def test_package_modules_use_every_import():
    unused = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in unused_imports(path.read_text(encoding="utf-8"),
                                         module_loads=path.name == "__init__.py")]
    assert unused == []
