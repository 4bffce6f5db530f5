"""The package's exported names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import anonet


def test_every_exported_name_resolves():
    # each module's `__all__` resolves, and so does every name that one
    # module imports from another (`anonet/__init__.py` included); a public
    # name so imported is in its module's `__all__`
    for info in pkgutil.iter_modules(anonet.__path__):
        module = importlib.import_module(f"anonet.{info.name}")
        exported = getattr(module, "__all__", ())  # `cli` has none
        assert [name for name in exported if not hasattr(module, name)] == [], info.name
    for path in Path(anonet.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                source = importlib.import_module(f"anonet.{node.module}")
                for alias in node.names:
                    assert hasattr(source, alias.name), (path.name, alias.name)
                    assert alias.name.startswith("_") or alias.name in source.__all__, (
                        path.name, alias.name)


def test_every_module_level_import_is_used():
    # a deletion can leave behind an import that nothing reads any more;
    # `__init__.py` imports only to re-export
    for path in Path(anonet.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert sorted(imported - used) == [], path.name
