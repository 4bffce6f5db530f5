"""The package's exported names."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

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


# what a fresh interpreter's `import anonet.cli` may add to the modules of
# `import json, os, sys, time`: standard library modules, some of which
# `site` may have loaded already (all are needed under -S), and no circuits
CLI_IMPORTS = {
    "__future__", "_ast", "_bisect", "_csv", "_opcode", "_random", "_sha512", "_typing",
    "_weakrefset", "anonet", "anonet.catalog", "anonet.cli", "anonet.engine", "anonet.oracle",
    "anonet.protocols", "argparse", "array", "ast", "bisect", "collections.abc", "contextlib",
    "copy", "csv", "dataclasses", "dis", "gettext", "importlib", "importlib._bootstrap",
    "importlib._bootstrap_external", "importlib.machinery", "inspect", "linecache", "math",
    "opcode", "random", "token", "tokenize", "typing", "typing.io", "typing.re", "warnings",
    "weakref",
}


def test_cli_import_loads_no_circuits_until_a_circuit_kind_resolves():
    code = ("import json, os, sys, time\n"
            "before = set(sys.modules)\n"
            "import anonet.cli\n"
            "print(*sorted(set(sys.modules) - before))\n"
            "for spec in ('or', 'lsb:2', 'threshold:2:1', 'bit:1:8', 'estimate:8'):\n"
            "    anonet.cli.resolve_protocol(spec)\n"
            "print('anonet.circuits' in sys.modules)\n"
            "anonet.cli.resolve_protocol('plurality:4')\n"
            "print('anonet.circuits' in sys.modules)\n")
    src = str(Path(anonet.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    added, before_circuit, after_circuit = done.stdout.splitlines()
    assert set(added.split()) - CLI_IMPORTS == set()
    assert (before_circuit, after_circuit) == ("False", "True")


# every name the package re-exports, each resolved from its module on first use
PUBLIC_NAMES = [
    "Activation", "Graph", "RunResult", "arc_chunks", "build_graph", "clock",
    "measure_meeting_time", "run", "stream", "ProtocolDef", "bit_protocol",
    "estimate_protocol", "lsb_counter_protocol", "or_protocol", "threshold_protocol", "Circuit",
    "compile_circuit", "complete_max_tree", "evaluate", "max_gate_protocol",
    "min_gate_protocol", "parse_circuit", "plurality_protocol", "audit_memory",
    "scaling_report", "verify_exhaustive", "parse_inputs", "resolve_protocol",
]


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_a_public_name_resolves_as_an_attribute_and_by_from_import(name):
    namespace: dict = {}
    exec(f"from anonet import {name}", namespace)
    assert namespace[name] is getattr(anonet, name) is not None


def test_the_public_names_are_all_and_an_unknown_name_is_an_attribute_error():
    assert sorted(anonet.__all__) == sorted(PUBLIC_NAMES)
    for name in ("collision_count_check", "no_such_name"):
        with pytest.raises(AttributeError, match=name):
            getattr(anonet, name)
