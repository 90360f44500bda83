"""Module boundaries and imports, read with `ast`: which module imports what, and no unused import."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rqss"


def _imports_from(module: str) -> dict:
    """{package module: names} that `rqss.<module>` imports from other rqss modules."""
    found = {}
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            found.setdefault(source.removeprefix("rqss").lstrip("."), set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("rqss."):
                    found.setdefault(alias.name.removeprefix("rqss."), set()).add("*")
    return found


def test_cli_imports_nothing_from_channel():
    # The CLI parses, writes and picks exit codes; every table is built in rqss.protocol.
    imports = _imports_from("cli")
    assert "protocol" in imports and "channel" not in imports


def test_channel_imports_no_private_name_from_modes():
    names = _imports_from("channel")["modes"]
    assert names and not [name for name in names if name.startswith("_")]


def test_channel_leaves_the_segment_walk_to_modes():
    # The walk of a u-grid (`grid_segments`) sizes its stacks by the arrays
    # `segment_maps` builds, so it lives beside them: the channel layer
    # reduces sums it is handed and never builds or sizes a map stack.
    names = _imports_from("channel")["modes"]
    assert names and not names & {"STACK_ENTRIES", "segment_maps"}


def _checker():
    spec = importlib.util.spec_from_file_location("unused_imports", ROOT / "scripts" / "unused_imports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unused_import_checker_flags_unread_names_only(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import xml.dom\n"
        "from json import dumps, loads\n"
        "from math import pi  # noqa: F401\n"
        "from math import (\n"
        "    e,\n"
        "    tau,  # noqa: F401\n"
        ")\n"
        "print(xml.dom, loads)\n"
    )
    (tmp_path / "__init__.py").write_text("from json import dumps\n")
    checker = _checker()
    assert checker.unused_imports(module) == [(2, "os"), (3, "osp"), (5, "dumps"), (8, "e")]
    assert checker.unused_imports(tmp_path / "__init__.py") == []
    assert checker.main([str(tmp_path)]) == 1
    module.write_text("import os\nos.getcwd()\n")
    assert checker.main([str(tmp_path)]) == 0
