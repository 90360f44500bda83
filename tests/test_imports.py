"""Module boundaries read with `ast`: which module imports what, no unused import, no unreached definition."""

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


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
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
    checker = _script("unused_imports")
    assert checker.unused_imports(module) == [(2, "os"), (3, "osp"), (5, "dumps"), (8, "e")]
    assert checker.unused_imports(tmp_path / "__init__.py") == []
    assert checker.main([str(tmp_path)]) == 1
    module.write_text("import os\nos.getcwd()\n")
    assert checker.main([str(tmp_path)]) == 0


def test_unreached_definitions_fail_the_reachability_check(tmp_path, capsys):
    (tmp_path / "cli.py").write_text(
        "from .tools import Tool\n"
        "def main():\n"
        "    return Tool().run()\n"
    )
    (tmp_path / "tools.py").write_text(
        "LIMIT = clamp(3)\n"  # module code runs on import, so it reaches `clamp`
        "def clamp(x):\n"
        "    return x\n"
        "def orphan():\n"
        "    return main()\n"  # reads `main`, but nothing reads `orphan`
        "class Tool:\n"
        "    def __init__(self):\n"  # called by Python when the class is reached
        "        self.n = 1\n"
        "    def run(self):\n"
        "        return self.n\n"
        "    def spare(self):\n"
        "        return 0\n"
    )
    checker = _script("unreachable")
    assert checker.unreachable(tmp_path) == ["tools.Tool.spare", "tools.orphan"]
    assert checker.main([str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "tools.Tool.spare: not reached from cli.main",
        "tools.orphan: not reached from cli.main",
    ]


def test_a_method_reached_only_by_attribute_name_passes_the_reachability_check(tmp_path):
    (tmp_path / "cli.py").write_text("from .report import Report\ndef main():\n    return Report().summary()\n")
    (tmp_path / "report.py").write_text("class Report:\n    def summary(self):\n        return 'ok'\n")
    checker = _script("unreachable")
    assert checker.unreachable(tmp_path) == []
    assert checker.main([str(tmp_path)]) == 0


def test_the_package_leaves_exactly_the_allowed_names_unreached():
    checker = _script("unreachable")
    assert checker.unreachable(PACKAGE) == sorted(checker.ALLOWED)
    assert all(checker.ALLOWED.values())
