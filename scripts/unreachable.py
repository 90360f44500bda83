#!/usr/bin/env python3
"""List the top-level functions, classes and methods that `cli.main` never reaches.

    python scripts/unreachable.py src/rqss

Parses every .py file of the package directory with the standard-library
`ast` and walks by name from `cli.main`.  A reached definition reaches
every definition whose name it reads as a bare name, and every method
whose name it reads as the attribute of an attribute access (so
`obj.method()` reaches each method called `method`).  Two rules keep a
name collision from counting as a call:

- a stored name is not a read: an assignment target, or a field
  declaration such as `squeeze: float`, reaches nothing;
- an attribute read such as `cal.squeeze` reaches methods only, never a
  module-level function or class, since the package imports every
  cross-module function by its bare name.

The code of every module outside its definitions runs on import and is a
root as well; a reached class reaches its dunder methods, which Python
calls on its own.  Names are `module.function`, `module.Class` and
`module.Class.method`.  Matching by name over-approximates what is
reached: any read of a name reaches every definition of that name.
Prints each unreached name that is not in `ALLOWED` and exits 1 if there
is one.
"""

import ast
import sys
from pathlib import Path

ROOT = "cli.main"

# Unreached on purpose, each with its reason.
ALLOWED = {
    "channel.segment_channel": "bound for the benchmark harness (perfbench), which times and traces it",
    "protocol.simulate_fidelity": "the benchmark harness (perfbench) records its reference through it (make_reference.py); no workload calls it",
    "cli._Parser.error": "argparse hook: argparse calls it on a usage error",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(nodes) -> set:
    """Names read anywhere in `nodes`: bare names, and attribute names as `.name`; stored names are not read."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                found.add("." + sub.attr)
    return found


def unreachable(package) -> list:
    """Sorted names of the definitions in `package` (a directory) that `ROOT` does not reach."""
    defs = {}  # qualified name -> names its code reads
    by_name = {}  # bare name -> qualified names; `.name` -> the methods of that name
    dunders = {}  # class -> its dunder methods
    todo = []
    for path in sorted(Path(package).glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), str(path))
        todo += _reads(node for node in tree.body if not isinstance(node, _DEFS))
        for node in tree.body:
            if not isinstance(node, _DEFS):
                continue
            qual = f"{module}.{node.name}"
            by_name.setdefault(node.name, []).append(qual)
            if not isinstance(node, ast.ClassDef):
                defs[qual] = _reads([node])
                continue
            head = [*node.decorator_list, *node.bases, *node.keywords]
            defs[qual] = _reads(head + [item for item in node.body if not isinstance(item, _DEFS)])
            for item in node.body:
                if isinstance(item, _DEFS):
                    method = f"{qual}.{item.name}"
                    defs[method] = _reads([item])
                    by_name.setdefault(item.name, []).append(method)
                    by_name.setdefault("." + item.name, []).append(method)
                    if item.name.startswith("__") and item.name.endswith("__"):
                        dunders.setdefault(qual, []).append(method)
    todo = [qual for name in todo for qual in by_name.get(name, [])] + [ROOT]
    reached = set(todo)
    while todo:
        qual = todo.pop()
        for nxt in [q for name in defs.get(qual, ()) for q in by_name.get(name, [])] + dunders.get(qual, []):
            if nxt not in reached:
                reached.add(nxt)
                todo.append(nxt)
    return sorted(set(defs) - reached)


def main(argv) -> int:
    (package,) = argv
    unexpected = [name for name in unreachable(package) if name not in ALLOWED]
    for name in unexpected:
        print(f"{name}: not reached from {ROOT}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
