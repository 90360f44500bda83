#!/usr/bin/env python3
"""List the imported names that a module never uses.

    python scripts/unused_imports.py src/rqss tests scripts perfbench

Parses every .py file under the given paths with the standard-library
`ast`.  An imported name counts as used when the module reads it anywhere
(a bare name, or the base of an attribute).  Skipped: `__init__.py` files,
whose imports are re-exports; `from __future__` imports; and any name
imported on a line marked `# noqa: F401`.  Prints `file:line: name` per
unused name and exits 1 if there is one.
"""

import ast
import sys
from pathlib import Path


def unused_imports(path) -> list:
    """(line, name) of each name that the module at `path` imports and never reads."""
    path = Path(path)
    if path.name == "__init__.py":
        return []
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).partition(".")[0]  # `import a.b` binds `a`
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                found.append((alias.lineno, name))
    return sorted(found)


def main(argv) -> int:
    files = sorted(f for p in map(Path, argv) for f in ([p] if p.is_file() else p.rglob("*.py")))
    unused = [(f, line, name) for f in files for line, name in unused_imports(f)]
    for f, line, name in unused:
        print(f"{f}:{line}: {name} imported and never used")
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
