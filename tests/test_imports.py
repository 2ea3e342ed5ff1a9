"""No module of the package or of its tests imports a name it never uses.

No linter ships with the project, so this reads each file's syntax tree:
a name bound by ``import`` or ``from ... import`` must be read somewhere
in the same file. ``__init__.py`` files re-export and are skipped, and so
are ``from __future__`` imports.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def unused_imports(source):
    """The names imported in ``source`` and never read there."""
    tree = ast.parse(source)
    imported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, (ast.Name, ast.Attribute)):
            # every prefix of a dotted read such as ``scipy.linalg.solve``
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name):
                dotted = [node.id, *reversed(parts)]
                read.update(".".join(dotted[:i + 1])
                            for i in range(len(dotted)))
    return sorted(imported - read)


def test_no_unused_imports():
    files = [p for pattern in ("src/warpski/*.py", "tests/*.py")
             for p in sorted(ROOT.glob(pattern)) if p.name != "__init__.py"]
    assert files
    unused = {str(p.relative_to(ROOT)): names for p in files
              if (names := unused_imports(p.read_text()))}
    assert unused == {}
