"""Every name a module exports in __all__ has a caller in the program.

The program is src/mocktrace, bench/ and tools/; the tests do not count, so
a name that only its own tests call fails here.  The files are parsed, never
imported or written.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mocktrace"
PROGRAM = [PACKAGE, ROOT / "bench", ROOT / "tools"]


def _is_all(node: ast.stmt) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _exports(tree: ast.Module) -> list[str]:
    return [elt.value for node in tree.body if _is_all(node) for elt in node.value.elts]


def _reads(tree: ast.Module) -> set[str]:
    """Names read in tree, except inside their own top-level definition and __all__.

    A read is a loaded name, an attribute, or a string constant equal to the
    name, as bench/tracer.py names the functions it wraps."""
    found = set()
    for top in tree.body:
        if _is_all(top):
            continue
        here = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                here.add(node.id)
            elif isinstance(node, ast.Attribute):
                here.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                here.add(node.value)
        found |= here - {getattr(top, "name", None)}
    return found


def unreached_exports() -> list[str]:
    trees = [ast.parse(path.read_text(), str(path))
             for folder in PROGRAM for path in sorted(folder.rglob("*.py"))]
    reached = set().union(*map(_reads, trees))
    return sorted(name for tree in trees for name in _exports(tree) if name not in reached)


def test_every_export_is_reached():
    unreached = unreached_exports()
    assert not unreached, f"exported, but nothing in the program reads: {', '.join(unreached)}"


def test_scan_sees_the_package():
    # the scan would pass vacuously on a tree it could not read
    exports = {name for path in PACKAGE.glob("*.py") for name in _exports(ast.parse(path.read_text()))}
    assert {"prop1_lhs", "trace", "coeff_a", "chi_D", "bessel_I_vec"} <= exports
