"""The public surface of `imfsim` holds only what something uses.

A top-level public function or class in `src/imfsim/*.py` must be named
somewhere else: in another statement of the package (imports in
`__init__.py` do not count), anywhere in `bench/` (a string constant equal
to the name counts, as in a tracing table), or in the acceptance tests.
A public method or property of a public top-level class must be named in
the same places; in the package only an attribute (`x.name`) outside its
own definition counts, as a bare name there is some other variable.  A
helper that only its own unit tests call fails this test; delete it or move
it to `tests/oracles.py`.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _names(node: ast.AST, strings: bool = False) -> set[str]:
    """Identifiers a syntax tree refers to: names, attributes, imported names
    and, when `strings` is set, string constants."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _attributes(node: ast.AST) -> set[str]:
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def unused_public_names(root: Path = ROOT) -> list[str]:
    """Public top-level names of root/src/imfsim, and public members
    (Class.member) of its public top-level classes, that nothing else names."""
    used: set[str] = set()
    for path in sorted((root / "bench").rglob("*.py")):
        used |= _names(_parse(path), strings=True)
    used |= _names(_parse(root / "tests" / "test_acceptance.py"))

    defined: list[ast.stmt] = []
    statements: list[ast.stmt] = []
    for path in sorted((root / "src" / "imfsim").glob("*.py")):
        for stmt in _parse(path).body:
            if path.name == "__init__.py" and isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            statements.append(stmt)
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                defined.append(stmt)
    names = {id(stmt): _names(stmt) for stmt in statements}
    unused = [own.name for own in defined if own.name not in used and not any(
        own.name in names[id(stmt)] for stmt in statements if stmt is not own)]

    for cls in (own for own in defined if isinstance(own, ast.ClassDef)):
        outside = used.union(*(_attributes(stmt) for stmt in statements if stmt is not cls))
        for member in cls.body:
            if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not member.name.startswith("_")
                    and member.name not in outside.union(
                        *(_attributes(stmt) for stmt in cls.body if stmt is not member))):
                unused.append(f"{cls.name}.{member.name}")
    return sorted(unused)


def test_every_public_name_is_used_outside_unit_tests():
    unused = unused_public_names()
    assert not unused, f"public names that only unit tests use: {', '.join(unused)}"


def test_surface_check_names_an_unused_helper(tmp_path):
    """A copy of the package with an extra public function, class and
    property fails, by name."""
    package = tmp_path / "src" / "imfsim"
    package.mkdir(parents=True)
    for path in (ROOT / "src" / "imfsim").glob("*.py"):
        (package / path.name).write_bytes(path.read_bytes())
    with open(package / "metrics.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef only_tests_call_this():\n    return only_tests_call_this\n"
                 "\n\nclass OnlyTestsUseThis:\n    @property\n"
                 "    def only_tests_read_this(self):\n        return self.only_tests_read_this\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_acceptance.py").write_bytes(
        (ROOT / "tests" / "test_acceptance.py").read_bytes())
    (tmp_path / "bench").symlink_to(ROOT / "bench")
    assert unused_public_names(tmp_path) == sorted(
        unused_public_names() + ["OnlyTestsUseThis", "OnlyTestsUseThis.only_tests_read_this",
                                 "only_tests_call_this"])
