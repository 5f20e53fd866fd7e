"""Every module-level private function and class of src/htss has a caller."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "htss"


def test_every_private_function_and_class_is_referenced():
    # one entry per top-level statement; a definition's own body (its
    # recursion, say) does not count as a reference to it
    stmts = [(path.name, stmt) for path in sorted(SRC.glob("*.py"))
             for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    names = [{n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
              if isinstance(n, (ast.Name, ast.Attribute))} for _, stmt in stmts]
    unused = [f"{module}:{stmt.name}" for i, (module, stmt) in enumerate(stmts)
              if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
              and stmt.name.startswith("_") and not stmt.name.startswith("__")
              and not any(stmt.name in n for j, n in enumerate(names) if j != i)]
    assert not unused, f"no code in src/htss refers to {unused}"
