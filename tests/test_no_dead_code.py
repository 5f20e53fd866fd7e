"""Every module-level private function and class of src/htss has a caller,
and every module-level UPPER_CASE constant a reader."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "htss"


def _unreferenced(defined) -> list[str]:
    """module:name of each name defined(stmt) gives for a top-level statement
    of src/htss that no other top-level statement reads. A definition's own
    body (its recursion, say) does not count as a reference to it."""
    stmts = [(path.name, stmt) for path in sorted(SRC.glob("*.py"))
             for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    reads = [{n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
              if isinstance(n, ast.Attribute)
              or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} for _, stmt in stmts]
    return [f"{module}:{name}" for i, (module, stmt) in enumerate(stmts) for name in defined(stmt)
            if not any(name in r for j, r in enumerate(reads) if j != i)]


def test_every_private_function_and_class_is_referenced():
    unused = _unreferenced(lambda stmt: [stmt.name] if (
        isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_") and not stmt.name.startswith("__")) else [])
    assert not unused, f"no code in src/htss refers to {unused}"


def test_every_module_constant_is_read():
    # an assignment's target is a store, not a read, so a constant read
    # nowhere else fails, also once its last reader is gone
    def constants(stmt):
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
        return [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]

    unread = _unreferenced(constants)
    assert not unread, f"no code in src/htss reads {unread}"
