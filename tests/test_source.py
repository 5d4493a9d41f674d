"""Checks on the package source itself."""

import ast
from pathlib import Path

import monocat

PACKAGE = Path(monocat.__file__).parent


def test_no_bare_assert_in_the_package():
    # python -O strips assert statements; every theorem check is an
    # errors.require or a typed error instead, so that it survives -O
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert sorted(PACKAGE.glob("*.py")) and not found, found


def _is_reindexed_entry(node) -> bool:
    """Whether ``node`` has the form ``X[T[i][j]]``: a table entry renamed."""
    return (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Subscript)
            and isinstance(node.slice.value, ast.Subscript))


def _reindexing_comprehensions(tree):
    """The line of every comprehension that builds rows (a comprehension,
    or ``tuple``/``list`` of one) whose entries are ``X[T[i][j]]``."""
    comprehensions = (ast.ListComp, ast.GeneratorExp)
    for node in ast.walk(tree):
        if not isinstance(node, comprehensions):
            continue
        row = node.elt
        if (isinstance(row, ast.Call) and isinstance(row.func, ast.Name)
                and row.func.id in ("tuple", "list") and len(row.args) == 1):
            row = row.args[0]
        if isinstance(row, comprehensions) and _is_reindexed_entry(row.elt):
            yield node.lineno


def test_tables_are_reindexed_by_core_alone():
    # core.reindexed is the one routine that reads a table at new positions;
    # a nested comprehension of X[T[i][j]] elsewhere is a second copy of it
    found = [f"{path.name}:{line}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "core.py"
             for line in _reindexing_comprehensions(ast.parse(path.read_text(), filename=str(path)))]
    assert not found, found


def test_the_reindexing_guard_sees_both_spellings():
    spellings = ["tuple(tuple(pos[t[a][b]] for b in cols) for a in rows)",
                 "[[inv[old[p[i]][q[j]]] for j in range(n)] for i in range(m)]",
                 "[list(ix[t[a][b]] for b in cols) for a in rows]"]
    innocent = ["tuple(tuple(t[a][b] for b in cols) for a in rows)",
                "[[index[(i, m)] for m in cols] for i in rows]",
                "tuple(pos[t[a][b]] for a, b in pairs)"]
    assert all(list(_reindexing_comprehensions(ast.parse(code))) for code in spellings)
    assert not any(list(_reindexing_comprehensions(ast.parse(code))) for code in innocent)
