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


def _is_range_loop(node) -> bool:
    return (isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
            and isinstance(node.iter.func, ast.Name) and node.iter.func.id == "range")


def _triple_range_loops(tree):
    """The line of every ``for … in range(…)`` loop inside two others of the
    same function: the shape of an exhaustive scan over triples."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def walk(node, depth):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, functions):
                yield from walk(child, 0)
                continue
            loop = _is_range_loop(child)
            if loop and depth == 2:
                yield child.lineno
            yield from walk(child, depth + loop)

    yield from walk(tree, 0)


def test_associativity_is_scanned_by_core_alone():
    # core.first_violation is the one scan of (x*y)*z against x*(y*z); a
    # range loop three deep elsewhere is a second copy of it
    found = [f"{path.name}:{line}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "core.py"
             for line in _triple_range_loops(ast.parse(path.read_text(), filename=str(path)))]
    assert not found, found


def test_the_scan_guard_sees_both_spellings():
    spellings = ["def f(n):\n"
                 "    for i in range(n):\n"
                 "        for j in range(n):\n"
                 "            for k in range(n):\n"
                 "                pass\n",
                 "def f(sizes, patterns):\n"
                 "    for p in patterns:\n"
                 "        for i in range(sizes[0]):\n"
                 "            row = i\n"
                 "            for j in range(sizes[1]):\n"
                 "                if row:\n"
                 "                    for k in range(sizes[2]):\n"
                 "                        pass\n"]
    innocent = ["def f(n):\n"
                "    for i in range(n):\n"
                "        for j in range(n):\n"
                "            pass\n",
                "def f(xs, ys, zs):\n"
                "    for x in xs:\n"
                "        for y in ys:\n"
                "            for z in zs:\n"
                "                pass\n"]
    assert all(list(_triple_range_loops(ast.parse(code))) for code in spellings)
    assert not any(list(_triple_range_loops(ast.parse(code))) for code in innocent)


# the functions that build values from outside input; like the whole CLI, they
# must build through the checking constructors
LOADERS = ("parse_cayley", "validate_semigroup", "validate_bimodule",
           "category_from_json_dict", "rees_from_json_dict")
# core.trusted, and twocat's wrapper of it for categories
PRIVATE_CONSTRUCTORS = ("trusted", "_category")


def _loader_bodies(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in LOADERS]


def _private_constructor_references(root):
    """The line of every name, attribute or import of a private constructor
    under ``root``."""
    for node in ast.walk(root):
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else
                node.name if isinstance(node, ast.alias) else None)
        if name in PRIVATE_CONSTRUCTORS:
            yield node.lineno


def _unchecked_input(path_name: str, tree):
    roots = [tree] if path_name == "cli.py" else _loader_bodies(tree)
    return [line for root in roots for line in _private_constructor_references(root)]


def test_outside_input_reaches_only_the_checking_constructors():
    # core.trusted skips the constructors' checks, for values derived from
    # checked ones; no loader and nothing in the CLI may call it
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    loaders = {node.name for tree in trees.values() for node in _loader_bodies(tree)}
    found = [f"{name}:{line}" for name, tree in trees.items() for line in _unchecked_input(name, tree)]
    assert loaders == set(LOADERS) and "cli.py" in trees and not found, found


def test_the_input_guard_sees_both_spellings():
    guilty = [("core.py", "def parse_cayley(text):\n"
                          "    return core.trusted(FiniteSemigroup, table=rows, labels=None)\n"),
              ("cli.py", "from .core import trusted\n")]
    innocent = [("core.py", "def adjoin_identity(s):\n"
                            "    return trusted(Monoid, base=base, identity=n)\n"),
                ("core.py", "def parse_cayley(text):\n"
                            "    trusted_rows = rows  # not the constructor\n"
                            "    return validate_semigroup(trusted_rows)\n")]
    assert all(_unchecked_input(name, ast.parse(code)) for name, code in guilty)
    assert not any(_unchecked_input(name, ast.parse(code)) for name, code in innocent)


def _calls(tree, callee: str):
    """The line of every call of ``callee`` or ``<module>.callee``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == callee:
                yield node.lineno


def _group_handle_calls(tree):
    return _calls(tree, "GroupHandle")


def test_group_handles_are_built_in_ideals_alone():
    # ideals keeps each kernel group, checked once, and hands it out through
    # group_of; a GroupHandle built elsewhere checks a kept group again
    found = [f"{path.name}:{line}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "ideals.py"
             for line in _group_handle_calls(ast.parse(path.read_text(), filename=str(path)))]
    assert not found, found


def test_the_group_handle_guard_sees_both_spellings():
    spellings = ["GroupHandle(Subset(s, gset), e)", "ideals.GroupHandle(subset, identity)"]
    innocent = ["group_of(s)", "isinstance(g, GroupHandle)", "trusted(GroupHandle, subset=x)"]
    assert all(list(_group_handle_calls(ast.parse(code))) for code in spellings)
    assert not any(list(_group_handle_calls(ast.parse(code))) for code in innocent)


def test_two_sided_multiples_are_the_ideals_alone():
    # ideals builds S¹aS¹ for the kernel and the principal two-sided ideals;
    # twocat.extract_simple decides simplicity by is_simple, which settles
    # the recovery argument, so no other module builds one
    found = [f"{path.name}:{line}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "ideals.py"
             for line in _calls(ast.parse(path.read_text(), filename=str(path)),
                                "two_sided_multiples")]
    assert not found, found


def test_the_multiples_guard_sees_both_spellings():
    spellings = ["two_sided_multiples(sub.table, a)", "ideals.two_sided_multiples(t, z)",
                 "all(r in two_sided_multiples(t, a) for a in range(n))"]
    innocent = ["is_simple(sub)", "f = two_sided_multiples", "from .ideals import two_sided_multiples",
                "_principal(s, a, two_sided_multiples, TWO_SIDED)"]
    assert all(list(_calls(ast.parse(code), "two_sided_multiples")) for code in spellings)
    assert not any(list(_calls(ast.parse(code), "two_sided_multiples")) for code in innocent)


def test_partition_is_the_tensors_alone():
    # a group's orbits come from core.orbits; the union-find core.partition
    # is for the tensor, whose middle monoid need not be a group
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    found = [(name, line) for name, tree in trees.items() for line in _calls(tree, "partition")]
    tensor = next(node for node in ast.walk(trees["bimodule.py"])
                  if isinstance(node, ast.FunctionDef) and node.name == "tensor")
    in_tensor = [("bimodule.py", line) for line in _calls(tensor, "partition")]
    assert in_tensor and found == in_tensor, found


def test_the_partition_guard_sees_both_spellings():
    spellings = ["partition(n, links)", "core.partition(s.n, pairs)"]
    innocent = ["orbits(left, images)", "parts = partition", "from .core import partition"]
    assert all(list(_calls(ast.parse(code), "partition")) for code in spellings)
    assert not any(list(_calls(ast.parse(code), "partition")) for code in innocent)


def _is_every_element(s, gens) -> bool:
    """Whether ``gens`` is spelled ``range(s.n)``."""
    return (isinstance(gens, ast.Call) and isinstance(gens.func, ast.Name)
            and gens.func.id == "range" and len(gens.args) == 1 and not gens.keywords
            and isinstance(gens.args[0], ast.Attribute) and gens.args[0].attr == "n"
            and ast.dump(gens.args[0].value) == ast.dump(s))


def _is_name(node, name: str) -> bool:
    """Whether ``node`` spells ``name`` or ``<module>.name``."""
    return ((isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name))


def _calls_in_functions(tree):
    """``(function, call)`` for every call under ``tree``, with the name of
    the innermost function around it (None at module level)."""
    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
                continue
            if isinstance(child, ast.Call):
                yield function, child
            yield from walk(child, function)

    yield from walk(tree, None)


def _short_certificates(tree):
    """``(function, line)`` of every call of the Rees decomposition
    ``_decompose(s, gens)`` whose ``gens`` is not spelled ``range(s.n)``:
    a certificate on fewer than every element of ``s``."""
    for function, call in _calls_in_functions(tree):
        args = call.args + [kw.value for kw in call.keywords]
        if _is_name(call.func, "_decompose") and not (len(args) == 2 and _is_every_element(*args)):
            yield function, call.lineno


def test_a_short_certificate_is_the_round_trips_and_the_suites_alone():
    # a mapping certified on a generating set is an isomorphism only when the
    # decomposed table is associative; the public decomposition takes tables
    # that need not be, so it and every other caller pass every element
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    found = {(name, function) for name, tree in trees.items()
             for function, _ in _short_certificates(tree)}
    assert found == {("rees.py", "rees_round_trip"), ("cli.py", "_suite_entry")}, found


def test_the_certificate_guard_sees_both_spellings():
    spellings = ["def f(s):\n    return _decompose(s, word_generators(s.table))\n",
                 "def f(s, t):\n    rees._decompose(s, gens=range(t.n))\n",
                 "_decompose(sub, [0, 1])\n"]
    innocent = ["def f(s):\n    return _decompose(s, range(s.n))\n",
                "def f(sub):\n    rees._decompose(sub, gens=range(sub.n))\n",
                "def f(s):\n    return decompose(s, word_generators(s.table))\n"]
    assert all(list(_short_certificates(ast.parse(code))) for code in spellings)
    assert not any(list(_short_certificates(ast.parse(code))) for code in innocent)


def _builds(tree, cls: str):
    """``(function, by_trusted)`` for every call that builds ``cls``:
    ``cls(…)``, or ``trusted(cls, …)`` with ``by_trusted`` set; either name
    may be spelled ``<module>.name``."""
    for function, call in _calls_in_functions(tree):
        if _is_name(call.func, cls):
            yield function, False
        elif _is_name(call.func, "trusted") and call.args and _is_name(call.args[0], cls):
            yield function, True


def test_a_rees_table_becomes_a_semigroup_in_expand_alone():
    # every Rees structure holds a checked group, so its table is associative:
    # expand is the one expansion and trusts it, and rees runs Light's test on
    # group tables alone (the constructor, the public decomposition, the loader)
    tree = ast.parse((PACKAGE / "rees.py").read_text())
    built = {function for function, _ in _builds(tree, "FiniteSemigroup")}
    validated = {function for function, call in _calls_in_functions(tree)
                 if _is_name(call.func, "validate_semigroup")}
    assert built == {"expand"}, built
    assert validated == {"__post_init__", "rees_decomposition", "rees_from_json_dict"}, validated


def test_the_expansion_guard_sees_both_spellings():
    spellings = ["def f(t):\n    return FiniteSemigroup(t)\n",
                 "core.FiniteSemigroup(rows, labels)\n",
                 "def f(rms):\n    return trusted(FiniteSemigroup, table=rms.table, labels=None)\n",
                 "core.trusted(core.FiniteSemigroup, table=t, labels=None)\n"]
    innocent = ["isinstance(s, FiniteSemigroup)\n",
                "trusted(Monoid, base=base, identity=e)\n",
                "def f(s: FiniteSemigroup):\n    return as_semigroup(s)\n"]
    found = [list(_builds(ast.parse(code), "FiniteSemigroup")) for code in spellings]
    assert found == [[("f", False)], [(None, False)], [("f", True)], [(None, True)]]
    assert not any(list(_builds(ast.parse(code), "FiniteSemigroup")) for code in innocent)


def test_a_trusted_rees_structure_is_built_in_decompose_alone():
    # the constructor checks the group; only the decomposition, whose group
    # ideals kept, builds a structure without it
    found = {(path.name, function) for path in sorted(PACKAGE.glob("*.py"))
             for function, by_trusted in _builds(ast.parse(path.read_text()), "ReesMatrixSemigroup")
             if by_trusted}
    assert found == {("rees.py", "_decompose")}, found


def test_the_trusted_structure_guard_sees_both_spellings():
    spellings = ["def _decompose(s):\n    return trusted(ReesMatrixSemigroup, group=g)\n",
                 "core.trusted(rees.ReesMatrixSemigroup, group=g, i_count=1)\n"]
    innocent = ["ReesMatrixSemigroup(group, 1, 1, ((0,),))\n",
                "trusted(FiniteSemigroup, table=rms.table, labels=None)\n",
                "isinstance(rms, ReesMatrixSemigroup)\n"]
    found = [[b for b in _builds(ast.parse(code), "ReesMatrixSemigroup") if b[1]] for code in spellings]
    assert found == [[("_decompose", True)], [(None, True)]]
    assert not any(b for code in innocent
                   for b in _builds(ast.parse(code), "ReesMatrixSemigroup") if b[1])
