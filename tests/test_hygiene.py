"""Source hygiene: every module imports only names it uses, and the package
defines no name that nothing reads and raises no error message twice.

Stdlib ``ast`` checks, standing in for a linter's unused-import and dead-code
rules. An import counts as used when its name is read anywhere in the module
(as a bare name or the head of an attribute chain) or re-exported through
``__all__``. A private top-level name of the package (one leading underscore)
counts as used when some module of the package reads it: as a bare name, as an
attribute, or by importing it. A public top-level name counts as used when
some module of the package, the tests or the demos reads it the same way; the
package's own re-export in ``__init__`` and a listing in ``__all__`` do not
count, so an exported name that nothing tests is flagged. A message that two
``raise`` statements of the package share is flagged too, and so is one raised
outside the input checks (``sieve.check_int``, ``util.check_ranges``) that writes
out one of their messages or states an integer bound by hand, save the few bounds
of ``REAL_BOUNDS``; so is a function other than ``sieve.check_int`` that names
``np.bool_`` or, ``sieve.is_prime`` aside, calls ``operator.index``: a second
integer door; and so is a ``functools.cache`` or ``lru_cache`` on a function that
takes a parameter: each cache of the package holds one value. Every module parses
as Python 3.10, the least version ``pyproject.toml`` allows.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in ("src/edgebudget", "tests", "demos")
    for path in (ROOT / folder).glob("*.py")
)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the line that binds it."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return used


def definitions(tree: ast.Module) -> dict[str, int]:
    """Each name a module binds at top level, with the line that binds it."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        out.update(dict.fromkeys(names, node.lineno))
    return out


def private_definitions(tree: ast.Module) -> dict[str, int]:
    return {
        name: line
        for name, line in definitions(tree).items()
        if name.startswith("_") and not name.startswith("__")
    }


def public_definitions(tree: ast.Module) -> dict[str, int]:
    return {name: line for name, line in definitions(tree).items() if not name.startswith("_")}


def without_reexports(tree: ast.Module) -> ast.Module:
    """The module without its top-level ``from ... import``: a package's re-export is no read."""
    body = [node for node in tree.body if not isinstance(node, ast.ImportFrom)]
    return ast.Module(body=body, type_ignores=[])


def read_names(trees) -> set[str]:
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                out.update(alias.name for alias in node.names)
    return out


def test_the_scan_sees_every_tree():
    assert {path.parent.name for path in MODULES} == {"edgebudget", "tests", "demos"}


def test_the_check_catches_an_unused_import():
    tree = ast.parse("import functools\nfrom x import a, b as c\nprint(a)\n")
    assert set(imported_names(tree)) - used_names(tree) == {"functools", "c"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = imported_names(tree)
    unused = sorted(set(bound) - used_names(tree), key=bound.get)
    assert not unused, [f"{path.name}:{bound[name]}: {name}" for name in unused]


def test_the_check_catches_an_unused_private_name():
    tree = ast.parse(
        "_A = 1\n_B: int = 2\n__all__ = []\ndef _f():\n    return _A\n"
        "class _C:\n    pass\ndef g():\n    return _f() + x._D\n"
    )
    assert set(private_definitions(tree)) - read_names([tree]) == {"_B", "_C"}


def test_no_unused_private_names():
    sources = [path for path in MODULES if path.parent.name == "edgebudget"]
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sources}
    read = read_names(trees.values())
    unused = [
        f"{name}:{line}: {private}"
        for name, tree in trees.items()
        for private, line in private_definitions(tree).items()
        if private not in read
    ]
    assert not unused, unused


def test_the_check_catches_an_unused_public_name():
    module = ast.parse(
        "A = 1\nB: int = 2\n_P = 3\ndef f():\n    return A\n"
        "class C:\n    pass\ndef g():\n    return 0\n"
    )
    init = ast.parse("from .module import C, f, g\n__all__ = ['C', 'f', 'g']\n")
    user = ast.parse("import pkg\nfrom pkg.module import B\npkg.f()\n")
    read = read_names([module, without_reexports(init), user])
    assert set(public_definitions(module)) - read == {"C", "g"}


def test_no_unused_public_names():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    read = read_names(
        without_reexports(tree) if path.name == "__init__.py" else tree
        for path, tree in trees.items()
    )
    unused = [
        f"{path.name}:{line}: {public}"
        for path, tree in trees.items()
        if path.parent.name == "edgebudget"
        for public, line in public_definitions(tree).items()
        if public not in read
    ]
    assert not unused, unused


SOURCES = [path for path in MODULES if path.parent.name == "edgebudget"]
# a hand-written instance of a door's message: util.check_ranges's "<name> must lie in
# <interval>", or sieve.check_int's "<fn> requires <name> >= <lo>" and "<fn> supports
# <name> <= <hi>"
DOOR_MESSAGE = re.compile(r"[a-z_]\w* (must lie in|requires [a-z_]\w* >=|supports [a-z_]\w* <=) ")
# an integer bound stated by hand: a comparison with a number or a formatted value, or a
# range in words
HAND_BOUND = re.compile(r"[<>]=? *[\d{]|[\d}] *[<>]"
                        r"|must (be (at least|at most|below|positive|nonnegative)|satisfy"
                        r"|lie (in|below)|end below)")
# the functions whose messages word the bounds: the integer and strategy doors
DOORS = {"check_int", "check_ranges"}
# the bounds stated outside the doors: is_prime's, inline on its hot path, and dirichlet's
# on the real z and y, which a float or NaN reaches, where the integer door refuses a float
REAL_BOUNDS = {
    "is_prime supports 0 <= n < 2**64",
    "y must be positive",
    "z must be at least 1",
    "bv_sum requires z >= 3",
    "{} must be at most {} for exact fixed-point sums",
}


def raise_messages(tree: ast.Module) -> list[tuple[str, int, str]]:
    """The message of each ``raise E("...")`` or ``raise E(f"...")``, each formatted
    value as ``{}``, with the line that raises it and the innermost function around
    it ("" at module level)."""
    out = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            raised = isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call)
            message = child.exc.args[0] if raised and child.exc.args else None
            if isinstance(message, ast.JoinedStr):
                parts = [v.value if isinstance(v, ast.Constant) else "{}" for v in message.values]
                out.append(("".join(parts), child.lineno, function))
            elif isinstance(message, ast.Constant) and isinstance(message.value, str):
                out.append((message.value, child.lineno, function))
            visit(child, function)

    visit(tree, "")
    return sorted(out, key=lambda triple: triple[1])


def hand_written_bounds(tree: ast.Module) -> list[tuple[str, int]]:
    """Each message raised outside ``DOORS`` that writes out a door's message or states an
    integer bound by hand, with its line; ``REAL_BOUNDS`` are left out."""
    return [
        (message, line)
        for message, line, function in raise_messages(tree)
        if function not in DOORS and message not in REAL_BOUNDS
        and (DOOR_MESSAGE.match(message) or HAND_BOUND.search(message))
    ]


def test_the_check_catches_a_repeated_message():
    tree = ast.parse(
        'def f(x):\n    if x:\n        raise ValueError("x must lie in (0, 1]")\n'
        '    raise ValueError("x must lie in (0, 1]")\n'
        'def g(n):\n    raise ValueError(f"g requires n >= {1}")\n'
        'def h(n):\n    raise ValueError(f"{n} requires {n} >= {1}")\n'
    )
    messages = [message for message, _, _ in raise_messages(tree)]
    assert messages == ["x must lie in (0, 1]"] * 2 + ["g requires n >= {}", "{} requires {} >= {}"]
    assert [m for m in messages if DOOR_MESSAGE.match(m)] == messages[:3]


# the integer bounds that smooth_search, strategy_smooth, strategy_bv, psi,
# max_discrepancy, bs_max_pdiff and the bs-experiment subcommand once wrote out by hand,
# before each went through sieve.check_int
REMOVED_BOUNDS = [
    'f"smooth_search supports 1 <= n < 2**64, got n={n}"',
    '"every rset member must lie below n"',
    'f"strategy_bv supports 1 <= n < 2**65, got n={n}"',
    '"modulus must be positive"',
    '"residue must satisfy 0 <= a < m"',
    'f"m must satisfy 1 <= m <= {MAX_Z}"',
    '"set elements must be positive integers"',
    '"set elements must be below 2**63, the int64 limit"',
    'f"--n-max must be at least 2, got {args.n_max}"',
    'f"--n-max must be below 2**63, the int64 limit, got {args.n_max}"',
    'f"{flag} must lie in [1, --n-max] = [1, {args.n_max}], got {size}"',
    'f"--trials must be nonnegative, got {args.trials}"',
]


def test_the_check_catches_a_hand_written_bound():
    body = "".join(f"    raise ValueError({message})\n" for message in REMOVED_BOUNDS)
    doors = "".join(f"def {door}(fn, name, lo):\n{body}" for door in sorted(DOORS))
    real = "def g(z):\n    raise ValueError('y must be positive')\n"
    tree = ast.parse(f"def f(n):\n{body}{doors}{real}")
    flagged = hand_written_bounds(tree)
    # each removed form in f, none of them in a door, and no real bound
    assert [line for _, line in flagged] == list(range(2, 2 + len(REMOVED_BOUNDS)))


def test_no_raise_repeats_a_message():
    seen = {}
    repeated = []
    hand_written = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for message, line, _ in raise_messages(tree):
            if message in seen:
                repeated.append(f"{path.name}:{line}: {message!r}, as at {seen[message]}")
            seen.setdefault(message, f"{path.name}:{line}")
        hand_written += [f"{path.name}:{line}: {m!r}" for m, line in hand_written_bounds(tree)]
    assert not repeated, repeated
    # each strategy range and each integer bound has its message written once, in its door
    assert not hand_written, hand_written
    # each allowed bound is still raised, and would be flagged without its allowance
    stale = [m for m in REAL_BOUNDS if m not in seen or not HAND_BOUND.search(m)]
    assert not stale, stale


# what only the integer door reads, and the functions allowed to read it: is_prime converts
# its n inline, on its hot path, with its own bound
INTEGER_READS = {"np.bool_": {"check_int"}, "operator.index": {"check_int", "is_prime"}}


def integer_reads(tree: ast.Module) -> list[tuple[str, int, str]]:
    """Each ``np.bool_`` or ``operator.index`` of ``INTEGER_READS`` read outside the functions
    it allows, with its line and the innermost function around it ("" at module level)."""
    out = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name):
                name = f"{child.value.id}.{child.attr}"
                if name in INTEGER_READS and function not in INTEGER_READS[name]:
                    out.append((name, child.lineno, function))
            visit(child, function)

    visit(tree, "")
    return sorted(out, key=lambda triple: triple[1])


def test_the_check_catches_a_second_integer_door():
    tree = ast.parse(
        "def exact_int(v):\n    if isinstance(v, (bool, np.bool_)):\n        raise ValueError\n"
        "    return int(v)\n"
        "def check_int(v):\n    if isinstance(v, (bool, np.bool_)):\n        raise TypeError\n"
        "    return operator.index(v)\n"
        "def is_prime(n):\n    return operator.index(n)\n"
        "def f(v):\n    return operator.index(v)\n"
        "def _cell(value):\n    return isinstance(value, bool)\n"
    )
    assert integer_reads(tree) == [("np.bool_", 2, "exact_int"), ("operator.index", 12, "f")]


def test_one_integer_door():
    reads = [
        f"{path.name}:{line}: {name} in {function or 'the module'}"
        for path in SOURCES
        for name, line, function in integer_reads(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not reads, reads


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_parses_as_python_3_10(path):
    # requires-python is >= 3.10: syntax of a later version fails to parse here
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_the_version_check_catches_later_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def cached_with_parameters(tree: ast.Module) -> list[tuple[str, int]]:
    """Each function under ``functools.cache`` or ``lru_cache`` (bare, called or
    as an attribute) that takes any parameter, with the line that defines it."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        if not (args.posonlyargs or args.args or args.kwonlyargs or args.vararg or args.kwarg):
            continue
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name in ("cache", "lru_cache"):
                out.append((node.name, node.lineno))
    return sorted(out, key=lambda pair: pair[1])


def test_the_check_catches_a_cache_per_argument():
    tree = ast.parse(
        "import functools\nfrom functools import cache, lru_cache\n"
        "@functools.cache\ndef a():\n    pass\n"
        "@lru_cache(maxsize=4)\ndef b(top):\n    pass\n"
        "@cache\ndef c(*, k=1):\n    pass\n"
        "@functools.lru_cache\ndef d(*args):\n    pass\n"
        "@staticmethod\ndef e(x):\n    pass\n"
    )
    assert [name for name, _ in cached_with_parameters(tree)] == ["b", "c", "d"]


def test_every_cache_holds_one_value():
    cached = [
        f"{path.name}:{line}: {name}"
        for path in SOURCES
        for name, line in cached_with_parameters(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not cached, cached
