"""The package ships only what the checker runs.

Every module-level function or class in ``src/gai_lab``, and every method
or property of a module-level class, must be named somewhere in ``src/``
(by an ``ast.Name`` or an ``ast.Attribute``).  A definition that only the
tests reach belongs with the tests, as the brute-force oracles in
``tests/similarity_oracle.py`` and ``tests/wf_oracle.py`` do.  Decorated
module-level definitions (click commands) are skipped: a decorator may
register what nothing names.  Record classes (``core.Record``) carry no
decorator, so the scan covers them too.  Dunder methods are skipped, since
Python calls them by protocol.

Nothing in the package compiles code at import: no ``dataclasses``, no
named tuples, no call of ``exec``, ``eval`` or ``compile``.  Nothing in it
caches with ``functools.cached_property``, which slows every later attribute
read of the object.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gai_lab"

# Entry points that nothing in the package calls yet.
ALLOWED = {
    # The perfbench worker calls it, and the planned ``gai-lab ms-check``
    # command will.
    "differential_check",
    # The perfbench worker builds its XOR-list items with it.
    "xor_script",
    # ``perfbench/tracer.py`` wraps it by name, and ``test_bench_worker``
    # asserts that a traced worker leaves no notes; it leaves with the tracer.
    "prefixes_similar_to",
}


def unreferenced_definitions(package: Path) -> dict[str, str]:
    """Name -> ``module:line`` of each undecorated module-level function or
    class, and ``Class.method`` -> ``module:line`` of each method or property
    of a module-level class other than a dunder, that no ``ast.Name`` or
    ``ast.Attribute`` in the package names."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    found = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.decorator_list:
                if node.name not in referenced:
                    found[node.name] = f"{module}:{node.lineno}"
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if (isinstance(member, ast.FunctionDef) and not member.name.startswith("__")
                            and member.name not in referenced):
                        found[f"{node.name}.{member.name}"] = f"{module}:{member.lineno}"
    return found


def test_every_definition_in_the_package_has_a_caller_in_the_package():
    found = unreferenced_definitions(PACKAGE)
    assert {name: where for name, where in found.items() if name not in ALLOWED} == {}
    # An allowance lapses once its name gains a caller or leaves the package.
    assert ALLOWED <= found.keys()


# What builds classes or functions from source text: ``dataclasses`` and the
# named tuples generate their methods with ``exec``/``eval``.
CODE_BUILDING_MODULES = {"dataclasses"}
CODE_BUILDING_NAMES = {"NamedTuple", "namedtuple"}
CODE_COMPILING_BUILTINS = {"exec", "eval", "compile"}
# ``functools.cached_property`` takes a lock on first use and writes into the
# instance ``__dict__``, after which CPython 3.11 reads every attribute of
# that object through the dict, about three times slower; ``notac._lazy``
# caches with ``object.__setattr__`` instead.
SLOW_CACHE_NAMES = {"cached_property"}


def banned_uses(package: Path, modules=frozenset(), names=frozenset(), builtins=frozenset()) -> list[str]:
    """``module:line: what`` for each import of one of ``modules`` or
    ``names``, each attribute named in ``names`` and each call of one of
    ``builtins`` in the package.  Attribute calls such as ``re.compile``
    are not calls of a builtin and do not count."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                hits = [a.name for a in node.names if a.name.split(".")[0] in modules]
            elif isinstance(node, ast.ImportFrom):
                hits = [node.module] if node.module in modules else [a.name for a in node.names if a.name in names]
            elif isinstance(node, ast.Attribute):
                hits = [node.attr] if node.attr in names else []
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in builtins:
                hits = [f"{node.func.id}()"]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {hit}" for hit in hits]
    return found


def test_nothing_in_the_package_compiles_code_at_import():
    assert banned_uses(PACKAGE, CODE_BUILDING_MODULES, CODE_BUILDING_NAMES, CODE_COMPILING_BUILTINS) == []


def test_nothing_in_the_package_caches_with_cached_property():
    assert banned_uses(PACKAGE, names=SLOW_CACHE_NAMES) == []


def modules_naming(package: Path, name: str) -> set[str]:
    """The modules whose code names ``name``, as a variable, an attribute or an import."""
    return {
        path.name
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.Attribute) and node.attr == name
        or isinstance(node, ast.alias) and node.name == name
    }


def test_only_gai_names_the_default_variable_base():
    # Every other module places a program's variables with ``gai.variable_base``,
    # so the placement rule has one copy.
    assert modules_naming(PACKAGE, "DEFAULT_ENV_BASE") == {"gai.py"}


# The token groups Notac and Memsafe share; ``notac.token_pattern`` builds
# both languages' token regexes from them.
SHARED_TOKEN_GROUPS = ("(?P<ws>", "(?P<num>", "(?P<name>")
# The rules of ``notac.ParserCore`` that every grammar reads, none redefines.
SHARED_PARSER_RULES = {"atom", "parenthesized"}


def test_only_notac_spells_the_shared_token_groups():
    for group in SHARED_TOKEN_GROUPS:
        assert {path.name for path in PACKAGE.glob("*.py") if group in path.read_text()} == {"notac.py"}, group


def test_no_grammar_redefines_a_shared_parser_rule():
    classes = {}  # class name -> (its base names, its method names)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases = {b.id if isinstance(b, ast.Name) else getattr(b, "attr", None) for b in node.bases}
                classes[node.name] = bases, {f.name for f in node.body if isinstance(f, ast.FunctionDef)}

    def is_grammar(name: str) -> bool:
        return any(b == "ParserCore" or b in classes and is_grammar(b) for b in classes[name][0])

    grammars = {name for name in classes if is_grammar(name)}
    assert {"_Parser", "_MsParser"} <= grammars
    assert {f"{name}.{rule}" for name in grammars for rule in SHARED_PARSER_RULES & classes[name][1]} == set()
