"""Every public export and every function the benchmark tracer wraps exists.

The traced benchmark run (perfbench/spans.py) looks functions up by module
and name; a rename or deletion here would silently drop a span from it.
Every name a source module imports is also used there, since no linter
runs on the package.  And every top-level function and class of the package,
and every method and property of its classes, is reached by a program path
or checks a lemma listed here.

Methods and properties are reached by the way an attribute is read: a
method only by a read that is called (``x.f(...)``), a property only by a
read that is not (``x.f``).  So ``counts.values()`` does not keep a
``values`` property alive, and ``tables.neg[g]`` does not keep a ``neg``
method alive.
"""

import ast
import importlib
from pathlib import Path

import pytest

import drgcayley

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
SOURCES = sorted((ROOT / "src" / "drgcayley").glob("*.py"))


def _traced_targets():
    """TARGETS from perfbench/spans.py, read as a literal without running it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TARGETS")


def test_traced_functions_resolve():
    targets = _traced_targets()
    assert targets
    for module, function, _ in targets:
        mod = importlib.import_module(f"drgcayley.{module}")
        assert callable(getattr(mod, function, None)), f"{module}.{function}"


def test_public_exports_resolve():
    missing = [name for name in drgcayley.__all__ if not hasattr(drgcayley, name)]
    assert missing == []


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _unused_imports(tree):
    """Names bound by import statements that the module never reads.

    A name counts as read when it appears as a ``Name`` node (``__all__``
    re-exports included) or inside a quoted annotation.
    """
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    reads = [tree]
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.append(ast.parse(node.value, mode="eval"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            reads.extend(ast.parse(name, mode="eval") for name in ast.literal_eval(node.value))
    used = {n.id for r in reads for n in ast.walk(r) if isinstance(n, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []



# Code that no program path calls but that checks a stated lemma; its unit
# tests are the check.  Every other top-level function and class of the
# package must be reached from src/, perfbench/ or scripts/.
LEMMA_CHECKERS = {
    "schur.power_map": (
        "Schur's multiplier theorem (Wielandt, Finite Permutation Groups, Thm 23.9): "
        "x -> m x, gcd(m, |G|) = 1, permutes the cells of a Schur ring over an "
        "abelian group; the census generator prunes by it"
    ),
    "fourier.rational_image_orbits": (
        "Bridges-Mena 1982: a subset of Z_n has a rational transform exactly when "
        "it is a union of orbits of the units"
    ),
    "groups.atom_partition": (
        "Bridges-Mena 1982: a set has a rational transform exactly when it is a union "
        "of the classes {x : <x> = <g>}, the unit orbits"
    ),
    "fourier.convolution_check": "F(f * g) = F(f) F(g), and (D_A * D_B)(i) = |(i - A) & B|",
    "fourier.inversion_check": "Fourier inversion: F(F(f))(z) = n f(-z)",
    "fourier.transversal_zeros": (
        "the transform of a transversal of rZ_n vanishes on (n/r)Z_n minus 0"
    ),
    "designs.line_graph": (
        "the line graph of TD(r, p) is Cay(G, union of r order-p subgroups minus 0), "
        "strongly regular with drg.td_line_srg_params(r, p)"
    ),
    "designs.diffset_search": (
        "the double-layer graph over Z_n + Z_2 is a non-antipodal diameter-3 DRG exactly "
        "when its shifted rows form a nontrivial difference set in the even-index subgroup"
    ),
}
# Methods that a library calls, overriding its own; no program names them.
LIBRARY_CALLBACKS = {
    "cli._Parser.error": "argparse.ArgumentParser calls it on a usage error",
}
MODULES = {p.stem for p in SOURCES} - {"__init__"}
PROGRAM_FILES = (
    [p for p in SOURCES if p.stem in MODULES]
    + sorted((ROOT / "perfbench").glob("*.py"))
    + sorted((ROOT / "scripts").glob("*.py"))
)


def _top_level(tree):
    return [
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def _methods(definition):
    """The methods and properties of a class, ``__dunder__`` names left out:
    those are called by the language, not by name.  Dataclass fields are
    assignments, not functions, so they are not listed either."""
    if not isinstance(definition, ast.ClassDef):
        return []
    return [
        node for node in definition.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def _is_property(method):
    """Whether a ``_methods`` entry is a ``property`` or ``cached_property``."""
    return any(
        (decorator.id if isinstance(decorator, ast.Name) else getattr(decorator, "attr", None))
        in ("property", "cached_property")
        for decorator in method.decorator_list
    )


def _holders(definition, module):
    """(node id, holder) for every node of a top-level definition.  The
    holder is ``Class.method`` inside a method ``_methods`` lists, else the
    definition's own name."""
    inner = {}
    for method in _methods(definition):
        inner.update(
            (id(n), (module, f"{definition.name}.{method.name}")) for n in ast.walk(method)
        )
    for n in ast.walk(definition):
        yield id(n), inner.get(id(n), (module, definition.name))


def _package_imports(tree, here):
    """Module aliases and imported names that bind package code in ``tree``.

    Returns ({local: module}, {local: (module, name)}), with module "" for the
    package itself; ``here`` is the tree's own module, None outside the package.
    """
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "drgcayley":
                    if alias.asname:
                        modules[alias.asname] = ".".join(parts[1:])
                    else:
                        modules["drgcayley"] = ""
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1 and here is not None:
                source = node.module or ""
            elif node.level == 0 and (node.module or "").split(".")[0] == "drgcayley":
                source = node.module.partition(".")[2]
            else:
                continue
            for alias in node.names:
                if not source and alias.name in MODULES:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names[alias.asname or alias.name] = (source, alias.name)
    return modules, names


def _trees(path):
    """The file's syntax tree, and that of each string literal in it that
    parses as a program importing the package (a script run by ``python -c``)."""
    tree = ast.parse(path.read_text())
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                program = ast.parse(node.value)
            except SyntaxError:
                continue
            if _package_imports(program, None) != ({}, {}):
                yield program


def _references(path):
    """(user, (module, name)) for every package binding the file reads, and
    (user, name, called) for every attribute it reads, ``called`` telling
    whether the read is the function of a call.

    A name is read through an import of it (``from .m import f``; ``f``) or of
    its module (``m.f``), or, in its own module, anywhere outside its own
    definition.  The user is the package's top-level definition or method
    holding the read, or None for module-level code and for files outside
    the package.  The binding may be a re-import; ``_resolve`` follows it.
    """
    here = path.stem if path.parent.name == "drgcayley" else None
    found, attributes = set(), set()
    for tree in _trees(path):
        modules, names = _package_imports(tree, here)
        holder = {}  # node id -> the top-level definition or method holding it
        for definition in (_top_level(tree) if here else []):
            names[definition.name] = (here, definition.name)
            holder.update(_holders(definition, here))
        quoted = [  # string annotations, read where they stand
            (holder.get(id(annotation)), ast.parse(node.value, mode="eval"))
            for annotation in _annotations(tree)
            for node in ast.walk(annotation)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        ]
        calls = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
        for node, user in [(n, holder.get(id(n))) for n in ast.walk(tree)] + [
            (n, user) for user, expr in quoted for n in ast.walk(expr)
        ]:
            if isinstance(node, ast.Attribute):
                attributes.add((user, node.attr, id(node) in calls))
            target = None
            if isinstance(node, ast.Name) and node.id in names:
                target = names[node.id]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    target = (modules[node.value.id], node.attr)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
                outer = node.value
                if isinstance(outer.value, ast.Name) and modules.get(outer.value.id) == "":
                    target = (outer.attr, node.attr)
            if target is not None and target != user:
                found.add((user, target))
    return found, attributes


def _resolve(reference, imports, defined):
    """Follow re-imports to the module that defines the name, or None."""
    while reference not in defined:
        reference = imports.get(reference[0], {}).get(reference[1])
        if reference is None:
            return None
    return reference


def test_package_code_is_reached_by_a_program_or_checks_a_lemma():
    """Reached: read by module-level code of the package, by perfbench/ or
    scripts/, traced by perfbench, called by a library, or read by a reached
    or lemma-checking definition.  Names are module-qualified, so
    ``kernels.common_neighbors`` does not reach a ``cayley.common_neighbors``,
    and the ``__init__`` re-exports reach nothing.  A method is reached when
    such code calls an attribute of its name, and a property when such code
    reads an attribute of its name without calling it, on any object: the
    type behind an attribute is not known here, so a read reaches every
    method, or every property, so named."""
    defined, imports = set(), {}
    members = {False: {}, True: {}}  # called?: name -> methods, else properties
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        module = "" if path.stem == "__init__" else path.stem
        for node in _top_level(tree):
            defined.add((module, node.name))
            for method in _methods(node):
                by_name = members[not _is_property(method)]
                by_name.setdefault(method.name, set()).add((module, f"{node.name}.{method.name}"))
        imports[module] = _package_imports(tree, module)[1]
    uses = {}  # user -> the definitions it reads
    for path in PROGRAM_FILES:
        found, attributes = _references(path)
        for user, reference in found:
            target = _resolve(reference, imports, defined)
            if target is not None:  # None: a constant or a submodule
                uses.setdefault(user, set()).add(target)
        for user, name, called in attributes:
            uses.setdefault(user, set()).update(members[called].get(name, set()))
    defined |= set().union(*members[False].values(), *members[True].values())
    lemmas = {tuple(key.split(".", 1)) for key in LEMMA_CHECKERS}
    assert sorted(lemmas - defined) == []

    def closure(frontier):
        reached = set()
        while frontier:
            reached |= frontier
            frontier = set().union(*(uses.get(d, set()) for d in frontier)) - reached
        return reached

    callbacks = {tuple(key.split(".", 1)) for key in LIBRARY_CALLBACKS}
    assert sorted(callbacks - defined) == []
    program = closure(
        uses.get(None, set()) | callbacks | {(m, f) for m, f, _ in _traced_targets()}
    )
    assert sorted(lemmas & program) == []  # a program path reaches it; drop the entry
    assert sorted(f"{m}.{n}" for m, n in defined - closure(program | lemmas)) == []
