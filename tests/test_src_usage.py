"""`src/` holds what the system uses.

Every top-level name defined in `src/functor_homology` must be referenced
by some code in `src/`, `demos/`, `perfbench/` or `bench/`, other than its
own definition, or be paper-facing API listed in `ALLOWED` with its
reason.  References are read off the syntax tree and matched by module: a
bare name inside the defining module, an attribute `mod.name` with `mod`
bound to the package module by an import, or a `from .mod import name`
(also `from functor_homology.mod import name`).  So a method or another
module's function that shares the name does not count, and neither does a
mention in a docstring or comment, or a test: code only the tests reach
belongs in `tests/`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "functor_homology"
USERS = ("src", "demos", "perfbench", "bench")
MODULES = {path.stem for path in PACKAGE.glob("*.py")}

ALLOWED = {
    "__init__.__version__": "the package version",
    "derived.l0_comparison": "the comparison L_0 F -> F, iso for right-exact F",
    "diagrams.projection": "the projection functors C^I -> C of the paper",
    "dsl.print_doc": "the printer that `parse` inverts, for round trips",
    "fplinalg.solve": "named only as strings by `perfbench/tracer.py`, which is fixed",
    "functors.exponent_nat": "the exponent F^I on a natural transformation",
    "tensorops.tensor_unit_map": "the unit isomorphism A ⊗ R ≅ A",
}


def _defined(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _source_module(node):
    """The package module a `from ... import` reads from, "" for the
    package itself, or None for anything else."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module:
        head, _, rest = node.module.partition(".")
        if head == "functor_homology":
            return rest
    return None


def _module_aliases(tree):
    """Local names bound to package modules by `from . import mod` or
    `from functor_homology import mod`, anywhere in the file."""
    aliases = {}
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and _source_module(n) == "":
            for a in n.names:
                if a.name in MODULES:
                    aliases[a.asname or a.name] = a.name
    return aliases


def _referenced(node, own, aliases):
    """The "module.name" keys node refers to: bare names as names of the
    package module `own` (None outside the package), `mod.name` attributes
    and the names imported from a package module."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and own is not None:
            out.add(f"{own}.{n.id}")
        elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
              and n.value.id in aliases):
            out.add(f"{aliases[n.value.id]}.{n.attr}")
        elif isinstance(n, ast.ImportFrom) and _source_module(n):
            out.update(f"{_source_module(n)}.{a.name}" for a in n.names)
    return out


def unused_names():
    """Top-level names of the package that no code outside their own
    definition references, as "module.name"."""
    defined, used = set(), set()
    for user in USERS:
        for path in sorted((ROOT / user).rglob("*.py")):
            tree = ast.parse(path.read_text())
            aliases = _module_aliases(tree)
            own = path.stem if path.parent == PACKAGE else None
            for node in tree.body:
                mine = {f"{own}.{name}" for name in _defined(node)} if own else set()
                defined |= mine
                used |= _referenced(node, own, aliases) - mine
    return sorted(defined - used)


def test_src_holds_what_the_system_uses():
    assert unused_names() == sorted(ALLOWED)


def test_the_walk_sees_definitions_and_uses():
    tree = ast.parse("def f():\n    '''calls q'''\n    return h.g(k)\n")
    (node,) = tree.body
    assert _defined(node) == ["f"]
    assert _referenced(node, "mod", {}) == {"mod.h", "mod.k"}


def test_references_are_matched_by_module():
    tree = ast.parse("from . import fplinalg as fl\n"
                     "from .modules import kernel, solver as s\n"
                     "from functor_homology.intlinalg import snf\n"
                     "def f(system):\n"
                     "    return fl.rref(system.solve(kernel, s, snf))\n")
    aliases = _module_aliases(tree)
    assert aliases == {"fl": "fplinalg"}
    used = set().union(*(_referenced(node, None, aliases) for node in tree.body))
    assert used == {"modules.kernel", "modules.solver", "intlinalg.snf", "fplinalg.rref"}
    # a method, or another module's function, of the same name is no use
    assert not {"fplinalg.solve", "intlinalg.solve", "modules.solve"} & used
