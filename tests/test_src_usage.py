"""`src/` holds what the system uses.

Every top-level name defined in `src/functor_homology` must be referenced
by some code in `src/`, `demos/`, `perfbench/` or `bench/`, other than its
own definition, or be paper-facing API listed in `ALLOWED` with its
reason.  References are read off the syntax tree (names, attributes and
imported names), so a mention in a docstring or comment does not count,
and tests do not count: code only the tests reach belongs in `tests/`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "functor_homology"
USERS = ("src", "demos", "perfbench", "bench")

ALLOWED = {
    "__init__.__version__": "the package version",
    "derived.l0_comparison": "the comparison L_0 F -> F, iso for right-exact F",
    "diagrams.projection": "the projection functors C^I -> C of the paper",
    "dsl.print_doc": "the printer that `parse` inverts, for round trips",
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


def _referenced(node):
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def unused_names():
    """Top-level names of the package that no code outside their own
    definition references, as "module.name"."""
    defined, used = {}, set()
    for user in USERS:
        for path in sorted((ROOT / user).rglob("*.py")):
            for node in ast.parse(path.read_text()).body:
                own = _defined(node) if path.parent == PACKAGE else []
                defined.update((f"{path.stem}.{name}", name) for name in own)
                used |= _referenced(node) - set(own)
    return sorted(key for key, name in defined.items() if name not in used)


def test_src_holds_what_the_system_uses():
    assert unused_names() == sorted(ALLOWED)


def test_the_walk_sees_definitions_and_uses():
    tree = ast.parse("def f():\n    '''calls q'''\n    return h.g(k)\n")
    (node,) = tree.body
    assert _defined(node) == ["f"]
    assert _referenced(node) == {"h", "g", "k"}
