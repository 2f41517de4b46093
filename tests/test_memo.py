"""The memo rule: every memo lives on the object it describes.

Memos die with their objects, functor specs built twice from the same
arguments share memos, and no module holds a fresh global cache.
"""

import ast
import gc
import re
import weakref
from pathlib import Path

from functor_homology.bifunctor import switched_row
from functor_homology.complexes import SES
from functor_homology.derived import (derived, derived_data, derived_map,
                                      les_of_ses, resolve)
from functor_homology.diagrams import constant_diagram
from functor_homology.fincat import standard
from functor_homology.functors import (base_change, compose, exponent,
                                       exponent_apply, tensor_with)
from functor_homology.modules import ModMor, ModuleObj, cyclic
from functor_homology.rings import RingMap, ZZ, fp_field
from functor_homology.tensorops import base_change_obj, tensor_obj

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "functor_homology"


def _compute_and_watch():
    """Run every memoised construction once; return weakrefs only."""
    A, B, M = cyclic(4), cyclic(6), cyclic(3)
    F = tensor_with(cyclic(2))
    f = ModMor(A, cyclic(2), [[1]])
    Zm = cyclic(0)
    ses = SES(ModMor(Zm, Zm, [[2]]), ModMor(Zm, cyclic(2), [[1]]))
    D = constant_diagram(standard("arrow"), cyclic(5))
    FD = exponent_apply(F, D)
    tensor_obj(A, B)
    base_change_obj(RingMap(ZZ, fp_field(3)), M)
    derived(F, A, 1)
    derived_map(F, f, 1)
    les_of_ses(F, ses, 1)
    switched_row(A, ses, 1)
    return {name: weakref.ref(obj) for name, obj in
            (("A", A), ("B", B), ("M", M), ("F", F), ("f", f), ("ses", ses),
             ("D", D), ("FD", FD))}


def test_memos_die_with_their_objects():
    refs = _compute_and_watch()
    gc.collect()
    assert [name for name, ref in refs.items() if ref() is not None] == []


def test_resolution_has_one_zero_object():
    # Z/4 has the finite resolution 0 -> Z -4-> Z, so degrees past 1 are zero
    A = cyclic(4)
    res = resolve(A, 4)
    zero = res.term(3)
    assert zero.is_zero()
    assert all(res.term(n) is zero for n in range(res.built + 1, 6))
    assert all(res.kernel_obj(n) is zero for n in range(len(res.kernels), 6))
    assert resolve(A, 5).term(5) is zero
    ref = weakref.ref(zero)
    del A, res, zero
    gc.collect()
    assert ref() is None
    # the zero object is not interned on the ring, which holds no modules
    assert not hasattr(ZZ, "__dict__") and not hasattr(fp_field(2), "__dict__")
    assert all(not isinstance(getattr(ZZ, name, None), (dict, ModuleObj))
               for name in type(ZZ).__slots__)


def test_specs_built_twice_are_equal():
    M = cyclic(2)
    rm = RingMap(ZZ, fp_field(2))
    arrow = standard("arrow")
    builders = [
        lambda: tensor_with(M),
        lambda: tensor_with(M, side="left"),
        lambda: base_change(rm),
        lambda: compose(base_change(rm), tensor_with(M)),
        lambda: exponent(tensor_with(M), arrow),
    ]
    for build in builders:
        a, b = build(), build()
        assert a is not b
        assert a == b and hash(a) == hash(b)


def test_specs_differ_when_an_argument_differs():
    M, M2 = cyclic(2), cyclic(2)
    rm, rm2 = RingMap(ZZ, fp_field(2)), RingMap(ZZ, fp_field(2))
    arrow, arrow2 = standard("arrow"), standard("arrow")
    pairs = [
        (tensor_with(M), tensor_with(M2)),  # module object
        (tensor_with(M), tensor_with(M, side="left")),  # side
        (tensor_with(M), tensor_with(M, label="T")),  # label
        (base_change(rm), base_change(rm2)),  # ring map
        (exponent(tensor_with(M), arrow), exponent(tensor_with(M), arrow2)),
        (compose(base_change(rm), tensor_with(M)),
         compose(base_change(rm), tensor_with(M2))),  # nested spec
    ]
    for a, b in pairs:
        assert a != b


def test_equal_specs_share_derived_memos():
    arrow = standard("arrow")
    F = tensor_with(cyclic(2))
    A = constant_diagram(arrow, cyclic(0))
    assert derived_data(exponent(F, arrow), A, 1) is \
        derived_data(exponent(F, arrow), A, 1)


def _fresh_container(value):
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, (ast.List, ast.Set)):
        return not value.elts
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "list", "set")
            and not value.args and not value.keywords)


def global_cache_offenders(package=PACKAGE):
    """Module-level bindings of an empty container, and any source
    mentioning keep-alive lists."""
    found = []
    paths = sorted(package.glob("*.py"))
    assert paths, f"no sources under {package}"
    for path in paths:
        text = path.read_text()
        for node in ast.parse(text).body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if _fresh_container(value):
                found += [f"{path.name}:{ast.unparse(t)}" for t in targets]
        if re.search("keepalive", text, re.IGNORECASE):
            found.append(f"{path.name}: keepalive")
    return found


def test_no_module_level_caches():
    assert global_cache_offenders() == []
