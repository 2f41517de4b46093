"""The base-ring seam and wrong-ring input.

Everything that differs between Z and an F_p-algebra is a method of the
ring's ops object (`modules.ring_ops`); `SEAM` lists what the `_RingOps`
docstring names, and both ops classes must answer every name.  Input of
the wrong ring kind is rejected by the constructor that takes it, with a
named error under `python` and `python -O`, and reaches `.wb` users as a
diagnostic, never a traceback.
"""

import os
import re
import subprocess
import sys

from functor_homology import runner
from functor_homology.dsl import parse
from functor_homology.modules import _AlgebraOps, _IntegerOps, _RingOps, ring_ops
from functor_homology.rings import ZZ, cyclic_group_table, group_algebra

SEAM = ("matrix_type", "matrix", "from_columns", "identity", "zeros",
        "kernel_basis", "solver", "free_images", "unit", "n_actions",
        "has_relations", "residue", "quotient", "submodule", "generators",
        "describe", "is_mono", "is_epi", "exact_at", "base_change_epi",
        "base_change_lift", "coefficient_range", "invariant_factors",
        "simplify", "fp_dimension", "minimal_generators")
R2 = group_algebra(2, cyclic_group_table(2))
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_seam_is_the_list_the_docstring_names():
    assert set(re.findall(r"`(\w+)`", _RingOps.__doc__)) == set(SEAM)


def test_both_ops_answer_every_seam_method():
    for cls, ops in ((_IntegerOps, ring_ops(ZZ)), (_AlgebraOps, ring_ops(R2))):
        assert isinstance(ops, cls)
        # each ring supplies its own: nothing of the seam is inherited
        assert [n for n in SEAM if n not in vars(cls)] == []
        assert [n for n in SEAM if not hasattr(ops, n)] == []


def test_coefficient_ranges_keep_the_draws():
    # the bounds random diagram maps were always drawn with
    assert ring_ops(ZZ).coefficient_range(2) == (-2, 2)
    assert ring_ops(R2).coefficient_range(2) == (0, 1)
    assert ring_ops(group_algebra(3, cyclic_group_table(3))).coefficient_range(2) == (0, 2)


WRONG_RING = """
from functor_homology import modules
from functor_homology.errors import AlgebraError
from functor_homology.rings import (ZZ, RingMap, augmentation_map,
                                    cyclic_group_table, fp_field,
                                    group_algebra, group_ring_map)

R = group_algebra(2, cyclic_group_table(2))
CALLS = [("RingMap without images", lambda: RingMap(R, fp_field(2))),
         ("augmentation of Z", lambda: augmentation_map(ZZ)),
         ("group ring map into Z", lambda: group_ring_map(R, ZZ, [0, 0])),
         ("trivial module over Z", lambda: modules.trivial_module(ZZ))]
for name, call in CALLS:
    try:
        call()
    except (AlgebraError, ValueError) as exc:
        print(f"{name}: {type(exc).__name__}: {exc}")
    else:
        raise SystemExit(f"{name} was accepted")
"""


def test_wrong_ring_constructors_raise_named_errors():
    outs = []
    for flags in ([], ["-O"]):
        out = subprocess.run([sys.executable, *flags, "-c", WRONG_RING], env=_env(),
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stdout + out.stderr
        assert len(out.stdout.splitlines()) == 4
        assert "RingError" in out.stdout and "F_p-algebra" in out.stdout
        outs.append(out.stdout)
    assert outs[0] == outs[1]


RINGS = """\
ring Z
ring R = group_algebra p=2 table [[0,1],[1,0]]
ring S = group_algebra p=2 table [[0,1],[1,0]]
"""
# (declaration, a word of its diagnostic); the first four crashed with a
# TypeError or IndexError, the last three were rejected in the runner and
# still are
WRONG_RING_DECLS = [
    ("module T over Z = trivial", "F_p-algebra"),
    ("module T over Z = fp dim 1 actions [[[1]]]", "action matrices"),
    ("functor F = base_change(R -> Z, images=[0,0])", "F_p-algebra"),
    ("functor F = base_change(R -> S, images=[0,5])", "basis index"),
    ("module T over R = coker [[1]]", "no relations"),
    ("functor F = base_change(R -> S)", "needs images"),
    ("functor F = coinvariants(Z)", "F_p-algebra"),
]


def test_wrong_ring_declarations_are_diagnostics(tmp_path):
    for k, (decl, word) in enumerate(WRONG_RING_DECLS):
        text = RINGS + decl + "\n"
        doc, diags = parse(text)
        assert not diags, diags
        _, diags = runner.build_environment(doc)
        assert len(diags) == 1 and diags[0].line == 4, (decl, diags)
        assert word in diags[0].message, (decl, diags[0].message)
        path = tmp_path / f"wrong{k}.wb"
        path.write_text(text)
        for flags in ([], ["-O"]):
            out = subprocess.run(
                [sys.executable, *flags, "-m", "functor_homology.cli", "run", str(path)],
                env=_env(), capture_output=True, text=True, timeout=120)
            assert out.returncode == 1, (decl, out.stderr)
            assert "Traceback" not in out.stderr, (decl, out.stderr)
            assert word in out.stdout, (decl, out.stdout)
