"""A Cartan-Eilenberg column is a function of (d_p, d_{p+1}), and L_p G of
a module is a function of the module: `ce_grid` builds each distinct
column once and `_checked_ss` decides each distinct E2 row and acyclicity
witness once.  Sharing must change no value: every cell, map, page and
verdict equals the reference that builds every one from scratch
(`oracle.ce_grid_every_column`, `oracle.checked_ss_every_check`)."""

import importlib.util
import os
import subprocess
import sys

import pytest

import oracle
from functor_homology import abelian, spectral
from functor_homology.complexes import Complex
from functor_homology.fplinalg import FpMatrix
from functor_homology.modules import ModMor, ModuleObj
from functor_homology.rings import cyclic_group_table, group_algebra


def load_ss_scaling():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "ss_scaling.py")
    spec = importlib.util.spec_from_file_location("bench_ss_scaling", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# the fixtures of bench/ss_scaling.py, built from scratch on every call so
# that no memo is shared between the two sides
SS_SCALING = load_ss_scaling()
fixture = SS_SCALING.fixture


def reference(monkeypatch, fn, *args, **kwargs):
    """fn run with every column, E2 row and witness built from scratch."""
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "ce_grid", oracle.ce_grid_every_column)
        patch.setattr(spectral, "_checked_ss", oracle.checked_ss_every_check)
        return fn(*args, **kwargs)


def grid_maps(ce):
    """Every cell and map of a CE grid, keyed by kind and position."""
    out = {}
    for p in range(ce.width + 1):
        out[("aug", p)] = ce.aug(p)
        for q in range(ce.depth + 1):
            out[("term", p, q)] = ce.q_term(p, q)
            out[("d_h", p, q)] = ce.d_h(p, q)
            out[("proj_to_h", p, q)] = ce.proj_to_h(p, q)
            if q:
                out[("d_v", p, q)] = ce.d_v(p, q)
    return out


def ss_values(ss):
    return (ss.r_stop, ss.n_valid, ss.pages, ss.diffs, ss.einf, ss.abutment,
            ss.filtration, ss.degenerates_at_2, ss.e2_expected, ss.e2_matches,
            ss.abutment_expected, ss.abutment_matches, ss.hypothesis_ok,
            ss.hypothesis_report, ss.extra)


@pytest.mark.parametrize("big", ["C4", "C2xC2"])
@pytest.mark.parametrize("n_max", [3, 4, 5, 6, 7, 8, 12, 16])
def test_sharing_changes_no_value(monkeypatch, big, n_max):
    gd = spectral.grothendieck_ss(*fixture(big), n_max, with_data=True)
    ref = reference(monkeypatch, spectral.grothendieck_ss, *fixture(big), n_max,
                    with_data=True)
    assert grid_maps(gd.ce) == grid_maps(ref.ce)
    assert ss_values(gd.ss) == ss_values(ref.ss)
    assert gd.ss.converged() and gd.ss.e2_matches and gd.ss.abutment_matches
    assert len(gd.ss.hypothesis_report) == (n_max + 2) * n_max
    # C4's base-changed resolution is 2-periodic, so its interior columns repeat
    shared = [p for p in range(gd.ce.width + 1)
              if any(gd.ce.hsC[q] is gd.ce.hsC[p] for q in range(p))]
    if big == "C4":
        assert shared == list(range(3, gd.ce.width))


@pytest.mark.parametrize("name, n_max", [("criterion10", 3), ("C2xC2_square_seed1", 2),
                                         ("C2xC2_square_seed1", 3),
                                         ("C2xC2_square_seed20261019", 2),
                                         ("C2xC2_square_seed20261019", 3)])
def test_componentwise_sharing_changes_no_value(monkeypatch, name, n_max):
    res = spectral.ss_componentwise(*SS_SCALING.diagram_fixture(name), n_max)
    ref = reference(monkeypatch, spectral.ss_componentwise,
                    *SS_SCALING.diagram_fixture(name), n_max)
    assert res.acceptance_ok() and ref.acceptance_ok()
    assert {i: ss_values(ss) for i, ss in res.per_object.items()} == \
        {i: ss_values(ss) for i, ss in ref.per_object.items()}
    for part in ("e2_cell_maps", "page_maps", "abutment_maps", "ident_ok", "e2_ident",
                 "e2_squares", "page_squares", "abutment_filtration_ok",
                 "gr_matches_einf"):
        assert getattr(res, part) == getattr(ref, part), part


def test_equal_matrices_between_different_modules_are_not_shared(monkeypatch):
    # over F2[C2], the 2x2 matrix M = [[0, 1], [0, 0]] is a module map both
    # ways between the trivial action I and the action T = [[1, 1], [0, 1]];
    # the complex I <- T <- I <- T <- I has every differential's matrix M,
    # but d_1 (T -> I) and d_2 (I -> T) are different maps
    ring = group_algebra(2, cyclic_group_table(2))
    ident = FpMatrix.identity(2, 2)
    act = {"I": ModuleObj(ring, 2, actions=[ident, ident]),
           "T": ModuleObj(ring, 2, actions=[ident, FpMatrix(2, 2, 2, [[1, 1], [0, 1]])])}
    names = "ITITI"
    M = FpMatrix(2, 2, 2, [[0, 1], [0, 0]])
    C = Complex(0, 4, {n: act[x] for n, x in enumerate(names)},
                {n: ModMor(act[names[n]], act[names[n - 1]], M) for n in range(1, 5)})
    assert C.diffs[1].matrix == C.diffs[2].matrix and C.diffs[1] != C.diffs[2]
    assert C.diffs[1] == C.diffs[3] and C.diffs[2] == C.diffs[4]
    images = []
    true_image = abelian.image

    def counted(f):
        images.append(f)
        return true_image(f)

    monkeypatch.setattr(abelian, "image", counted)
    ce = spectral.ce_grid(C, 3)
    assert images == [C.diffs[4], C.diffs[3]]
    assert images[0].source != images[1].source
    monkeypatch.setattr(abelian, "image", true_image)
    assert ce.hsC[3] is ce.hsC[1]
    assert ce.hsC[2] is not ce.hsC[1] and ce.hsZ[2] is not ce.hsZ[1]
    assert grid_maps(ce) == grid_maps(oracle.ce_grid_every_column(C, 3))


PLANTED_REPEATED_COLUMN_FAULT = """
from functor_homology import spectral
from functor_homology.errors import ExactnessError
from functor_homology.functors import base_change
from functor_homology.modules import trivial_module
from functor_homology.rings import (augmentation_map, cyclic_group_table,
                                    group_algebra, group_ring_map)

r2 = group_algebra(2, cyclic_group_table(2))
r4 = group_algebra(2, cyclic_group_table(4))
F = base_change(group_ring_map(r4, r2, [0, 1, 0, 1]))
G = base_change(augmentation_map(r2))
ce = spectral.grothendieck_ss(F, G, trivial_module(r4), 7, with_data=True).ce
# column 3 shares column 1's horseshoes, and its d_h in degree 1 is nonzero
if ce.hsC[3] is not ce.hsC[1] or ce.d_h(3, 1).is_zero():
    raise SystemExit("column 3 is no repeated column with a nonzero d_h")
true_d_h = spectral.CEData.d_h


def zero_at_column_3(self, pdeg, q):
    m = true_d_h(self, pdeg, q)
    return m.source.zero_to(m.target) if (pdeg, q) == (3, 1) else m


spectral.CEData.d_h = zero_at_column_3
try:
    spectral.grothendieck_ss(F, G, trivial_module(r4), 7)
except ExactnessError as e:
    if "not a chain map" not in str(e):
        raise SystemExit(f"unexpected ExactnessError: {e}")
else:
    raise SystemExit("planted fault in a repeated column not detected")
"""


def test_repeated_column_is_still_checked_under_optimize():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for flags in ([], ["-O"]):
        out = subprocess.run([sys.executable, *flags, "-c", PLANTED_REPEATED_COLUMN_FAULT],
                             env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stdout + out.stderr
