import os
import random
import subprocess
import sys

import pytest

from functor_homology import fplinalg
from functor_homology.errors import ExactnessError, RingMismatchError
from functor_homology.fincat import standard
from functor_homology.fplinalg import FpMatrix, inverse, rank
from functor_homology.functors import base_change
from functor_homology.modules import (ModMor, ModuleObj, cyclic, free_module,
                                      identity_mor, trivial_module)
from functor_homology.rings import (augmentation_map, cyclic_group_table,
                                    group_algebra, group_ring_map,
                                    product_group_table)
from functor_homology.spectral import (DoubleComplex, check_acyclic_hypothesis,
                                       grothendieck_ss, ss_componentwise,
                                       ss_pages)
from functor_homology.diagrams import Diagram, constant_diagram
from functor_homology.verification import _closed_form_cell, random_diagram
from oracle import (componentwise_by_canonical_coords,
                    cyclic_group_homology_dims, filtration_by_prefix_kernels,
                    product_c2_homology_dims)

R2 = group_algebra(2, cyclic_group_table(2), label="F2[C2]")
R4 = group_algebra(2, cyclic_group_table(4), label="F2[C4]")
RV = group_algebra(2, product_group_table(cyclic_group_table(2),
                                          cyclic_group_table(2)),
                   label="F2[C2xC2]")
QUOT4 = group_ring_map(R4, R2, [0, 1, 0, 1])
QUOTV = group_ring_map(RV, R2, [0, 1, 0, 1])
AUG2 = augmentation_map(R2)


def test_double_complex_validation():
    with pytest.raises(ExactnessError):
        # d_h fails d.d = 0
        dims = {(0, 0): 1, (1, 0): 1, (2, 0): 1}
        dh = {(1, 0): FpMatrix(2, 1, 1, [[1]]), (2, 0): FpMatrix(2, 1, 1, [[1]])}
        DoubleComplex(2, 2, 0, dims, dh, {})


def test_pages_zero_differentials():
    dims = {(s, t): 1 for s in range(3) for t in range(2)}
    dc = DoubleComplex(2, 2, 1, dims, {}, {})
    ss = ss_pages(dc)
    for r in range(2, ss.r_stop + 1):
        for c in dims:
            assert ss.pages[r].get(c, 0) == 1
    assert ss.degenerates_at_2 and ss.converged()


def test_pages_single_iso_collapses():
    dims = {(0, 0): 1, (1, 0): 1}
    dc = DoubleComplex(2, 1, 0, dims, {(1, 0): FpMatrix(2, 1, 1, [[1]])}, {})
    ss = ss_pages(dc)
    assert ss.pages[2].get((0, 0), 0) == 0
    assert ss.pages[2].get((1, 0), 0) == 0


def test_pages_knight_move_d2():
    dims = {(2, 0): 1, (1, 1): 1, (1, 0): 1, (0, 1): 1}
    dh = {(2, 0): FpMatrix(2, 1, 1, [[1]]), (1, 1): FpMatrix(2, 1, 1, [[1]])}
    dv = {(1, 1): FpMatrix(2, 1, 1, [[1]])}
    dc = DoubleComplex(2, 2, 1, dims, dh, dv)
    ss = ss_pages(dc)
    assert ss.pages[2].get((2, 0), 0) == 1
    d2 = ss.diffs[2].get((2, 0))
    assert d2 is not None and not d2.is_zero()
    assert ss.pages[3].get((2, 0), 0) == 0
    assert not ss.degenerates_at_2
    assert ss.converged()


def test_acyclicity_check():
    F = base_change(QUOT4)
    G = base_change(AUG2)
    # free covers map to frees over the quotient, hence acyclic
    rep = check_acyclic_hypothesis(F, G, [free_module(R4, 1)], 3)
    assert rep.ok()
    # planted non-acyclic witness: the trivial module is not F-acyclic
    rep2 = check_acyclic_hypothesis(F, G, [trivial_module(R4)], 2)
    assert not rep2.ok()
    failing = [e for e in rep2.entries if not e[2]]
    assert failing and failing[0][1] >= 1  # reports the failing degree


def test_integers_rejected():
    from functor_homology.rings import RingMap, ZZ, fp_field
    F = base_change(RingMap(ZZ, fp_field(2)))
    with pytest.raises(RingMismatchError):
        grothendieck_ss(F, F, cyclic(2), 2)


def test_projective_input_degenerates():
    F = base_change(QUOT4)
    G = base_change(AUG2)
    A = free_module(R4, 1)
    ss = grothendieck_ss(F, G, A, 2)
    assert ss.hypothesis_ok and ss.e2_matches and ss.abutment_matches
    # E2 concentrated in q = 0
    for (p, q), d in ss.pages[2].items():
        if q > 0 and p + q <= 2 and d:
            raise AssertionError(f"unexpected cell {(p, q)}")
    assert ss.degenerates_at_2
    assert ss.converged()


def test_c4_fixture_small():
    F = base_change(QUOT4)
    G = base_change(AUG2)
    A = trivial_module(R4)
    ss = grothendieck_ss(F, G, A, 2)
    want_h = cyclic_group_homology_dims(2, 4, 2)
    for n in range(3):
        assert ss.abutment.get(n, 0) == want_h[n] == 1
    for p in range(3):
        for q in range(3):
            assert ss.pages[2].get((p, q), 0) == 1
    assert any(not m.is_zero() for (s, t), m in ss.diffs[2].items()
               if s + t <= 3)
    assert ss.converged() and ss.e2_matches and ss.abutment_matches


def test_c2xc2_fixture_small():
    F = base_change(QUOTV)
    G = base_change(AUG2)
    A = trivial_module(RV)
    ss = grothendieck_ss(F, G, A, 2)
    want = product_c2_homology_dims(2, 2)
    for n in range(3):
        assert ss.abutment.get(n, 0) == want[n] == n + 1
    assert ss.degenerates_at_2
    assert ss.converged() and ss.e2_matches and ss.abutment_matches


@pytest.mark.parametrize("quot, ring", [(QUOT4, R4), (QUOTV, RV)],
                         ids=["C4", "C2xC2"])
def test_pages_match_closed_form_oracle(quot, ring):
    # every page cell against Z^r / B^r solved from scratch
    for n_max in (3, 4, 5):
        gd = grothendieck_ss(base_change(quot), base_change(AUG2),
                             trivial_module(ring), n_max, with_data=True)
        ss, tot = gd.ss, gd.ss.internal.tot
        for r in range(2, ss.r_stop + 1):
            for cells in tot.cells.values():
                for (s, t) in cells:
                    want = _closed_form_cell(gd.dc, tot, r, s, t)
                    assert ss.pages[r].get((s, t), 0) == want, (n_max, r, s, t)
        assert ss.converged() and ss.e2_matches and ss.abutment_matches


# -- twisted double complexes ---------------------------------------------------


def _indecomposables(rng, side):
    """Random squares and zigzags in the grid [0, side]^2, as basis
    elements (cells) and the d_h/d_v edges between them.  Over a field
    every double complex is a direct sum of these (Stelzig, "On the
    structure of double complexes", J. London Math. Soc. 2021); a zigzag
    whose ends both lie in the lower total degree is a staircase, and a
    long staircase carries a nonzero d_r for some r >= 2."""
    cells, edges = [], []

    def add(cell):
        cells.append(cell)
        return len(cells) - 1

    inside = range(side + 1)
    for _ in range(rng.randint(2, 5)):
        if rng.random() < 0.25:
            s, t = rng.randint(1, side), rng.randint(1, side)
            x, y1, y2, z = (add(c) for c in ((s, t), (s - 1, t), (s, t - 1),
                                              (s - 1, t - 1)))
            edges += [("h", x, y1), ("v", x, y2), ("v", y1, z), ("h", y2, z)]
            continue
        # tops x_a at (a, n + 1 - a), bottoms y_b at (b, n - b)
        n = rng.randint(0, 2 * side - 1)
        tops = [a for a in range(n + 2) if a in inside and n + 1 - a in inside]
        if not tops:
            continue
        i = rng.randrange(len(tops))
        tops = tops[i:i + rng.randint(1, 3)]
        lo, hi = tops[0] - rng.randint(0, 1), tops[-1] - rng.randint(0, 1)
        ys = {b: add((b, n - b)) for b in range(lo, hi + 1)
              if b in inside and n - b in inside}
        for a in tops:
            x = add((a, n + 1 - a))
            if a - 1 in ys:
                edges.append(("h", x, ys[a - 1]))
            if a in ys:
                edges.append(("v", x, ys[a]))
    return cells, edges


def _random_invertible(rng, n):
    while True:
        m = FpMatrix(2, n, n, [[rng.randint(0, 1) for _ in range(n)]
                               for _ in range(n)])
        if rank(m) == n:
            return m


def _twisted_double_complex(rng, side=3):
    """A random F_2 double complex that is not a tensor product: a direct
    sum of indecomposables, with a random change of basis in every cell."""
    cells, edges = _indecomposables(rng, side)
    slot = {}
    dims = {}
    for k, c in enumerate(cells):
        slot[k] = dims.get(c, 0)
        dims[c] = slot[k] + 1
    d = {"h": {}, "v": {}}
    for kind, src, tgt in edges:
        (s, t), tc = cells[src], cells[tgt]
        rows = d[kind].setdefault((s, t), [[0] * dims[(s, t)] for _ in range(dims[tc])])
        rows[slot[tgt]][slot[src]] = 1
    base = {c: _random_invertible(rng, n) for c, n in dims.items()}
    for kind, (ds, dt) in (("h", (1, 0)), ("v", (0, 1))):
        for (s, t), rows in d[kind].items():
            m = FpMatrix(2, len(rows), dims[(s, t)], rows)
            d[kind][(s, t)] = base[(s - ds, t - dt)].mul(m).mul(inverse(base[(s, t)]))
    return DoubleComplex(2, side, side, dims, d["h"], d["v"])


def _assert_filtration(ss, ctx):
    # gr_s H_n is E_inf^{s, n-s} inside the window, and the filtration read
    # off one kernel basis is the one solved prefix by prefix
    for n in range(ss.n_valid + 1):
        want = [ss.einf.get((s, n - s), 0) for s in range(n + 1)]
        assert ss.filtration[n] == want, (ctx, n)
    assert ss.filtration == filtration_by_prefix_kernels(ss), ctx


def test_twisted_pages_match_closed_form_oracle():
    # every (r, s, t) cell of non-product double complexes, where pages
    # past E_2 differ, against Z^r / B^r solved from scratch
    rng = random.Random(20261018)
    higher = 0
    for case in range(40):
        dc = _twisted_double_complex(rng)
        ss = ss_pages(dc)
        tot = ss.internal.tot
        for r in range(2, ss.r_stop + 1):
            for cells in tot.cells.values():
                for (s, t) in cells:
                    want = _closed_form_cell(dc, tot, r, s, t)
                    assert ss.pages[r].get((s, t), 0) == want, (case, r, s, t)
        assert ss.converged(), case
        _assert_filtration(ss, case)
        higher += any(not m.is_zero() for r in range(2, ss.r_stop + 1)
                      for m in ss.diffs[r].values())
    assert higher >= 5


@pytest.mark.parametrize("quot, ring", [(QUOT4, R4), (QUOTV, RV)],
                         ids=["C4", "C2xC2"])
def test_abutment_filtration_matches_einf_and_prefix_kernels(quot, ring):
    for n_max in range(3, 9):
        ss = grothendieck_ss(base_change(quot), base_change(AUG2),
                             trivial_module(ring), n_max)
        _assert_filtration(ss, n_max)


def test_ss_pages_solves_one_kernel_per_total_degree(monkeypatch):
    gd = grothendieck_ss(base_change(QUOTV), base_change(AUG2), trivial_module(RV), 4,
                         with_data=True)
    dcs = [gd.dc, _twisted_double_complex(random.Random(7))]
    true_kernel = fplinalg.kernel_basis
    widths = []
    monkeypatch.setattr(fplinalg, "kernel_basis",
                        lambda A: widths.append(A.cols) or true_kernel(A))
    for dc in dcs:
        widths.clear()
        ss = ss_pages(dc)
        dims = ss.internal.tot.dims
        assert widths == [dims[n] for n in sorted(dims) if dims[n]]


def test_componentwise_constant_diagram():
    arrow = standard("arrow")
    F = base_change(QUOT4)
    G = base_change(AUG2)
    A = constant_diagram(arrow, trivial_module(R4))
    res = ss_componentwise(F, G, A, 2)
    assert res.acceptance_ok()
    assert all(res.ident_ok.values())
    # identical components, identity-induced maps at E2
    for (m, cell), mat in res.e2_cell_maps.items():
        if mat.rows == mat.cols and mat.rows:
            assert mat == FpMatrix.identity(2, mat.rows)


def test_componentwise_acceptance_reads_page_squares():
    # a failed d_r naturality square (r >= 3) fails acceptance
    A = constant_diagram(standard("arrow"), trivial_module(R4))
    res = ss_componentwise(base_change(QUOT4), base_change(AUG2), A, 2)
    assert res.acceptance_ok() and not res.page_squares
    res.page_squares[("a", 3, (0, 2))] = False
    assert not res.acceptance_ok()


def test_componentwise_zero_structure_map():
    arrow = standard("arrow")
    F = base_change(QUOT4)
    G = base_change(AUG2)
    T = trivial_module(R4)
    from functor_homology.modules import zero_mor
    A = Diagram(arrow, {"0": T, "1": T},
                {"id_0": identity_mor(T), "id_1": identity_mor(T),
                 "a": zero_mor(T, T)})
    res = ss_componentwise(F, G, A, 2)
    assert res.acceptance_ok()
    for (m, cell), mat in res.e2_cell_maps.items():
        assert mat.is_zero()


def _criterion_10_diagram():
    swap = FpMatrix(2, 2, 2, [[0, 1], [1, 0]])
    ident = FpMatrix.identity(2, 2)
    quot_mod = ModuleObj(R4, gens=2, actions=[ident, swap, ident, swap])
    T = trivial_module(R4)
    return Diagram(standard("arrow"), {"0": quot_mod, "1": T},
                   {"id_0": identity_mor(quot_mod), "id_1": identity_mor(T),
                    "a": ModMor(quot_mod, T, FpMatrix(2, 1, 2, [[1, 1]]))})


def _first_nonzero_draw(seed, shape, ring):
    """The first random diagram at this seed with a nonzero structure map."""
    rng = random.Random(seed)
    while True:
        D = random_diagram(rng, standard(shape), ring)
        if any(not D.maps[m].is_zero() for m in D.index.nonidentity_morphisms()):
            return D


def test_componentwise_matches_canonical_oracle():
    # the diagram grid against one module spectral sequence per object with
    # maps carried in canonical coordinates: the presentations differ, so
    # compare verdicts and the shapes and ranks of every map
    def invariants(m):
        return m.rows, m.cols, rank(m)

    cases = [(base_change(QUOT4), _criterion_10_diagram(), 3)]
    for F, ring in ((base_change(QUOT4), R4), (base_change(QUOTV), RV)):
        for shape in ("arrow", "square"):
            cases += [(F, _first_nonzero_draw(seed, shape, ring), 2) for seed in (2, 3)]
    # the largest square of bench/ss_scaling.py, at about 1.5 s for both routes
    cases.append((base_change(QUOTV), _first_nonzero_draw(20261019, "square", RV), 2))
    G = base_change(AUG2)
    total_rank = 0
    for k, (F, A, n_max) in enumerate(cases):
        new = ss_componentwise(F, G, A, n_max)
        old = componentwise_by_canonical_coords(F, G, A, n_max)
        assert new.acceptance_ok() and old.acceptance_ok(), k
        for verdict in ("ident_ok", "e2_squares", "page_squares",
                        "abutment_filtration_ok", "gr_matches_einf"):
            assert getattr(new, verdict) == getattr(old, verdict), (k, verdict)
        for (u, cell), m in old.e2_cell_maps.items():
            assert invariants(new.e2_cell_maps[(u, cell)]) == invariants(m), (k, u, cell)
            assert invariants(new.page_maps[(u, 2, cell)]) == invariants(m), (k, u, cell)
        assert new.page_maps.keys() == old.page_maps.keys()
        for key, m in old.page_maps.items():
            assert invariants(new.page_maps[key]) == invariants(m), (k, key)
            total_rank += rank(m)
        assert new.abutment_maps.keys() == old.abutment_maps.keys()
        for key, m in old.abutment_maps.items():
            assert invariants(new.abutment_maps[key]) == invariants(m), (k, key)
    assert total_rank >= 50  # the maps compared are far from zero


PLANTED_STRUCTURE_FAULT = """
from functor_homology import spectral
from functor_homology.diagrams import Diagram, constant_diagram
from functor_homology.errors import ExactnessError
from functor_homology.fincat import standard
from functor_homology.functors import base_change
from functor_homology.modules import trivial_module, zero_mor
from functor_homology.rings import (augmentation_map, cyclic_group_table,
                                    group_algebra, group_ring_map)

R4 = group_algebra(2, cyclic_group_table(4))
R2 = group_algebra(2, cyclic_group_table(2))
F = base_change(group_ring_map(R4, R2, [0, 1, 0, 1]))
G = base_change(augmentation_map(R2))
A = constant_diagram(standard("arrow"), trivial_module(R4))
true_grid = spectral._g_grid


def zero_at_a(d):
    return Diagram(d.index, d.components,
                   {**d.maps, "a": zero_mor(d.components["0"], d.components["1"])})


def planted(which):
    def grid(G, ce):
        cells, h, v = true_grid(G, ce)
        if isinstance(cells[(0, 0)], Diagram):
            hit = [c for c, d in cells.items() if not d.maps["a"].is_zero()]
            for c in hit[:1] if which == "one" else hit:
                cells[c] = zero_at_a(cells[c])
        return cells, h, v
    return grid


# one corrupted cell map: the cell maps are no chain map of the totals
spectral._g_grid = planted("one")
try:
    spectral.ss_componentwise(F, G, A, 2)
except ExactnessError as e:
    if "not a chain map" not in str(e):
        raise SystemExit(f"unexpected ExactnessError: {e}")
else:
    raise SystemExit("planted cell map fault not detected")
# every cell map zero: a chain map, but not (L_s G)(L_t F) of the identity
spectral._g_grid = planted("all")
res = spectral.ss_componentwise(F, G, A, 2)
if res.acceptance_ok() or all(res.e2_ident.values()):
    raise SystemExit("planted zero structure map not detected")
"""


PLANTED_RANK_FAULT = """
from functor_homology import spectral
from functor_homology.errors import ExactnessError
from functor_homology.spectral import DoubleComplex, ss_pages

true_rank = spectral.fplinalg.rank
spectral.fplinalg.rank = lambda A: true_rank(A) + 1
# E2 cells at (2, 0) and (0, 1), so d2 between them is recorded (as zero)
dc = DoubleComplex(2, 2, 1, {(2, 0): 1, (0, 1): 1}, {}, {})
try:
    ss_pages(dc)
except ExactnessError as e:
    assert "page recursion failed" in str(e), e
else:
    raise SystemExit("planted rank fault not detected")
"""


PLANTED_REDUCTION_FAULT = """
from functor_homology import spectral
from functor_homology.errors import ExactnessError
from functor_homology.fplinalg import FpMatrix, inverse, rank
from functor_homology.spectral import DoubleComplex, ss_pages

true_reduce = spectral._reduce


def bad_reduce(p, D):
    V, R, low = true_reduce(p, D)
    if V:
        V[-1][-1] = 0  # V no longer carries D onto R
    return V, R, low


spectral._reduce = bad_reduce
# one isomorphism (1, 0) -> (0, 0), so D[1] * V = R is nonzero
dc = DoubleComplex(2, 1, 0, {(0, 0): 1, (1, 0): 1},
                   {(1, 0): FpMatrix(2, 1, 1, [[1]])}, {})
try:
    ss_pages(dc)
except ExactnessError as e:
    if "D*V = R" not in str(e):
        raise SystemExit(f"unexpected ExactnessError: {e}")
else:
    raise SystemExit("planted reduction fault not detected")
"""


PLANTED_KERNEL_SHAPE_FAULT = """
from functor_homology import spectral
from functor_homology.errors import ExactnessError
from functor_homology.spectral import DoubleComplex, ss_pages

true_kernel = spectral.fplinalg.kernel_basis
spectral.fplinalg.kernel_basis = lambda A: true_kernel(A)[::-1]
# Tot_1 is two cells with zero differentials: its kernel basis has two
# vectors, now ending at descending coordinates
dc = DoubleComplex(2, 1, 1, {(1, 0): 1, (0, 1): 1}, {}, {})
try:
    ss_pages(dc)
except ExactnessError as e:
    if "distinct ascending" not in str(e):
        raise SystemExit(f"unexpected ExactnessError: {e}")
else:
    raise SystemExit("planted kernel basis order not detected")
"""


def test_page_invariants_hold_under_optimize():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for script in (PLANTED_RANK_FAULT, PLANTED_REDUCTION_FAULT,
                   PLANTED_STRUCTURE_FAULT, PLANTED_KERNEL_SHAPE_FAULT):
        for flags in ([], ["-O"]):
            out = subprocess.run([sys.executable, *flags, "-c", script],
                                 env=env, capture_output=True, text=True,
                                 timeout=120)
            assert out.returncode == 0, out.stdout + out.stderr


def test_spectral_sequences_build_no_dense_view(monkeypatch):
    # over F_2 a matrix is its packed rows; `FpMatrix.data` is a view for
    # printing and tests, and no step of the spectral sequence reads it
    def no_view(m):
        raise AssertionError("a dense view of an F_2 matrix was built")

    arrow = standard("arrow")
    swap = FpMatrix(2, 2, 2, [[0, 1], [1, 0]])
    ident = FpMatrix.identity(2, 2)
    quot_mod = ModuleObj(R4, gens=2, actions=[ident, swap, ident, swap])
    T = trivial_module(R4)
    A = Diagram(arrow, {"0": quot_mod, "1": T},
                {"id_0": identity_mor(quot_mod), "id_1": identity_mor(T),
                 "a": ModMor(quot_mod, T, FpMatrix(2, 1, 2, [[1, 1]]))})
    monkeypatch.setattr(FpMatrix, "data", property(no_view))
    ss = grothendieck_ss(base_change(QUOTV), base_change(AUG2), trivial_module(RV), 3)
    assert ss.converged() and ss.e2_matches and ss.abutment_matches
    res = ss_componentwise(base_change(QUOT4), base_change(AUG2), A, 3)
    assert res.acceptance_ok()
