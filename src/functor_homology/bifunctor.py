"""The derived tensor bifunctor over a commutative base.

Tor can be computed by resolving either variable; the canonical
comparison between the two routes goes through the total complex of the
double tensor complex and is verified to be an isomorphism instance by
instance.

Ladders: a morphism of short exact sequences in one variable plus a
morphism in the other yields two long exact rows and vertical maps; every
square, including the connecting squares, is checked to commute.  Every
map of a ladder is built one way: lift a map in the resolved variable,
tensor it with a map in the other variable, pass to homology.  A diagram
ladder over the product index I x J is the base ladder at every cell
(i, j), plus the structure maps along (u, v) built the same way; the
identification of (F^I)^J with F^{I x J} is part of the functoriality
checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import abelian, tensorops
from .complexes import (ChainMap, Complex, SES, SESOfComplexes, homology_at,
                        induced_on_homology)
from .derived import (LES, _les_from_sesc, derived_data, les_data,
                      lift_resolution_map, resolve)
from .diagrams import DiagMor, Diagram, d_exactness_report
from .errors import ExactnessError
from .fincat import product as cat_product
from .functors import apply_to_complex, tensor_with
from .modules import ModMor, ModuleObj, nary_biproduct


def tensor_by(M: ModuleObj, side="right"):
    """The functor (-) (x) M (side='right') or M (x) (-) (side='left')."""
    return tensor_with(M, side=side)


def tensor(A: ModuleObj, B: ModuleObj) -> ModuleObj:
    return tensorops.tensor_obj(A, B)


def tor_first(A: ModuleObj, B: ModuleObj, n) -> ModuleObj:
    """Tor_n computed by resolving the first variable."""
    return derived_data(tensor_by(B, "right"), A, n).obj


def tor_second(A: ModuleObj, B: ModuleObj, n) -> ModuleObj:
    """Tor_n computed by resolving the second variable."""
    return derived_data(tensor_by(A, "left"), B, n).obj


@dataclass
class BalanceResult:
    first: ModuleObj
    second: ModuleObj
    map: ModMor
    iso: bool


def balance_comparison(A: ModuleObj, B: ModuleObj, n) -> BalanceResult:
    """Canonical map tor_first -> tor_second through the total complex of
    the double tensor complex; both legs are verified to be isomorphisms."""
    dd1 = derived_data(tensor_by(B, "right"), A, n)
    dd2 = derived_data(tensor_by(A, "left"), B, n)
    res_a, res_b = dd1.res, dd2.res
    hi = n + 1
    cells = {k: [(p, k - p) for p in range(0, k + 1)] for k in range(0, hi + 1)}
    grids = {}
    for k, cs in cells.items():
        mods = [tensorops.tensor_obj(res_a.term(p), res_b.term(q)) for p, q in cs]
        grids[k] = nary_biproduct(mods, ring=A.ring)
    ident_a = {p: res_a.term(p).identity() for p in range(hi + 1)}
    ident_b = {q: res_b.term(q).identity() for q in range(hi + 1)}
    objects = {k: grids[k].obj for k in range(hi + 1)}
    diffs = {}
    for k in range(1, hi + 1):
        acc = objects[k].zero_to(objects[k - 1])
        tgt_pos = {pq: t for t, pq in enumerate(cells[k - 1])}
        for s, (p, q) in enumerate(cells[k]):
            proj = grids[k].projs[s]
            if p > 0:
                horiz = tensorops.tensor_mor(res_a.diff(p), ident_b[q])
                acc = acc + proj.then(horiz).then(grids[k - 1].injs[tgt_pos[(p - 1, q)]])
            if q > 0:
                vert = tensorops.tensor_mor(ident_a[p], res_b.diff(q))
                if p % 2 == 1:
                    vert = -vert
                acc = acc + proj.then(vert).then(grids[k - 1].injs[tgt_pos[(p, q - 1)]])
        diffs[k] = acc
    tot = Complex(0, hi, objects, diffs)
    phi_comps = {}
    psi_comps = {}
    for k in range(hi + 1):
        acc1 = objects[k].zero_to(dd1.fcomplex.objects[k])
        acc2 = objects[k].zero_to(dd2.fcomplex.objects[k])
        for s, (p, q) in enumerate(cells[k]):
            if q == 0:
                acc1 = acc1 + grids[k].projs[s].then(
                    tensorops.tensor_mor(ident_a[p], res_b.aug()))
            if p == 0:
                acc2 = acc2 + grids[k].projs[s].then(
                    tensorops.tensor_mor(res_a.aug(), ident_b[q]))
        phi_comps[k] = acc1
        psi_comps[k] = acc2
    phi = ChainMap(tot, dd1.fcomplex, phi_comps)
    psi = ChainMap(tot, dd2.fcomplex, psi_comps)
    sub_tot = homology_at(tot, n)
    h_phi = induced_on_homology(phi.at(n), sub_tot, dd1.sub)
    h_psi = induced_on_homology(psi.at(n), sub_tot, dd2.sub)
    if not abelian.is_iso(h_phi):
        raise ExactnessError("first leg of the balance zig-zag is not iso")
    if not abelian.is_iso(h_psi):
        raise ExactnessError("second leg of the balance zig-zag is not iso")
    bal = h_phi.inverse().then(h_psi)
    return BalanceResult(dd1.obj, dd2.obj, bal, abelian.is_iso(bal))


# -- base-level ladders -------------------------------------------------------


_COLS = ("L", "M", "N")


def _constant(h):
    """The same map in every column."""
    return dict.fromkeys(_COLS, h)


def _ses_maps(mors):
    """The three verticals of a morphism of short exact sequences."""
    return {"L": mors.uL, "M": mors.uM, "N": mors.uN}


@dataclass
class LadderResult:
    row_src: LES
    row_dst: LES
    vmaps: dict
    squares: dict = field(default_factory=dict)

    def rows_exact(self) -> bool:
        return self.row_src.all_exact() and self.row_dst.all_exact()

    def all_squares(self) -> bool:
        return all(self.squares.values())

    def passed(self) -> bool:
        return self.rows_exact() and self.all_squares()


@dataclass
class _Cell:
    """One long exact row of a ladder, with the resolution of the resolved
    (first) variable behind each of its columns L, M, N."""
    les: LES
    sesc: SESOfComplexes
    res: dict

    def column(self, col) -> Complex:
        return {"L": self.sesc.sub, "M": self.sesc.mid, "N": self.sesc.quo}[col]


def _les_cell(A: ModuleObj, ses: SES, n_max) -> _Cell:
    """Row of Tor(-, A) along ses, resolving ses by the horseshoe."""
    ld = les_data(tensor_by(A, "right"), ses, n_max)
    return _Cell(ld.les, ld.sesc, {"L": resolve(ses.L, n_max + 1),
                                   "M": ld.hs.res_mid,
                                   "N": resolve(ses.N, n_max + 1)})


def _switched_cell(A: ModuleObj, ses: SES, n_max) -> _Cell:
    """Row of Tor(A, -) along ses, resolving A (see `switched_row`)."""
    row = switched_row(A, ses, n_max)
    return _Cell(row.les, row.sesc, _constant(row.res))


def _induced_maps(c1: _Cell, c2: _Cell, first: dict, second: dict,
                  n_max) -> dict:
    """{(col, n): H_n(c1) -> H_n(c2)}: lift first[col] between the column
    resolutions, tensor with second[col] and pass to homology.  Every map
    of every ladder is built here: the verticals, and over I x J also the
    structure maps along (u, v)."""
    maps = {}
    for col in _COLS:
        lift = lift_resolution_map(first[col], c1.res[col], c2.res[col],
                                   n_max + 1)
        for n in range(0, n_max + 1):
            maps[(col, n)] = induced_on_homology(
                tensorops.tensor_mor(lift[n], second[col]),
                homology_at(c1.column(col), n), homology_at(c2.column(col), n))
    return maps


def _ladder(c1: _Cell, c2: _Cell, first: dict, second: dict,
            n_max) -> LadderResult:
    """The ladder between two cells, with every square checked."""
    r1, r2 = c1.les, c2.les
    v = _induced_maps(c1, c2, first, second, n_max)
    result = LadderResult(r1, r2, v)
    for n in range(0, n_max + 1):
        result.squares[("lm", n)] = (
            r1.lm[n].then(v[("M", n)]) == v[("L", n)].then(r2.lm[n]))
        result.squares[("mn", n)] = (
            r1.mn[n].then(v[("N", n)]) == v[("M", n)].then(r2.mn[n]))
    for n in range(1, n_max + 1):
        result.squares[("delta", n)] = (
            r1.delta[n].then(v[("L", n - 1)]) == v[("N", n)].then(r2.delta[n]))
    return result


def ladder(mors, g: ModMor, n_max) -> LadderResult:
    """Rows: long exact sequences of Tor(-, A) and Tor(-, B) for a
    morphism of short exact sequences in the first variable; verticals
    combine it with g: A -> B in the second variable."""
    return _ladder(_les_cell(g.source, mors.src, n_max),
                   _les_cell(g.target, mors.dst, n_max),
                   _ses_maps(mors), _constant(g), n_max)


@dataclass
class SwitchedRowData:
    les: LES
    sesc: SESOfComplexes
    res: object  # resolution of the fixed first-variable object


def switched_row(A: ModuleObj, ses: SES, n_max) -> SwitchedRowData:
    """Long exact row of Tor(A, -) obtained by resolving A and using the
    degreewise exactness of (free) (x) (-)."""
    key = ("switched_row", ses, n_max)
    if key not in A._cache:
        res = resolve(A, n_max + 1)
        base = res.complex(n_max + 1)
        subc = apply_to_complex(tensor_by(ses.L, "right"), base)
        midc = apply_to_complex(tensor_by(ses.M, "right"), base)
        quoc = apply_to_complex(tensor_by(ses.N, "right"), base)
        incl = ChainMap(subc, midc,
                        {k: tensorops.tensor_mor(res.term(k).identity(), ses.f)
                         for k in range(n_max + 2)})
        proj = ChainMap(midc, quoc,
                        {k: tensorops.tensor_mor(res.term(k).identity(), ses.g)
                         for k in range(n_max + 2)})
        sesc = SESOfComplexes(subc, midc, quoc, incl, proj)
        les = _les_from_sesc(sesc, n_max)
        A._cache[key] = SwitchedRowData(les, sesc, res)
    return A._cache[key]


def ladder_switched(mors, f: ModMor, n_max) -> LadderResult:
    """Rows in the second variable (resolving the first), verticals from
    f: A -> B in the first variable and the SES morphism in the second."""
    return _ladder(_switched_cell(f.source, mors.src, n_max),
                   _switched_cell(f.target, mors.dst, n_max),
                   _constant(f), _ses_maps(mors), n_max)


# -- diagram-level ladders ----------------------------------------------------


def _pair_label(i, j):
    return f"({i},{j})"


def _component_ses(dses: SES, i) -> SES:
    key = ("component_ses", i)
    if key not in dses._cache:
        dses._cache[key] = SES(dses.f.component(i), dses.g.component(i),
                               check=False)
    return dses._cache[key]


@dataclass
class DiagLadderResult:
    index: object  # the product index category
    row_src: dict  # n -> {'L'/'M'/'N': Diagram}, plus maps below
    row_dst: dict
    lm_src: dict
    mn_src: dict
    delta_src: dict
    lm_dst: dict
    mn_dst: dict
    delta_dst: dict
    vmaps: dict
    squares: dict
    exact: dict
    route_checks: dict

    def rows_exact(self) -> bool:
        return all(self.exact.values())

    def all_squares(self) -> bool:
        return all(self.squares.values())

    def routes_agree(self) -> bool:
        return all(self.route_checks.values())

    def passed(self) -> bool:
        return self.rows_exact() and self.all_squares() and self.routes_agree()


def _diagram_row(K, I, J, cells, first, second, n_max):
    """One row over K = I x J: the base row at every cell (i, j), glued
    along (u, v) by the maps induced by first[col].maps[u] (over I) and
    second[col].maps[v] (over J).  Every Diagram and DiagMor is checked."""
    along = {}
    for u in I.mor_names:
        for v in J.mor_names:
            w = _pair_label(u, v)
            along[w] = None if K.is_identity(w) else _induced_maps(
                cells[(I.src(u), J.src(v))], cells[(I.tgt(u), J.tgt(v))],
                {col: first[col].maps[u] for col in _COLS},
                {col: second[col].maps[v] for col in _COLS}, n_max)
    rows = {}
    for n in range(0, n_max + 1):
        rows[n] = {}
        for col in _COLS:
            comps = {_pair_label(*ij): homology_at(c.column(col), n).obj
                     for ij, c in cells.items()}
            maps = {w: comps[K.src(w)].identity() if m is None else m[(col, n)]
                    for w, m in along.items()}
            rows[n][col] = Diagram(K, comps, maps)

    def les_map(source, target, kind, n):
        return DiagMor(source, target,
                       {_pair_label(*ij): getattr(c.les, kind)[n]
                        for ij, c in cells.items()})

    lm = {n: les_map(rows[n]["L"], rows[n]["M"], "lm", n)
          for n in range(0, n_max + 1)}
    mn = {n: les_map(rows[n]["M"], rows[n]["N"], "mn", n)
          for n in range(0, n_max + 1)}
    delta = {n: les_map(rows[n]["N"], rows[n - 1]["L"], "delta", n)
             for n in range(1, n_max + 1)}
    return rows, lm, mn, delta


def _row_exactness(exact, tag, lm, mn, delta, n_max):
    for n in range(0, n_max + 1):
        exact[(tag, "M", n)] = d_exactness_report(lm[n], mn[n])[0]
        if n >= 1:
            exact[(tag, "N", n)] = d_exactness_report(mn[n], delta[n])[0]
            exact[(tag, "L", n - 1)] = d_exactness_report(delta[n], lm[n - 1])[0]
        else:
            exact[(tag, "N", 0)] = mn[0].is_epi()


def _route_identities(K, I, J, rows, route_checks, tag):
    """(F^I)^J = F^{I x J} = (F^J)^I on structure maps: the directly
    computed map at (u,v) equals both iterated composites."""
    for n, per_col in rows.items():
        for col, diag in per_col.items():
            for u in I.nonidentity_morphisms():
                for v in J.nonidentity_morphisms():
                    w = _pair_label(u, v)
                    first_then_second = K.comp[(
                        _pair_label(I.identity[I.tgt(u)], v),
                        _pair_label(u, J.identity[J.src(v)]))]
                    if first_then_second != w:
                        raise ExactnessError(
                            f"product index composes {u}, {v} wrongly")
                    via_i = diag.maps[_pair_label(u, J.identity[J.src(v)])].then(
                        diag.maps[_pair_label(I.identity[I.tgt(u)], v)])
                    via_j = diag.maps[_pair_label(I.identity[I.src(u)], v)].then(
                        diag.maps[_pair_label(u, J.identity[J.tgt(v)])])
                    direct = diag.maps[w]
                    route_checks[(tag, col, n, u, v)] = (
                        direct == via_i and direct == via_j)


def _diagram_ladder(cells, first, second, n_max) -> DiagLadderResult:
    """The ladder over K = I x J, I indexing the resolved variable.

    cells: (source side, target side), each {(i, j): _Cell};
    first, second: per column, the diagram morphisms over I and over J
    whose components give the verticals.  The verticals and squares at
    (i, j) are those of the base ladder at that cell."""
    I, J = first["L"].index, second["L"].index
    K = cat_product(I, J)
    rows_src, lm_s, mn_s, d_s = _diagram_row(
        K, I, J, cells[0], {c: m.source for c, m in first.items()},
        {c: m.source for c, m in second.items()}, n_max)
    rows_dst, lm_d, mn_d, d_d = _diagram_row(
        K, I, J, cells[1], {c: m.target for c, m in first.items()},
        {c: m.target for c, m in second.items()}, n_max)
    base = {(i, j): _ladder(c, cells[1][(i, j)],
                            {col: first[col].comps[i] for col in _COLS},
                            {col: second[col].comps[j] for col in _COLS}, n_max)
            for (i, j), c in cells[0].items()}
    vmaps = {}
    for col in _COLS:
        for n in range(0, n_max + 1):
            vmaps[(col, n)] = DiagMor(
                rows_src[n][col], rows_dst[n][col],
                {_pair_label(*ij): b.vmaps[(col, n)] for ij, b in base.items()})
    squares = {}
    for b in base.values():
        for key, ok in b.squares.items():
            squares[key] = squares.get(key, True) and ok
    exact = {}
    _row_exactness(exact, "src", lm_s, mn_s, d_s, n_max)
    _row_exactness(exact, "dst", lm_d, mn_d, d_d, n_max)
    route_checks = {}
    _route_identities(K, I, J, rows_src, route_checks, "src")
    _route_identities(K, I, J, rows_dst, route_checks, "dst")
    return DiagLadderResult(K, rows_src, rows_dst, lm_s, mn_s, d_s,
                            lm_d, mn_d, d_d, vmaps, squares, exact,
                            route_checks)


def diagram_ladder(mors, g: DiagMor, n_max) -> DiagLadderResult:
    """Two-variable ladder for a morphism of short exact sequences of
    diagrams (first variable, over I) against a diagram morphism (second
    variable, over J); everything lives over the product index."""
    def cells(dses, A):
        return {(i, j): _les_cell(A.components[j], _component_ses(dses, i),
                                  n_max)
                for i in dses.L.index.objects for j in A.index.objects}
    return _diagram_ladder((cells(mors.src, g.source),
                            cells(mors.dst, g.target)),
                           _ses_maps(mors), _constant(g), n_max)


def diagram_ladder_switched(mors, f: DiagMor, n_max) -> DiagLadderResult:
    """Switched variables: SES morphism of diagrams over J in the second
    slot, diagram morphism over I in the first; rows resolve the first
    variable componentwise."""
    def cells(A, dses):
        return {(i, j): _switched_cell(A.components[i],
                                       _component_ses(dses, j), n_max)
                for i in A.index.objects for j in dses.L.index.objects}
    return _diagram_ladder((cells(f.source, mors.src),
                            cells(f.target, mors.dst)),
                           _constant(f), _ses_maps(mors), n_max)
