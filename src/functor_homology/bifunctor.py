"""The derived tensor bifunctor over a commutative base.

Tor can be computed by resolving either variable; the canonical
comparison between the two routes goes through the total complex of the
double tensor complex and is verified to be an isomorphism instance by
instance.

Ladders: a morphism of short exact sequences in one variable plus a
morphism in the other yields two long exact rows and vertical maps; every
square, including the connecting squares, is checked to commute.  The
same construction runs over diagram categories, where the rows live over
the product index and the identification of (F^I)^J with F^{I x J} is
part of the functoriality checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import abelian, tensorops
from .complexes import (ChainMap, Complex, SES, SESOfComplexes, homology_at,
                        induced_on_homology)
from .derived import (LES, LesData, _les_from_sesc, derived_data,
                      horseshoe_data_for, les_data, lift_resolution_map,
                      resolve)
from .diagrams import DiagMor, Diagram, d_exactness_report
from .errors import ExactnessError
from .fincat import product as cat_product
from .functors import apply_to_complex, tensor_with
from .modules import ModMor, ModuleObj, identity_mor, nary_biproduct

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
    ident_a = {p: identity_mor(res_a.term(p)) for p in range(hi + 1)}
    ident_b = {q: identity_mor(res_b.term(q)) for q in range(hi + 1)}
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


def _ladder_squares(result: LadderResult, n_max):
    r1, r2, v = result.row_src, result.row_dst, result.vmaps
    for n in range(0, n_max + 1):
        result.squares[("lm", n)] = (
            r1.lm[n].then(v[("M", n)]) == v[("L", n)].then(r2.lm[n]))
        result.squares[("mn", n)] = (
            r1.mn[n].then(v[("N", n)]) == v[("M", n)].then(r2.mn[n]))
    for n in range(1, n_max + 1):
        result.squares[("delta", n)] = (
            r1.delta[n].then(v[("L", n - 1)]) == v[("N", n)].then(r2.delta[n]))


def ladder(mors, g: ModMor, n_max) -> LadderResult:
    """Rows: long exact sequences of Tor(-, A) and Tor(-, B) for a
    morphism of short exact sequences in the first variable; verticals
    combine it with g: A -> B in the second variable."""
    A, B = g.source, g.target
    ld1 = les_data(tensor_by(A, "right"), mors.src, n_max)
    ld2 = les_data(tensor_by(B, "right"), mors.dst, n_max)

    def col_res(ld: LesData, ses: SES, col):
        if col == "L":
            return resolve(ses.L, n_max + 1)
        if col == "N":
            return resolve(ses.N, n_max + 1)
        return ld.hs.res_mid

    def col_complex(ld: LesData, col):
        return {"L": ld.sesc.sub, "M": ld.sesc.mid, "N": ld.sesc.quo}[col]

    vmaps = {}
    for col, u in (("L", mors.uL), ("M", mors.uM), ("N", mors.uN)):
        res1 = col_res(ld1, mors.src, col)
        res2 = col_res(ld2, mors.dst, col)
        lift = lift_resolution_map(u, res1, res2, n_max + 1)
        for n in range(0, n_max + 1):
            phi = tensorops.tensor_mor(lift[n], g)
            vmaps[(col, n)] = induced_on_homology(
                phi, homology_at(col_complex(ld1, col), n),
                homology_at(col_complex(ld2, col), n))
    result = LadderResult(ld1.les, ld2.les, vmaps)
    _ladder_squares(result, n_max)
    return result


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
                        {k: tensorops.tensor_mor(identity_mor(res.term(k)), ses.f)
                         for k in range(n_max + 2)})
        proj = ChainMap(midc, quoc,
                        {k: tensorops.tensor_mor(identity_mor(res.term(k)), ses.g)
                         for k in range(n_max + 2)})
        sesc = SESOfComplexes(subc, midc, quoc, incl, proj)
        les = _les_from_sesc(sesc, n_max)
        A._cache[key] = SwitchedRowData(les, sesc, res)
    return A._cache[key]


def ladder_switched(mors, f: ModMor, n_max) -> LadderResult:
    """Rows in the second variable (resolving the first), verticals from
    f: A -> B in the first variable and the SES morphism in the second."""
    row1 = switched_row(f.source, mors.src, n_max)
    row2 = switched_row(f.target, mors.dst, n_max)
    lift = lift_resolution_map(f, row1.res, row2.res, n_max + 1)

    def col_complex(row, col):
        return {"L": row.sesc.sub, "M": row.sesc.mid, "N": row.sesc.quo}[col]

    vmaps = {}
    for col, u in (("L", mors.uL), ("M", mors.uM), ("N", mors.uN)):
        for n in range(0, n_max + 1):
            phi = tensorops.tensor_mor(lift[n], u)
            vmaps[(col, n)] = induced_on_homology(
                phi, homology_at(col_complex(row1, col), n),
                homology_at(col_complex(row2, col), n))
    result = LadderResult(row1.les, row2.les, vmaps)
    _ladder_squares(result, n_max)
    return result


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


def _assemble_rows(K, I, J, cols, n_max, cell_sub, cell_map, cell_les_maps):
    """Shared assembly: build row diagrams over the product index, the
    internal LES maps, and the connecting maps, checking naturality and
    functoriality throughout."""
    rows = {}
    for n in range(0, n_max + 1):
        per_col = {}
        for col in cols:
            comps = {_pair_label(i, j): cell_sub(i, j, col, n).obj
                     for i in I.objects for j in J.objects}
            maps = {}
            for u in I.mor_names:
                for v in J.mor_names:
                    w = _pair_label(u, v)
                    if K.is_identity(w):
                        maps[w] = comps[K.src(w)].identity()
                    else:
                        maps[w] = cell_map(u, v, col, n)
            per_col[col] = Diagram(K, comps, maps)
        rows[n] = per_col
    lm = {}
    mn = {}
    delta = {}
    for n in range(0, n_max + 1):
        lm[n] = DiagMor(rows[n]["L"], rows[n]["M"],
                        {_pair_label(i, j): cell_les_maps(i, j, "lm", n)
                         for i in I.objects for j in J.objects})
        mn[n] = DiagMor(rows[n]["M"], rows[n]["N"],
                        {_pair_label(i, j): cell_les_maps(i, j, "mn", n)
                         for i in I.objects for j in J.objects})
    for n in range(1, n_max + 1):
        delta[n] = DiagMor(rows[n]["N"], rows[n - 1]["L"],
                           {_pair_label(i, j): cell_les_maps(i, j, "delta", n)
                            for i in I.objects for j in J.objects})
    return rows, lm, mn, delta


def _row_exactness(exact, tag, lm, mn, delta, n_max):
    for n in range(0, n_max + 1):
        exact[(tag, "M", n)] = d_exactness_report(lm[n], mn[n])[0]
        if n >= 1:
            exact[(tag, "N", n)] = d_exactness_report(mn[n], delta[n])[0]
            exact[(tag, "L", n - 1)] = d_exactness_report(delta[n], lm[n - 1])[0]
        else:
            exact[(tag, "N", 0)] = abelian.is_epi(mn[0])


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


def diagram_ladder(mors, g: DiagMor, n_max) -> DiagLadderResult:
    """Two-variable ladder for a morphism of short exact sequences of
    diagrams (first variable, over I) against a diagram morphism (second
    variable, over J); everything lives over the product index."""
    dses_src, dses_dst = mors.src, mors.dst
    I = dses_src.L.index
    J = g.index
    K = cat_product(I, J)
    As, Bs = g.source, g.target

    def cell(i, j, side):
        dses, second = (dses_src, As) if side == 0 else (dses_dst, Bs)
        return les_data(tensor_by(second.components[j], "right"),
                        _component_ses(dses, i), n_max)

    def col_res(i, side, col):
        dses = dses_src if side == 0 else dses_dst
        ses_i = _component_ses(dses, i)
        if col == "L":
            return resolve(ses_i.L, n_max + 1)
        if col == "N":
            return resolve(ses_i.N, n_max + 1)
        return horseshoe_data_for(ses_i, n_max + 1).res_mid

    def cell_sub(i, j, col, n, side=0):
        ld = cell(i, j, side)
        cx = {"L": ld.sesc.sub, "M": ld.sesc.mid, "N": ld.sesc.quo}[col]
        return homology_at(cx, n)

    def diag_of(side):
        return {"L": (dses_src if side == 0 else dses_dst).L,
                "M": (dses_src if side == 0 else dses_dst).M,
                "N": (dses_src if side == 0 else dses_dst).N}

    def cell_map_side(u, v, col, n, side):
        i, i2 = I.src(u), I.tgt(u)
        j, j2 = J.src(v), J.tgt(v)
        X = diag_of(side)[col]
        second = As if side == 0 else Bs
        lift = lift_resolution_map(X.maps[u], col_res(i, side, col),
                                   col_res(i2, side, col), n_max + 1)
        phi = tensorops.tensor_mor(lift[n], second.maps[v])
        return induced_on_homology(phi, cell_sub(i, j, col, n, side),
                                   cell_sub(i2, j2, col, n, side))

    def les_maps(side):
        def inner(i, j, kind, n):
            ld = cell(i, j, side)
            if kind == "lm":
                return ld.les.lm[n]
            if kind == "mn":
                return ld.les.mn[n]
            return ld.les.delta[n]
        return inner

    rows_src, lm_s, mn_s, d_s = _assemble_rows(
        K, I, J, ("L", "M", "N"), n_max,
        lambda i, j, col, n: cell_sub(i, j, col, n, 0),
        lambda u, v, col, n: cell_map_side(u, v, col, n, 0), les_maps(0))
    rows_dst, lm_d, mn_d, d_d = _assemble_rows(
        K, I, J, ("L", "M", "N"), n_max,
        lambda i, j, col, n: cell_sub(i, j, col, n, 1),
        lambda u, v, col, n: cell_map_side(u, v, col, n, 1), les_maps(1))

    umaps = {"L": mors.uL, "M": mors.uM, "N": mors.uN}
    vmaps = {}
    for col in ("L", "M", "N"):
        for n in range(0, n_max + 1):
            comps = {}
            for i in I.objects:
                lift = lift_resolution_map(umaps[col].component(i),
                                           col_res(i, 0, col),
                                           col_res(i, 1, col), n_max + 1)
                for j in J.objects:
                    phi = tensorops.tensor_mor(lift[n], g.comps[j])
                    comps[_pair_label(i, j)] = induced_on_homology(
                        phi, cell_sub(i, j, col, n, 0),
                        cell_sub(i, j, col, n, 1))
            vmaps[(col, n)] = DiagMor(rows_src[n][col], rows_dst[n][col], comps)

    exact = {}
    _row_exactness(exact, "src", lm_s, mn_s, d_s, n_max)
    _row_exactness(exact, "dst", lm_d, mn_d, d_d, n_max)
    squares = {}
    for n in range(0, n_max + 1):
        squares[("lm", n)] = (lm_s[n].then(vmaps[("M", n)])
                              == vmaps[("L", n)].then(lm_d[n]))
        squares[("mn", n)] = (mn_s[n].then(vmaps[("N", n)])
                              == vmaps[("M", n)].then(mn_d[n]))
    for n in range(1, n_max + 1):
        squares[("delta", n)] = (d_s[n].then(vmaps[("L", n - 1)])
                                 == vmaps[("N", n)].then(d_d[n]))
    route_checks = {}
    _route_identities(K, I, J, rows_src, route_checks, "src")
    _route_identities(K, I, J, rows_dst, route_checks, "dst")
    return DiagLadderResult(K, rows_src, rows_dst, lm_s, mn_s, d_s,
                            lm_d, mn_d, d_d, vmaps, squares, exact,
                            route_checks)


def diagram_ladder_switched(mors, f: DiagMor, n_max) -> DiagLadderResult:
    """Switched variables: SES morphism of diagrams over J in the second
    slot, diagram morphism over I in the first; rows resolve the first
    variable componentwise."""
    dses_src, dses_dst = mors.src, mors.dst
    J = dses_src.L.index
    I = f.index
    K = cat_product(I, J)
    As, Bs = f.source, f.target

    def cell(i, j, side):
        dses, first = (dses_src, As) if side == 0 else (dses_dst, Bs)
        return switched_row(first.components[i], _component_ses(dses, j), n_max)

    def cell_sub(i, j, col, n, side):
        row = cell(i, j, side)
        cx = {"L": row.sesc.sub, "M": row.sesc.mid, "N": row.sesc.quo}[col]
        return homology_at(cx, n)

    def diag_of(side):
        return {"L": (dses_src if side == 0 else dses_dst).L,
                "M": (dses_src if side == 0 else dses_dst).M,
                "N": (dses_src if side == 0 else dses_dst).N}

    def cell_map_side(u, v, col, n, side):
        i, i2 = I.src(u), I.tgt(u)
        j, j2 = J.src(v), J.tgt(v)
        first = As if side == 0 else Bs
        X = diag_of(side)[col]
        res1 = resolve(first.components[i], n_max + 1)
        res2 = resolve(first.components[i2], n_max + 1)
        lift = lift_resolution_map(first.maps[u], res1, res2, n_max + 1)
        phi = tensorops.tensor_mor(lift[n], X.maps[v])
        return induced_on_homology(phi, cell_sub(i, j, col, n, side),
                                   cell_sub(i2, j2, col, n, side))

    def les_maps(side):
        def inner(i, j, kind, n):
            row = cell(i, j, side)
            if kind == "lm":
                return row.les.lm[n]
            if kind == "mn":
                return row.les.mn[n]
            return row.les.delta[n]
        return inner

    rows_src, lm_s, mn_s, d_s = _assemble_rows(
        K, I, J, ("L", "M", "N"), n_max,
        lambda i, j, col, n: cell_sub(i, j, col, n, 0),
        lambda u, v, col, n: cell_map_side(u, v, col, n, 0), les_maps(0))
    rows_dst, lm_d, mn_d, d_d = _assemble_rows(
        K, I, J, ("L", "M", "N"), n_max,
        lambda i, j, col, n: cell_sub(i, j, col, n, 1),
        lambda u, v, col, n: cell_map_side(u, v, col, n, 1), les_maps(1))

    umaps = {"L": mors.uL, "M": mors.uM, "N": mors.uN}
    vmaps = {}
    for col in ("L", "M", "N"):
        for n in range(0, n_max + 1):
            comps = {}
            for i in I.objects:
                lift = lift_resolution_map(
                    f.comps[i], resolve(As.components[i], n_max + 1),
                    resolve(Bs.components[i], n_max + 1), n_max + 1)
                for j in J.objects:
                    phi = tensorops.tensor_mor(lift[n], umaps[col].component(j))
                    comps[_pair_label(i, j)] = induced_on_homology(
                        phi, cell_sub(i, j, col, n, 0),
                        cell_sub(i, j, col, n, 1))
            vmaps[(col, n)] = DiagMor(rows_src[n][col], rows_dst[n][col], comps)

    exact = {}
    _row_exactness(exact, "src", lm_s, mn_s, d_s, n_max)
    _row_exactness(exact, "dst", lm_d, mn_d, d_d, n_max)
    squares = {}
    for n in range(0, n_max + 1):
        squares[("lm", n)] = (lm_s[n].then(vmaps[("M", n)])
                              == vmaps[("L", n)].then(lm_d[n]))
        squares[("mn", n)] = (mn_s[n].then(vmaps[("N", n)])
                              == vmaps[("M", n)].then(mn_d[n]))
    for n in range(1, n_max + 1):
        squares[("delta", n)] = (d_s[n].then(vmaps[("L", n - 1)])
                                 == vmaps[("N", n)].then(d_d[n]))
    route_checks = {}
    _route_identities(K, I, J, rows_src, route_checks, "src")
    _route_identities(K, I, J, rows_dst, route_checks, "dst")
    return DiagLadderResult(K, rows_src, rows_dst, lm_s, mn_s, d_s,
                            lm_d, mn_d, d_d, vmaps, squares, exact,
                            route_checks)
