"""Composite-functor spectral sequences over prime-field-based categories.

Restricted to F_p-algebra base rings so every page cell is a finite
dimensional F_p vector space and convergence is a dimension equality;
integer inputs are rejected.

Page machinery: the double complex is totalised with its coordinates in
filtration order, and each total differential gets one persistence column
reduction.  Its pivot pairs split the filtered complex into intervals, so
every page dimension, representative and page differential is read off
them; the page recursion dim E_{r+1} = dim H(E_r, d_r) is still checked
with independent ranks, and the abutment and its filtration are computed
separately from kernels.  Sign convention: the filtration-lowering
differential carries a (-1)^t twist when the grid is assembled from a
commuting double complex, making the total differential square to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf

from . import abelian, fplinalg, functors
from .complexes import SES, Complex, homology_at, induced_on_homology
from .derived import (derived_data, horseshoe, lift_resolution_map, resolve)
from .diagrams import Diagram
from .errors import ExactnessError, RingMismatchError, ShapeError
from .fplinalg import FpMatrix, Span, fp_from_columns, unit_vectors
from .modules import ModuleObj

# -- double complexes and the page recursion ----------------------------------


class DoubleComplex:
    """First-quadrant grid over F_p with anticommuting differentials.

    d_h lowers the first index (the filtration index), d_v lowers the
    second; d_h and d_v each square to zero and anticommute, so
    D = d_h + d_v is a differential on the total complex.
    """

    def __init__(self, p, max_s, max_t, dims, d_h, d_v):
        self.p = p
        self.max_s = max_s
        self.max_t = max_t
        self.dims = {k: v for k, v in dims.items() if v}
        self.d_h = dict(d_h)
        self.d_v = dict(d_v)
        self._check()

    def dim(self, s, t):
        return self.dims.get((s, t), 0)

    def _get(self, table, s, t, rows, cols):
        m = table.get((s, t))
        if m is None:
            return FpMatrix.zeros(self.p, rows, cols)
        if m.rows != rows or m.cols != cols:
            raise ShapeError(f"differential at {(s, t)} has wrong shape")
        return m

    def dh(self, s, t):
        return self._get(self.d_h, s, t, self.dim(s - 1, t), self.dim(s, t))

    def dv(self, s, t):
        return self._get(self.d_v, s, t, self.dim(s, t - 1), self.dim(s, t))

    def _check(self):
        for s in range(self.max_s + 1):
            for t in range(self.max_t + 1):
                hh = self.dh(s - 1, t).mul(self.dh(s, t))
                if not hh.is_zero():
                    raise ExactnessError(f"d_h . d_h nonzero at {(s, t)}")
                vv = self.dv(s, t - 1).mul(self.dv(s, t))
                if not vv.is_zero():
                    raise ExactnessError(f"d_v . d_v nonzero at {(s, t)}")
                anti = self.dv(s - 1, t).mul(self.dh(s, t)).add(
                    self.dh(s, t - 1).mul(self.dv(s, t)))
                if not anti.is_zero():
                    raise ExactnessError(f"differentials do not anticommute at {(s, t)}")


@dataclass
class TotalData:
    cells: dict  # n -> ordered list of (s, t)
    offsets: dict  # (n, s, t) -> coordinate offset
    dims: dict  # n -> total dimension
    D: dict  # n -> FpMatrix Tot_n -> Tot_{n-1}, zero at n = 0 and n_max + 1


def _totalize(dc: DoubleComplex) -> TotalData:
    p = dc.p
    n_max = dc.max_s + dc.max_t
    cells = {}
    offsets = {}
    dims = {}
    for n in range(n_max + 1):
        cs = [(s, n - s) for s in range(0, n + 1)
              if s <= dc.max_s and 0 <= n - s <= dc.max_t and dc.dim(s, n - s)]
        cells[n] = cs
        off = 0
        for (s, t) in cs:
            offsets[(n, s, t)] = off
            off += dc.dim(s, t)
        dims[n] = off
    D = {}
    for n in range(0, n_max + 2):
        rows = dims.get(n - 1, 0)
        colsn = dims.get(n, 0)
        data = [[0] * colsn for _ in range(rows)]

        def put(block: FpMatrix, roff, coff):
            for i in range(block.rows):
                ri = data[roff + i]
                for j in range(block.cols):
                    if block.data[i][j]:
                        ri[coff + j] = block.data[i][j]

        for (s, t) in cells.get(n, []):
            coff = offsets[(n, s, t)]
            if (n - 1, s - 1, t) in offsets:
                put(dc.dh(s, t), offsets[(n - 1, s - 1, t)], coff)
            if (n - 1, s, t - 1) in offsets:
                put(dc.dv(s, t), offsets[(n - 1, s, t - 1)], coff)
        D[n] = FpMatrix(p, rows, colsn, data)
    return TotalData(cells, offsets, dims, D)


@dataclass
class PagesInternal:
    """One persistence reduction per total differential, and the filtered
    basis read off it.

    basis[n][k] is a Tot_n vector whose last nonzero coordinate is k, so it
    lies in filtration filt[n][k].  D sends the basis vector of a death k
    to the basis vector of its birth partner low[k] and every other basis
    vector to zero; gap[n][k] is the filtration drop of k's pair (inf if
    k is unpaired), and k stands in E_r exactly when that gap is >= r.
    """

    tot: TotalData
    filt: dict  # n -> filtration index s of each Tot_n coordinate
    red: dict  # n -> (V, R, low) of D[n] for n <= n_max + 1, from _reduce
    gap: dict  # n -> filtration gap of each Tot_n coordinate's pair
    basis: dict  # n -> [basis vector of each Tot_n coordinate]
    filt_cycle_spans: dict  # (n, s) -> [cycle vectors in F_s]

    def page_indices(self, r, s, t):
        """The Tot_n coordinates whose basis vectors represent E_r^{s,t}."""
        n = s + t
        return [k for k, (f, g) in enumerate(zip(self.filt.get(n, []),
                                                 self.gap.get(n, [])))
                if f == s and g >= r]

    def reps(self, r, s, t):
        """Representatives of a basis of E_r^{s,t}; those of E_{r+1} are
        among them."""
        return [self.basis[s + t][k] for k in self.page_indices(r, s, t)]

    def boundaries(self, r, s, t):
        """A spanning list of B^r at (s, t): Z^{r-1}_{s-1} + D Z^{r-1}_{s+r-1}
        (empty for an empty cell)."""
        n = s + t
        if (n, s, t) not in self.tot.offsets:
            return []
        f = self.filt[n]
        V, _, low = self.red[n]
        out = [V[k] for k in range(len(f)) if f[k] <= s - 1 and (
            low[k] is None or self.filt[n - 1][low[k]] <= s - r)]
        _, R1, low1 = self.red[n + 1]
        return out + [R1[j] for j, k in enumerate(low1)
                      if k is not None and self.filt[n + 1][j] <= s + r - 1
                      and f[k] <= s]


@dataclass
class SSResult:
    p: int
    max_s: int
    max_t: int
    r_stop: int
    pages: dict  # r -> {(s,t): dim}
    diffs: dict  # r -> {(s,t): FpMatrix}
    einf: dict  # (s,t) -> dim
    abutment: dict  # n -> dim
    filtration: dict  # n -> [gr dims for s = 0..n]
    degenerates_at_2: bool
    internal: PagesInternal
    n_valid: int  # truncation-free window: total degree <= n_valid
    hypothesis_ok: bool = True
    hypothesis_report: list = field(default_factory=list)
    e2_expected: dict = field(default_factory=dict)
    e2_matches: bool = True
    abutment_expected: dict = field(default_factory=dict)
    abutment_matches: bool = True
    extra: dict = field(default_factory=dict)

    def converged(self) -> bool:
        for n in range(0, self.n_valid + 1):
            s_sum = sum(self.einf.get((s, n - s), 0) for s in range(0, n + 1))
            if s_sum != self.abutment.get(n, 0):
                return False
        return True


def _reduce(p, D: FpMatrix):
    """Persistence column reduction of D, left to right: (V, R, low) with
    R[j] = D V[j], V unitriangular, and low[j] the last nonzero row of R[j]
    (None when R[j] = 0); the lows of the nonzero columns are distinct."""
    V = unit_vectors(D.cols)
    R = [D.col(j) for j in range(D.cols)]
    low = []
    owner = {}  # low -> the earlier column that has it
    for j in range(D.cols):
        r, v = R[j], V[j]
        k = _low(r)
        while k in owner:
            i = owner[k]
            c = r[k] * pow(R[i][k], p - 2, p) % p
            r = [(x - c * y) % p for x, y in zip(r, R[i])]
            v = [(x - c * y) % p for x, y in zip(v, V[i])]
            k = _low(r)
        R[j], V[j] = r, v
        low.append(k)
        if k is not None:
            owner[k] = j
    return V, R, low


def _low(v):
    return next((i for i in range(len(v) - 1, -1, -1) if v[i]), None)


def ss_pages(dc: DoubleComplex, r_stop=None, n_valid=None) -> SSResult:
    """Spectral sequence of the totalised double complex, filtered by the
    first index.

    Each total differential D[n] is reduced once (_reduce); Tot_n is laid
    out by ascending filtration, so the pivot pairs of the reductions give
    every page: a pair whose filtration drops by g lives on pages 2..g and
    is a nonzero d_g, an unpaired coordinate lives on every page.

    n_valid marks the largest total degree free of truncation effects;
    the degeneration flag and convergence checks stay inside it.
    """
    p = dc.p
    if r_stop is None:
        r_stop = max(dc.max_s, dc.max_t) + 2
    tot = _totalize(dc)
    n_hi = dc.max_s + dc.max_t
    if n_valid is None:
        n_valid = n_hi

    filt = {n: [s for (s, t) in tot.cells[n] for _ in range(dc.dim(s, t))]
            for n in range(n_hi + 1)}
    red = {}
    for n in range(n_hi + 2):
        dn = tot.D[n]
        V, R, low = _reduce(p, dn)
        if dn.mul(fp_from_columns(p, V, dn.cols)) != fp_from_columns(p, R, dn.rows):
            raise ExactnessError(f"reduction of D[{n}] breaks D*V = R")
        red[n] = (V, R, low)

    # gap and basis vector of every coordinate: a death k keeps V[k], a
    # birth (the low of a column j of D[n+1]) takes R[j], the rest keep V[k]
    gap = {}
    basis = {}
    for n in range(n_hi + 1):
        f = filt[n]
        V, _, low = red[n]
        gap[n] = [inf if k is None else f[j] - filt[n - 1][k]
                  for j, k in enumerate(low)]
        basis[n] = list(V)
        _, R1, low1 = red[n + 1]
        for j, k in enumerate(low1):
            if k is None:
                continue
            if low[k] is not None:
                raise ExactnessError(
                    f"total differential does not square to zero at {n + 1}")
            gap[n][k] = filt[n + 1][j] - f[k]
            basis[n][k] = R1[j]
    internal = PagesInternal(tot, filt, red, gap, basis, {})

    pages = {}
    diffs = {}
    for r in range(2, r_stop + 1):
        pages[r] = {}
        diffs[r] = {}
        for n in range(n_hi + 1):
            low = red[n][2]
            for (s, t) in tot.cells[n]:
                idx = internal.page_indices(r, s, t)
                if idx:
                    pages[r][(s, t)] = len(idx)
                tgt = internal.page_indices(r, s - r, t + r - 1)
                if not idx or not tgt:
                    continue
                # d_r sends a death of gap r to its birth partner, the rest to 0
                d = FpMatrix.zeros(p, len(tgt), len(idx))
                for a, k in enumerate(idx):
                    if low[k] is not None and gap[n][k] == r:
                        d.data[tgt.index(low[k])][a] = 1
                diffs[r][(s, t)] = d

    # page recursion invariant: dim E^{r+1} = dim H(E^r, d^r)
    for r in range(2, r_stop):
        for (s, t), d in pages[r].items():
            out_rk = fplinalg.rank(diffs[r][(s, t)]) if (s, t) in diffs[r] else 0
            in_rk = (fplinalg.rank(diffs[r][(s + r, t - r + 1)])
                     if (s + r, t - r + 1) in diffs[r] else 0)
            nxt = pages[r + 1].get((s, t), 0)
            if nxt != d - out_rk - in_rk:
                raise ExactnessError(
                    f"page recursion failed at r={r}, cell {(s, t)}")

    einf = dict(pages[r_stop])
    degen = all(
        m.is_zero()
        for r in range(2, r_stop + 1)
        for (s, t), m in diffs.get(r, {}).items()
        if s + t <= n_valid + 1)

    abutment = {}
    filtration = {}
    for n in range(n_hi + 1):
        dim = tot.dims[n]
        dn = tot.D[n]
        dn1 = tot.D[n + 1]
        cyc = fplinalg.kernel_basis(dn) if dim else []
        # F_s cycles grow with s, so one span collects boundaries + F_s cycles
        filtered = Span(p, dim, [dn1.col(j) for j in range(dn1.cols)])
        rk_bnd = len(filtered)
        # kernel_basis is independent, so len(cyc) is its rank
        abutment[n] = len(cyc) - rk_bnd
        grs = []
        prev = 0
        for s in range(0, n + 1):
            sub_cyc = _cycles_in_prefix(p, dn, sum(f <= s for f in filt[n]), dim)
            internal.filt_cycle_spans[(n, s)] = sub_cyc
            for v in sub_cyc:
                filtered.insert(v)
            d_s = len(filtered) - rk_bnd
            grs.append(d_s - prev)
            prev = d_s
        filtration[n] = grs

    return SSResult(p, dc.max_s, dc.max_t, r_stop, pages, diffs, einf,
                    abutment, filtration, degen, internal, n_valid)


def _cycles_in_prefix(p, dn, prefix, dim):
    """Basis of ker(dn) intersected with the coordinate prefix."""
    if prefix == 0:
        return []
    restricted = FpMatrix(p, dn.rows, prefix,
                          [row[:prefix] for row in dn.data])
    return [v + [0] * (dim - prefix) for v in fplinalg.kernel_basis(restricted)]


# -- Cartan-Eilenberg grids ----------------------------------------------------


@dataclass
class CEData:
    depth: int
    width: int
    monoZ: dict
    epiH: dict
    res_H: dict
    hsZ: dict
    hsC: dict

    def q_term(self, pdeg, q):
        return self.hsC[pdeg].res_mid.term(q)

    def d_v(self, pdeg, q):
        return self.hsC[pdeg].res_mid.diff(q)

    def aug(self, pdeg):
        return self.hsC[pdeg].res_mid.aug()

    def d_h(self, pdeg, q):
        if pdeg == 0:
            term = self.q_term(0, q)
            return term.zero_to(term.zero_object())
        return (self.hsC[pdeg].proj[q]
                .then(self.hsZ[pdeg - 1].incl[q])
                .then(self.hsC[pdeg - 1].incl[q]))

    def proj_to_h(self, pdeg, q):
        return self.hsC[pdeg].retr[q].then(self.hsZ[pdeg].proj[q])


def ce_grid(C: Complex, depth) -> CEData:
    """Cartan-Eilenberg style double resolution of a bounded complex.

    Column p resolves C_p as an iterated horseshoe over the
    boundary/cycle/homology filtration, so horizontal homology splits off
    the homology resolutions on the nose.
    """
    width = C.hi
    Z = {}
    B = {}
    H = {}
    monoZ = {}
    u_bz = {}
    epiH = {}
    epiB = {}
    monoB = {}
    for pdeg in range(width, 0, -1):
        img = abelian.image(C.diffs[pdeg])
        B[pdeg - 1] = img.obj
        monoB[pdeg - 1] = img.mono
        epiB[pdeg - 1] = img.epi
    B[width] = C.objects[0].zero_object()
    for pdeg in range(0, width + 1):
        K, mono = C.diff(pdeg).kernel()
        Z[pdeg] = K
        monoZ[pdeg] = mono
        if pdeg == width:
            u = B[pdeg].zero_to(Z[pdeg])
        else:
            u = mono.factor(monoB[pdeg])
        u_bz[pdeg] = u
        Hp, eh = u.cokernel()
        H[pdeg] = Hp
        epiH[pdeg] = eh
    res_B = {}
    res_H = {}
    hsZ = {}
    hsC = {}
    for pdeg in range(0, width + 1):
        res_B[pdeg] = resolve(B[pdeg], depth)
        res_H[pdeg] = resolve(H[pdeg], depth)
    for pdeg in range(0, width + 1):
        ses_z = SES(u_bz[pdeg], epiH[pdeg])
        hsZ[pdeg] = horseshoe(ses_z, res_B[pdeg], res_H[pdeg], depth)
        if pdeg == 0:
            quo = C.objects[0].zero_object()
            ses_c = SES(monoZ[0], C.objects[0].zero_to(quo))
            res_quo = resolve(quo, depth)
        else:
            ses_c = SES(monoZ[pdeg], epiB[pdeg - 1])
            res_quo = res_B[pdeg - 1]
        hsC[pdeg] = horseshoe(ses_c, hsZ[pdeg].res_mid, res_quo, depth)
    ce = CEData(depth, width, monoZ, epiH, res_H, hsZ, hsC)
    # structural checks: horizontal differential is a chain map squaring
    # to zero and compatible with the augmentations
    for pdeg in range(1, width + 1):
        for q in range(0, depth):
            lhs = ce.d_h(pdeg, q + 1).then(ce.d_v(pdeg - 1, q + 1))
            rhs = ce.d_v(pdeg, q + 1).then(ce.d_h(pdeg, q))
            if lhs != rhs:
                raise ExactnessError("CE horizontal differential is not a chain map")
        if pdeg >= 2:
            for q in range(0, depth + 1):
                if not ce.d_h(pdeg, q).then(ce.d_h(pdeg - 1, q)).is_zero():
                    raise ExactnessError("CE horizontal differential does not "
                                         "square to zero")
        if (ce.d_h(pdeg, 0).then(ce.aug(pdeg - 1))
                != ce.aug(pdeg).then(C.diffs[pdeg])):
            raise ExactnessError("CE augmentation is not compatible")
    return ce


# -- the composite-functor spectral sequence ----------------------------------


@dataclass
class AcyclicityReport:
    entries: list  # (witness index, degree, is_zero)

    def ok(self) -> bool:
        return all(e[2] for e in self.entries)


def check_acyclic_hypothesis(F, G, witnesses, n_max) -> AcyclicityReport:
    """L_k G (F(P)) must vanish for 0 < k <= n_max on every witness P
    (the free covers actually used downstream)."""
    entries = []
    for w_idx, P in enumerate(witnesses):
        FP = functors.apply(F, P)
        for k in range(1, n_max + 1):
            entries.append((w_idx, k, derived_data(G, FP, k).obj.is_zero()))
    return AcyclicityReport(entries)


@dataclass
class GrothendieckData:
    F: object
    G: object
    A: ModuleObj
    n_max: int
    res: object
    cf: Complex
    ce: CEData
    dc: DoubleComplex
    gf_complex: Complex
    ss: SSResult


def _dc_from_ce(G, ce: CEData, p_field) -> DoubleComplex:
    """Apply G to the CE grid and transpose: filtration index s is the
    resolution direction, t walks along the base complex.  The CE grid
    commutes, so the s-lowering differential gets the (-1)^t sign."""
    dims = {}
    d_h = {}
    d_v = {}
    gq = {}
    for t in range(ce.width + 1):
        for s in range(ce.depth + 1):
            obj = functors.apply(G, ce.q_term(t, s))
            gq[(s, t)] = obj
            dims[(s, t)] = obj.fp_dimension()
    for t in range(ce.width + 1):
        for s in range(ce.depth + 1):
            if t >= 1:
                m = functors.apply(G, ce.d_h(t, s)).matrix
                d_v[(s, t)] = m
            if s >= 1:
                m = functors.apply(G, ce.d_v(t, s)).matrix
                if t % 2 == 1:
                    m = m.scale(p_field - 1)
                d_h[(s, t)] = m
    return DoubleComplex(p_field, ce.depth, ce.width, dims, d_h, d_v)


def grothendieck_ss(F, G, A: ModuleObj, n_max, with_data=False):
    """E2_{pq} = (L_p G)(L_q F)(A) converging to L_{p+q}(G F)(A).

    The E2 grid is reported for p, q <= n_max; pages, E_inf, and the
    abutment are valid for total degree <= n_max.  Independent E2 and
    abutment dimension checks are recorded on the result.
    """
    if A.ring.is_integers:
        raise RingMismatchError(
            "spectral machinery needs a prime-field-based ring; integers are "
            "rejected to avoid extension-problem bookkeeping")
    T = n_max + 1
    res = resolve(A, T)
    cf = functors.apply_to_complex(F, res.complex(T))
    witnesses = [res.term(k) for k in range(T + 1)]
    report = check_acyclic_hypothesis(F, G, witnesses, n_max)
    ce = ce_grid(cf, T)
    p_field = G.target_ring.p
    dc = _dc_from_ce(G, ce, p_field)
    ss = ss_pages(dc, n_valid=n_max)
    ss.hypothesis_ok = report.ok()
    ss.hypothesis_report = report.entries
    for q in range(0, n_max + 1):
        lq = homology_at(cf, q).obj
        for pp in range(0, n_max + 1):
            ss.e2_expected[(pp, q)] = derived_data(G, lq, pp).obj.fp_dimension()
    ss.e2_matches = all(
        ss.pages[2].get((pp, q), 0) == ss.e2_expected[(pp, q)]
        for pp in range(0, n_max + 1) for q in range(0, n_max + 1))
    spec_gf = functors.compose(G, F)
    gfc = functors.apply_to_complex(spec_gf, res.complex(T))
    for n in range(0, n_max + 1):
        ss.abutment_expected[n] = homology_at(gfc, n).obj.fp_dimension()
    ss.abutment_matches = all(ss.abutment.get(n, 0) == ss.abutment_expected[n]
                              for n in range(0, n_max + 1))
    if not ss.hypothesis_ok:
        ss.extra["convergence_claim"] = "hypothesis unverified"
    data = GrothendieckData(F, G, A, n_max, res, cf, ce, dc, gfc, ss)
    if with_data:
        return data
    return ss


# -- componentwise spectral sequences with naturality --------------------------


def _slice_cell(ss: SSResult, dc: DoubleComplex, v, n, s, t):
    off = ss.internal.tot.offsets[(n, s, t)]
    return v[off: off + dc.dim(s, t)]


@dataclass
class CanonPages:
    """Spectral-sequence pages rewritten in the canonical presentation
    (L_s G applied to the Cartan-Eilenberg homology resolutions), with the
    identification maps from the filtration pages."""

    dims: dict  # r -> {(s,t): dim}
    psi: dict  # r -> {(s,t): FpMatrix}, page reps -> canonical coords
    d: dict  # r -> {(s,t): FpMatrix} in canonical coordinates
    reps: dict  # r -> {(s,t): [vectors in page-(r-1) canonical coords]}
    spans: dict  # r >= 3 -> {(s,t): Span of the incoming image, then reps}
    ident_ok: bool


def _canon_complex(gd: GrothendieckData, t):
    key = ("canon_cx", t)
    if key not in gd.ss.extra:
        gd.ss.extra[key] = functors.apply_to_complex(
            gd.G, gd.ce.res_H[t].complex(gd.ce.depth), check=False)
    return gd.ss.extra[key]


def _canon_sub(gd: GrothendieckData, s, t):
    return homology_at(_canon_complex(gd, t), s)


def _window_cells(gd: GrothendieckData):
    return [(s, n - s) for n in range(gd.n_max + 1) for s in range(n + 1)]


def build_canon_pages(gd: GrothendieckData) -> CanonPages:
    """Identify every window page cell with its canonical presentation and
    rewrite the page differentials there, page by page."""
    ss, dc = gd.ss, gd.dc
    p = ss.p
    ok = True
    dims = {2: {}}
    psi = {2: {}}
    reps = {2: {}}
    spans = {}
    cells = _window_cells(gd)
    for (s, t) in cells:
        n = s + t
        sub = _canon_sub(gd, s, t)
        k_canon = sub.obj.fp_dimension()
        page_reps = ss.internal.reps(2, s, t)
        dims[2][(s, t)] = k_canon
        if k_canon != len(page_reps):
            ok = False
            continue
        proj_h = functors.apply(gd.G, gd.ce.proj_to_h(t, s)).matrix
        to_class = _class_map(sub)

        def classify(v):
            return to_class(proj_h.mul_vec(_slice_cell(ss, dc, v, n, s, t)))

        cols = [classify(v) for v in page_reps]
        bounds = [classify(v) for v in ss.internal.boundaries(2, s, t)]
        if None in cols or any(c is None or any(c) for c in bounds):
            ok = False
            continue
        m = fp_from_columns(p, cols, k_canon)
        if k_canon and fplinalg.rank(m) != k_canon:
            ok = False
            continue
        psi[2][(s, t)] = m
        reps[2][(s, t)] = unit_vectors(k_canon)
    for r in range(3, ss.r_stop + 1):
        dims[r] = {}
        psi[r] = {}
        reps[r] = {}
        spans[r] = {}
        prev = r - 1
        for (s, t) in cells:
            if (s, t) not in psi[prev]:
                continue
            k_prev = dims[prev][(s, t)]
            prev_psi = psi[prev][(s, t)]
            # kernel of the outgoing differential and image of the incoming
            # one, straight from the filtration pages and transported into
            # canonical coordinates; the sources may lie outside the window
            dout_tot = ss.diffs[prev].get((s, t))
            if dout_tot is not None:
                ker_rep = fplinalg.kernel_basis(dout_tot)
            else:
                ker_rep = unit_vectors(k_prev)
            din_tot = ss.diffs[prev].get((s + prev, t - prev + 1))
            imv = []
            if din_tot is not None:
                imv = [prev_psi.mul_vec(din_tot.col(j)) for j in range(din_tot.cols)]
            span = Span(p, k_prev, imv)
            cell_reps = [v for v in map(prev_psi.mul_vec, ker_rep) if span.insert(v)]
            # compose the previous identification with the subquotient step;
            # a page-r rep is a page-(r-1) rep, so its previous coordinates
            # are a unit vector and pick a column of prev_psi
            prev_idx = ss.internal.page_indices(prev, s, t)
            page_idx = ss.internal.page_indices(r, s, t)
            k_r = len(cell_reps)
            m = _tail_coords(p, span, [prev_psi.col(prev_idx.index(k))
                                       for k in page_idx], k_r)
            if m is None or len(page_idx) != k_r or (
                    k_r and fplinalg.rank(m) != k_r):
                ok = False
                continue
            dims[r][(s, t)] = k_r
            psi[r][(s, t)] = m
            reps[r][(s, t)] = cell_reps
            spans[r][(s, t)] = span
    # every page differential between identified cells, in canonical coords
    dmats = {}
    for r in psi:
        dmats[r] = {}
        for (s, t), m in psi[r].items():
            tgt = (s - r, t + r - 1)
            d_tot = ss.diffs[r].get((s, t))
            if tgt in psi[r] and d_tot is not None:
                dmats[r][(s, t)] = psi[r][tgt].mul(d_tot).mul(fplinalg.inverse(m))
    return CanonPages(dims, psi, dmats, reps, spans, ok)


def _tail_coords(p, span, vectors, k):
    """The matrix whose columns are the last k coordinates of each vector
    over span.basis, or None if some vector lies outside the span."""
    cols = [span.coords(v) for v in vectors]
    if None in cols:
        return None
    return fp_from_columns(p, [c[len(c) - k:] for c in cols], k)


@dataclass
class ComponentwiseResult:
    per_object: dict
    data: dict
    canon: dict
    e2_cell_maps: dict  # (morphism, (s,t)) -> FpMatrix in canonical coords
    e2_squares: dict  # (morphism, (s,t)) -> bool
    page_squares: dict  # (morphism, r, (s,t)) -> bool (d_r naturality, r >= 3)
    abutment_maps: dict  # (morphism, n) -> FpMatrix on homology coords
    abutment_filtration_ok: dict  # (morphism, n) -> bool
    gr_matches_einf: dict  # (morphism, n, s) -> bool
    ident_ok: dict  # object -> bool

    def acceptance_ok(self) -> bool:
        return (all(self.e2_squares.values())
                and all(self.page_squares.values())
                and all(self.abutment_filtration_ok.values())
                and all(self.gr_matches_einf.values())
                and all(self.ident_ok.values()))


def _canon_d(cp: CanonPages, p, r, s, t):
    """d_r out of (s, t) in canonical coordinates; zero where none is stored."""
    d = cp.d[r].get((s, t))
    if d is None:
        d = FpMatrix.zeros(p, cp.dims[r].get((s - r, t + r - 1), 0),
                           cp.dims[r].get((s, t), 0))
    return d


def _theta_matrices(gd: GrothendieckData):
    """Chain map from the total complex to GF(P_*): project to the q = 0
    cells and apply G of the augmentations."""
    key = "theta"
    if key in gd.ss.extra:
        return gd.ss.extra[key]
    ss, dc = gd.ss, gd.dc
    p = ss.p
    out = {}
    for n in range(0, gd.n_max + 2):
        rows = gd.gf_complex.objects[n].fp_dimension() if n <= gd.gf_complex.hi else 0
        cols = ss.internal.tot.dims.get(n, 0)
        data = [[0] * cols for _ in range(rows)]
        if n <= gd.gf_complex.hi:
            if (n, 0, n) in ss.internal.tot.offsets:
                aug = functors.apply(gd.G, gd.ce.aug(n)).matrix
                off = ss.internal.tot.offsets[(n, 0, n)]
                for i in range(aug.rows):
                    for j in range(aug.cols):
                        data[i][off + j] = aug.data[i][j]
        out[n] = FpMatrix(p, rows, cols, data)
    # chain-map check on the window
    for n in range(1, gd.n_max + 1):
        lhs = out[n - 1].mul(ss.internal.tot.D[n])
        rhs = gd.gf_complex.diffs[n].matrix.mul(out[n])
        if lhs != rhs:
            raise ExactnessError("edge map to GF(P_*) is not a chain map")
    gd.ss.extra[key] = out
    return out


def _class_map(sub):
    """w -> the class in sub.obj of a vector w in the image of sub.mono, or
    None when w lies outside it; one span of the mono's columns serves
    every w."""
    m = sub.mono.matrix
    span = Span(m.p, m.rows, [m.col(j) for j in range(m.cols)])
    if len(span) != m.cols:
        raise ExactnessError("homology cycles must include injectively")

    def to_class(w):
        kl = span.coords(w)
        return None if kl is None else sub.epi.matrix.mul_vec(kl)

    return to_class


def _abutment_class(theta_n, to_class, v):
    c = to_class(theta_n.mul_vec(v))
    if c is None:
        raise ExactnessError("edge image of a cycle must be a cycle")
    return c


def ss_componentwise(F, G, A: Diagram, n_max) -> ComponentwiseResult:
    """One spectral sequence per component plus, for every index morphism,
    the induced maps at E2 (checked to commute with d2 through the
    canonical identification), their propagation through later pages
    (recorded), and the abutment maps (checked to respect the transported
    filtration with graded pieces matching the E_inf maps)."""
    index = A.index
    per_object = {}
    data = {}
    canon = {}
    ident_ok = {}
    for i in index.objects:
        gd = grothendieck_ss(F, G, A.components[i], n_max, with_data=True)
        data[i] = gd
        per_object[i] = gd.ss
        canon[i] = build_canon_pages(gd)
        ident_ok[i] = canon[i].ident_ok
    e2_cell_maps = {}
    e2_squares = {}
    page_squares = {}
    abutment_maps = {}
    abutment_filtration_ok = {}
    gr_matches = {}
    T = n_max + 1
    for m in index.nonidentity_morphisms():
        i, j = index.src(m), index.tgt(m)
        p = per_object[i].p
        gi, gj = data[i], data[j]
        ci, cj = canon[i], canon[j]
        lift = lift_resolution_map(A.maps[m], gi.res, gj.res, T)
        cfmap = {t: functors.apply(F, lift[t]) for t in range(T + 1)}
        hmaps = {}
        for t in range(0, n_max + 1):
            zmap = gj.ce.monoZ[t].factor(gi.ce.monoZ[t].then(cfmap[t]))
            hmaps[t] = gi.ce.epiH[t].cofactor(zmap.then(gj.ce.epiH[t]))
        # canonical E2 cell maps: (L_s G)(L_t F)(structure map)
        cell_maps = {2: {}}
        for (s, t) in _window_cells(gi):
            hl = lift_resolution_map(hmaps[t], gi.ce.res_H[t], gj.ce.res_H[t],
                                     s + 1)
            phi = functors.apply(G, hl[s])
            mor = induced_on_homology(phi, _canon_sub(gi, s, t),
                                      _canon_sub(gj, s, t))
            cell_maps[2][(s, t)] = mor.matrix
            e2_cell_maps[(m, (s, t))] = mor.matrix
        # d2 squares in canonical coordinates
        for (s, t) in _window_cells(gi):
            tgt = (s - 2, t + 1)
            if tgt[0] < 0 or (s + t) > n_max:
                continue
            lhs = cell_maps[2][tgt].mul(_canon_d(ci, p, 2, s, t))
            rhs = _canon_d(cj, p, 2, s, t).mul(cell_maps[2][(s, t)])
            e2_squares[(m, (s, t))] = lhs == rhs
        # propagate the maps through later pages (recorded)
        for r in range(3, per_object[i].r_stop + 1):
            cell_maps[r] = {}
            for (s, t) in _window_cells(gi):
                if (s, t) not in ci.reps.get(r, {}) or (s, t) not in cj.reps.get(r, {}):
                    continue
                prev = cell_maps[r - 1].get((s, t))
                if prev is None:
                    continue
                mat = _tail_coords(p, cj.spans[r][(s, t)],
                                   map(prev.mul_vec, ci.reps[r][(s, t)]),
                                   len(cj.reps[r][(s, t)]))
                if mat is None:
                    page_squares[(m, r, (s, t))] = False
                else:
                    cell_maps[r][(s, t)] = mat
            for (s, t), mat in cell_maps[r].items():
                tgt = (s - r, t + r - 1)
                if tgt not in cell_maps[r]:
                    continue
                if (s, t) not in ci.d[r] and (s, t) not in cj.d[r]:
                    page_squares[(m, r, (s, t))] = True
                    continue
                page_squares[(m, r, (s, t))] = (
                    cell_maps[r][tgt].mul(_canon_d(ci, p, r, s, t))
                    == _canon_d(cj, p, r, s, t).mul(mat))
        # abutment maps and filtration compatibility
        theta_i = _theta_matrices(gi)
        theta_j = _theta_matrices(gj)
        for n in range(0, n_max + 1):
            sub_i = homology_at(gi.gf_complex, n)
            sub_j = homology_at(gj.gf_complex, n)
            spec_gf = functors.compose(G, F)
            phi = functors.apply(spec_gf, lift[n])
            amap = induced_on_homology(phi, sub_i, sub_j).matrix
            abutment_maps[(m, n)] = amap
            hdim_i = sub_i.obj.fp_dimension()
            hdim_j = sub_j.obj.fp_dimension()
            cls_i = _class_map(sub_i)
            cls_j = _class_map(sub_j)
            spans_i = {}
            spans_j = {}
            for s in range(0, n + 1):
                spans_i[s] = [_abutment_class(theta_i[n], cls_i, v)
                              for v in gi.ss.internal.filt_cycle_spans[(n, s)]]
                spans_j[s] = [_abutment_class(theta_j[n], cls_j, v)
                              for v in gj.ss.internal.filt_cycle_spans[(n, s)]]
            filt_j = [Span(p, hdim_j, spans_j[s]) for s in range(0, n + 1)]
            abutment_filtration_ok[(m, n)] = all(
                filt_j[s].contains(amap.mul_vec(v))
                for s in range(0, n + 1) for v in spans_i[s])
            # graded pieces against the E_inf maps
            r_top = per_object[i].r_stop
            for s in range(0, n + 1):
                t = n - s
                einf_map = cell_maps.get(r_top, {}).get((s, t))
                # gr_s = F_s / F_{s-1}: reps of F_s modulo F_{s-1}
                gr_i = Span(p, hdim_i, spans_i[s - 1] if s >= 1 else [])
                gr_j = Span(p, hdim_j, spans_j[s - 1] if s >= 1 else [])
                gr_reps_i = [v for v in spans_i[s] if gr_i.insert(v)]
                gr_reps_j = [v for v in spans_j[s] if gr_j.insert(v)]
                if einf_map is None:
                    gr_matches[(m, n, s)] = not gr_reps_i
                    continue
                # identify gr_s with the canonical E_inf cell on each side
                tau_i = _gr_identification(gi, ci, s, t, cls_i, theta_i[n],
                                           gr_reps_i, gr_i)
                tau_j = _gr_identification(gj, cj, s, t, cls_j, theta_j[n],
                                           gr_reps_j, gr_j)
                if tau_i is None or tau_j is None:
                    gr_matches[(m, n, s)] = False
                    continue
                gr_map = _tail_coords(p, gr_j, map(amap.mul_vec, gr_reps_i),
                                      len(gr_reps_j))
                gr_matches[(m, n, s)] = (gr_map is not None and
                                         gr_map.mul(tau_i) == tau_j.mul(einf_map))
    return ComponentwiseResult(per_object, data, canon, e2_cell_maps,
                               e2_squares, page_squares, abutment_maps,
                               abutment_filtration_ok, gr_matches, ident_ok)


def _gr_identification(gd: GrothendieckData, cp: CanonPages, s, t, to_class,
                       theta_n, gr_reps, gr_span):
    """Matrix from the canonical E_inf cell to gr_s of the abutment:
    canonical coords -> page reps -> cycles -> edge classes -> gr coords.
    gr_span spans F_{s-1} and then gr_reps."""
    ss = gd.ss
    p = ss.p
    r_top = ss.r_stop
    page_reps = ss.internal.reps(r_top, s, t)
    psi = cp.psi.get(r_top, {}).get((s, t))
    if psi is None:
        return None if gr_reps else FpMatrix.zeros(p, len(gr_reps), 0)
    if len(page_reps) != len(gr_reps):
        return None
    k = len(page_reps)
    # column j: the cycle whose canonical coordinates are the j-th unit vector
    cycles = fp_from_columns(p, page_reps, ss.internal.tot.dims[s + t]).mul(
        fplinalg.inverse(psi))
    return _tail_coords(p, gr_span, [_abutment_class(theta_n, to_class, cycles.col(j))
                                     for j in range(k)], k)
