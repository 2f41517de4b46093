"""Composite-functor spectral sequences over prime-field-based categories.

Restricted to F_p-algebra base rings so every page cell is a finite
dimensional F_p vector space and convergence is a dimension equality;
integer inputs are rejected.

Page machinery: the double complex is totalised with its coordinates in
filtration order, and each total differential gets one persistence column
reduction.  Its pivot pairs split the filtered complex into intervals, so
every page dimension, representative and page differential is read off
them; the page recursion dim E_{r+1} = dim H(E_r, d_r) is still checked
with independent ranks, and the abutment and its filtration are read off
one kernel basis per total degree, apart from the reductions.  Sign
convention: the filtration-lowering differential carries a (-1)^t twist
when the grid is assembled from a commuting double complex, making the
total differential square to zero.

The composite-functor spectral sequence is one body for a module and for
a diagram: resolve, apply F, build one Cartan-Eilenberg grid and apply G
to it (`_resolved_grid`, `_g_grid`).  Equal pieces are built once, compared
by `==`: CE columns with equal differentials, E2 rows with equal modules
and acyclicity witnesses (`_shared`).  Over C^I the grid is a grid of
diagrams.  Its component at an index object is that component's double
complex, and its structure maps along an index morphism form a filtered
chain map of totals.  The page bases are triangular, so that map written
in them gives the maps of every page, and each naturality verdict is a
matrix identity (see `ss_componentwise`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf

from . import abelian, fplinalg, functors
from .complexes import SES, Complex, homology_at, project_complex
from .derived import derived_data, horseshoe, resolve
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
        placed = []
        for (s, t) in cells.get(n, []):
            coff = offsets[(n, s, t)]
            if (n - 1, s - 1, t) in offsets:
                placed.append((offsets[(n - 1, s - 1, t)], coff, dc.dh(s, t)))
            if (n - 1, s, t - 1) in offsets:
                placed.append((offsets[(n - 1, s, t - 1)], coff, dc.dv(s, t)))
        D[n] = FpMatrix.from_blocks(p, dims.get(n - 1, 0), dims.get(n, 0), placed)
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
    coords: dict  # (n, s) -> range of the Tot_n coordinates of cell (s, n - s)

    def page_indices(self, r, s, t):
        """The Tot_n coordinates, ascending, whose basis vectors represent
        E_r^{s,t}."""
        n = s + t
        return [k for k in self.coords.get((n, s), ()) if self.gap[n][k] >= r]

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

    coords = {(n, s): range(off, off + dc.dim(s, t))
              for (n, s, t), off in tot.offsets.items()}
    filt = {n: [s for (s, t) in tot.cells[n] for _ in coords[(n, s)]]
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
    internal = PagesInternal(tot, filt, red, gap, basis, coords)

    pages = {}
    diffs = {}
    for r in range(2, r_stop + 1):
        idx = {(s, n - s): internal.page_indices(r, s, n - s) for (n, s) in coords}
        pages[r] = {c: len(ks) for c, ks in idx.items() if ks}
        diffs[r] = {}
        for (s, t), ks in idx.items():
            tgt = idx.get((s - r, t + r - 1))
            if not ks or not tgt:
                continue
            # d_r sends a death of gap r to its birth partner, the rest to 0
            row_of = {k: i for i, k in enumerate(tgt)}
            low, g = red[s + t][2], gap[s + t]
            rows = [[0] * len(ks) for _ in tgt]
            for a, k in enumerate(ks):
                if low[k] is not None and g[k] == r:
                    rows[row_of[low[k]]][a] = 1
            diffs[r][(s, t)] = FpMatrix(p, len(tgt), len(ks), rows)

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
        dn1 = tot.D[n + 1]
        cyc = fplinalg.kernel_basis(tot.D[n]) if dim else []
        # the cycles of F_s are the vectors of cyc that end in its prefix
        ends = [_low(v) for v in cyc]
        if None in ends or ends != sorted(set(ends)):
            raise ExactnessError(f"kernel basis of D[{n}] does not end at "
                                 f"distinct ascending coordinates")
        # kernel_basis is independent, so len(cyc) is its rank; one span
        # collects the boundaries and then the cycles by filtration
        filtered = Span(p, dim, [dn1.col(j) for j in range(dn1.cols)])
        abutment[n] = len(cyc) - len(filtered)
        grs = [0] * (n + 1)
        for v, k in zip(cyc, ends):
            grs[filt[n][k]] += filtered.insert(v)
        filtration[n] = grs

    return SSResult(p, dc.max_s, dc.max_t, r_stop, pages, diffs, einf,
                    abutment, filtration, degen, internal, n_valid)


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


def _shared(seen, key, make):
    """make(), run once per distinct key: seen holds the (key, value) pairs
    made so far, and a key == an earlier one gets that one's value."""
    for k, v in seen:
        if k == key:
            return v
    seen.append((key, make()))
    return seen[-1][1]


def ce_grid(C: Complex, depth) -> CEData:
    """Cartan-Eilenberg style double resolution of a bounded complex.

    Column p resolves C_p as an iterated horseshoe over the
    boundary/cycle/homology filtration, so horizontal homology splits off
    the homology resolutions on the nose.  Column p is a function of
    (d_p, d_{p+1}): each distinct differential gets one image, and an
    interior column whose pair is == an earlier one's (endpoints by
    presentation, then matrices) shares that column's kernel, homology and
    horseshoes.  Columns 0 and width keep their boundary conventions and
    are always built, and the structural checks run at every (p, q).
    """
    width = C.hi
    B, monoB, epiB = {width: C.objects[0].zero_object()}, {}, {}
    images = []
    for pdeg in range(width, 0, -1):
        d = C.diffs[pdeg]
        img = _shared(images, d, lambda: abelian.image(d))
        B[pdeg - 1], monoB[pdeg - 1], epiB[pdeg - 1] = img.obj, img.mono, img.epi

    def column(pdeg):
        Z, mono = C.diff(pdeg).kernel()
        u = B[pdeg].zero_to(Z) if pdeg == width else mono.factor(monoB[pdeg])
        H, eh = u.cokernel()
        res_H = resolve(H, depth)
        hsZ = horseshoe(SES(u, eh), resolve(B[pdeg], depth), res_H, depth)
        if pdeg == 0:
            quo = C.objects[0].zero_object()
            ses_c, res_quo = SES(mono, C.objects[0].zero_to(quo)), resolve(quo, depth)
        else:
            ses_c, res_quo = SES(mono, epiB[pdeg - 1]), resolve(B[pdeg - 1], depth)
        return mono, eh, res_H, hsZ, horseshoe(ses_c, hsZ.res_mid, res_quo, depth)

    pairs = []
    cols = {pdeg: _shared(pairs, (C.diffs[pdeg], C.diffs[pdeg + 1]),
                          lambda: column(pdeg)) if 0 < pdeg < width else column(pdeg)
            for pdeg in range(width + 1)}
    monoZ, epiH, res_H, hsZ, hsC = ({pdeg: c[k] for pdeg, c in cols.items()}
                                    for k in range(5))
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
    (the free covers actually used downstream).  The verdicts are decided
    once per distinct witness and listed for each (witness index, k): a
    witness == an earlier one has the same L_k G (F(P)); none is skipped."""
    entries, seen = [], []
    for w_idx, P in enumerate(witnesses):
        zero = _shared(seen, P, lambda: [derived_data(G, functors.apply(F, P), k)
                                         .obj.is_zero() for k in range(1, n_max + 1)])
        entries += [(w_idx, k, z) for k, z in enumerate(zero, 1)]
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


def _resolved_grid(F, G, A, n_max):
    """(res, F(res), its CE grid, GF(res)) for a module, or for a diagram
    with F and G exponents: the same body in C and in C^I."""
    if A.ring.is_integers:
        raise RingMismatchError(
            "spectral machinery needs a prime-field-based ring; integers are "
            "rejected to avoid extension-problem bookkeeping")
    T = n_max + 1
    res = resolve(A, T)
    cf = functors.apply_to_complex(F, res.complex(T))
    ce = ce_grid(cf, T)
    gfc = functors.apply_to_complex(functors.compose(G, F), res.complex(T))
    return res, cf, ce, gfc


def _g_grid(G, ce: CEData):
    """G at every cell and map of the CE grid, transposed: cells[(s, t)] is
    G(ce.q_term(t, s)), so s is the resolution direction and t walks along
    the base complex; h[(s, t)] lowers s (G of ce.d_v) and v[(s, t)] lowers
    t (G of ce.d_h)."""
    cells = {(s, t): functors.apply(G, ce.q_term(t, s))
             for t in range(ce.width + 1) for s in range(ce.depth + 1)}
    h = {}
    v = {}
    for t in range(ce.width + 1):
        for s in range(ce.depth + 1):
            if t >= 1:
                v[(s, t)] = functors.apply(G, ce.d_h(t, s))
            if s >= 1:
                h[(s, t)] = functors.apply(G, ce.d_v(t, s))
    return cells, h, v


def _double_complex(p, ce: CEData, cells, h, v) -> DoubleComplex:
    """The double complex of a G-grid of modules (see `_g_grid`).  The CE
    grid commutes, so the s-lowering differential gets the (-1)^t sign."""
    return DoubleComplex(
        p, ce.depth, ce.width, {k: c.fp_dimension() for k, c in cells.items()},
        {(s, t): m.matrix.scale(p - 1) if t % 2 else m.matrix
         for (s, t), m in h.items()},
        {k: m.matrix for k, m in v.items()})


def _checked_ss(F, G, dc, n_max, witnesses, lq, gf) -> SSResult:
    """The pages of dc with independent checks: the acyclicity hypothesis on
    the witnesses, dim E2_{pq} = dim (L_p G)(lq[q]) and dim of the
    abutment in degree n = dim gf[n].  The E2 dimensions of a row are
    computed once per distinct module: a row whose lq[q] is == an earlier
    one's gets that row's dimensions, and every cell is still compared."""
    report = check_acyclic_hypothesis(F, G, witnesses, n_max)
    ss = ss_pages(dc, n_valid=n_max)
    ss.hypothesis_ok = report.ok()
    ss.hypothesis_report = report.entries
    rows = []
    for q in range(0, n_max + 1):
        dims = _shared(rows, lq[q], lambda: [derived_data(G, lq[q], pp).obj.fp_dimension()
                                             for pp in range(0, n_max + 1)])
        for pp in range(0, n_max + 1):
            ss.e2_expected[(pp, q)] = dims[pp]
    ss.e2_matches = all(
        ss.pages[2].get((pp, q), 0) == ss.e2_expected[(pp, q)]
        for pp in range(0, n_max + 1) for q in range(0, n_max + 1))
    for n in range(0, n_max + 1):
        ss.abutment_expected[n] = gf[n].fp_dimension()
    ss.abutment_matches = all(ss.abutment.get(n, 0) == ss.abutment_expected[n]
                              for n in range(0, n_max + 1))
    if not ss.hypothesis_ok:
        ss.extra["convergence_claim"] = "hypothesis unverified"
    return ss


def grothendieck_ss(F, G, A: ModuleObj, n_max, with_data=False):
    """E2_{pq} = (L_p G)(L_q F)(A) converging to L_{p+q}(G F)(A).

    The E2 grid is reported for p, q <= n_max; pages, E_inf, and the
    abutment are valid for total degree <= n_max.  Independent E2 and
    abutment dimension checks are recorded on the result.
    """
    res, cf, ce, gfc = _resolved_grid(F, G, A, n_max)
    dc = _double_complex(G.target_ring.p, ce, *_g_grid(G, ce))
    ss = _checked_ss(F, G, dc, n_max, [res.term(k) for k in range(n_max + 2)],
                     [homology_at(cf, q).obj for q in range(n_max + 1)],
                     [homology_at(gfc, n).obj for n in range(n_max + 1)])
    if with_data:
        return GrothendieckData(F, G, A, n_max, res, cf, ce, dc, gfc, ss)
    return ss


# -- the spectral sequence of a diagram and its maps of pages -----------------


@dataclass
class ComponentwiseResult:
    """The spectral sequence of a diagram, one component at a time, and the
    maps of pages of every index morphism u: i -> j."""

    per_object: dict  # i -> SSResult of component i, grothendieck_ss's checks
    e2_cell_maps: dict  # (u, (s,t)) -> (L_s G)(L_t F)(u), canonical coords
    page_maps: dict  # (u, r, (s,t)) -> E_r map of u in the page bases
    abutment_maps: dict  # (u, n) -> L_n(GF)(u) on homology coords
    ident_ok: dict  # i -> every E2 cell of i is its canonical cell
    e2_ident: dict  # (u, (s,t)) -> the E2 map of u is (L_s G)(L_t F)(u)
    e2_squares: dict  # (u, (s,t)) -> E2 maps commute with d2
    page_squares: dict  # (u, r, (s,t)) -> E_r maps commute with d_r, r >= 3
    abutment_filtration_ok: dict  # (u, n) -> L_n(GF)(u) preserves filtrations
    gr_matches_einf: dict  # (u, n, s) -> its gr_s is the E_inf map

    def acceptance_ok(self) -> bool:
        return (all(ss.e2_matches and ss.abutment_matches
                    for ss in self.per_object.values())
                and all(self.ident_ok.values())
                and all(self.e2_ident.values())
                and all(self.e2_squares.values())
                and all(self.page_squares.values())
                and all(self.abutment_filtration_ok.values())
                and all(self.gr_matches_einf.values()))


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


def _iso_from_columns(p, cols, k):
    """The k x k matrix with these columns, or None unless it is invertible
    (a None column, for a vector outside its span, counts as failure)."""
    if len(cols) != k or None in cols:
        return None
    m = fp_from_columns(p, cols, k)
    return m if fplinalg.rank(m) == k else None


def _e2_identification(ss: SSResult, proj_h, sub, s, t):
    """E2^{s,t} in the page basis -> the canonical cell sub = H_s(G res_H[t]):
    the cell (s, t) part of a representative, then G(proj_to_h), then its
    class; None unless that is an isomorphism that kills B^2."""
    off = ss.internal.tot.offsets.get((s + t, s, t), 0)
    to_class = _class_map(sub)

    def classify(v):
        return to_class(proj_h.mul_vec(v[off: off + proj_h.cols]))

    if any(c is None or any(c) for c in map(classify, ss.internal.boundaries(2, s, t))):
        return None
    return _iso_from_columns(ss.p, [classify(v) for v in ss.internal.reps(2, s, t)],
                             sub.obj.fp_dimension())


def _filtered_coords(u, ss_i: SSResult, ss_j: SSResult, blocks, n_max):
    """{n: Phi_u in the page bases} for n <= n_max, where Phi_u: Tot(i) ->
    Tot(j) is one block per cell (s, t); raises unless Phi_u is a chain map
    (checked up to degree n_max + 1).  basis[n] is triangular, so it is
    invertible, and column k of the result holds the coordinates of
    Phi_u(basis_i[n][k]) over basis_j[n]."""
    ti, tj = ss_i.internal.tot, ss_j.internal.tot
    phi = {}
    for n in range(n_max + 2):
        phi[n] = FpMatrix.from_blocks(
            ss_i.p, tj.dims[n], ti.dims[n],
            [(tj.offsets[(n, s, t)], ti.offsets[(n, s, t)], blocks[(s, t)])
             for (s, t) in ti.cells[n] if (n, s, t) in tj.offsets])
        if n and phi[n - 1].mul(ti.D[n]) != tj.D[n].mul(phi[n]):
            raise ExactnessError(f"the cell maps of {u} are not a chain map "
                                 f"of totals in degree {n}")

    def basis(ss, n):
        return fp_from_columns(ss.p, ss.internal.basis[n], ss.internal.tot.dims[n])

    return {n: fplinalg.inverse(basis(ss_j, n)).mul(phi[n]).mul(basis(ss_i, n))
            for n in range(n_max + 1)}


def _page_d(ss: SSResult, r, s, t):
    """d_r out of (s, t) in the page bases, zero where none is recorded."""
    d = ss.diffs[r].get((s, t))
    if d is None:
        d = FpMatrix.zeros(ss.p, len(ss.internal.page_indices(r, s - r, t + r - 1)),
                           len(ss.internal.page_indices(r, s, t)))
    return d


def _edge_isos(ss: SSResult, g_aug, gfc: Complex, n_max):
    """{n: (iso, unpaired)} for n <= n_max: H_n(Tot) -> H_n(gfc) on the
    classes of the unpaired basis vectors of Tot_n (ascending filtration),
    through the edge chain map Tot -> gfc (the (0, n) cell, then g_aug[n]);
    iso is None unless that is an isomorphism."""
    tot = ss.internal.tot
    theta = {}
    for n in range(n_max + 1):
        theta[n] = FpMatrix.from_blocks(
            ss.p, gfc.objects[n].fp_dimension(), tot.dims[n],
            [(0, tot.offsets[(n, 0, n)], g_aug[n].matrix)] if (n, 0, n) in tot.offsets else [])
    for n in range(1, n_max + 1):
        if theta[n - 1].mul(tot.D[n]) != gfc.diffs[n].matrix.mul(theta[n]):
            raise ExactnessError("edge map to GF(P_*) is not a chain map")
    out = {}
    for n in range(n_max + 1):
        sub = homology_at(gfc, n)
        to_class = _class_map(sub)
        basis = ss.internal.basis[n]
        unpaired = [k for k, g in enumerate(ss.internal.gap[n]) if g == inf]
        out[n] = (_iso_from_columns(ss.p, [to_class(theta[n].mul_vec(basis[k]))
                                           for k in unpaired],
                                    sub.obj.fp_dimension()), unpaired)
    return out


def ss_componentwise(F, G, A: Diagram, n_max) -> ComponentwiseResult:
    """The composite-functor spectral sequence of a diagram A, built once
    over C^I, with the maps of pages of every index morphism.

    A is resolved by free diagrams, F^I applied, and one Cartan-Eilenberg
    grid of diagrams built; G^I of the grid gives, at each index object i,
    the double complex of component i (a CE double complex for A_i, since
    components of free diagrams are free) and its pages, with
    grothendieck_ss's independent checks.  For u: i -> j the cell maps
    G^I(grid)(u) form a filtered chain map Phi_u: Tot(i) -> Tot(j).  The
    page bases are triangular, so the E_r map of u is Phi_u written in them,
    restricted to the page indices.  Every verdict is a matrix identity:
    E2 maps against (L_s G)(L_t F)(u) computed from G^I of the homology
    resolutions, d_r squares, and the abutment map L_n(GF)(u), computed from
    (GF)^I of the resolution and carried to the filtered bases by the edge
    isomorphisms, block upper triangular with the E_inf maps on its
    diagonal."""
    index = A.index
    FI, GI = functors.exponent(F, index), functors.exponent(G, index)
    res, cf, ce, gfc = _resolved_grid(FI, GI, A, n_max)
    grid = _g_grid(GI, ce)
    p = G.target_ring.p
    T = n_max + 1
    window = [(s, n - s) for n in range(T) for s in range(n + 1)]
    canon = {t: functors.apply_to_complex(GI, ce.res_H[t].complex(ce.depth), check=False)
             for t in range(T)}
    e2_canon = {(s, t): homology_at(canon[t], s) for (s, t) in window}
    proj_h = {(s, t): functors.apply(GI, ce.proj_to_h(t, s)) for (s, t) in window}
    gf = [homology_at(gfc, n) for n in range(T)]
    aug = {n: functors.apply(GI, ce.aug(n)) for n in range(T)}
    lq = [homology_at(cf, q).obj for q in range(T)]

    per_object, psi, edge = {}, {}, {}
    for i in index.objects:
        dc = _double_complex(p, ce, *({c: x.component(i) for c, x in part.items()}
                                      for part in grid))
        ss = _checked_ss(F, G, dc, n_max, [res.term(k).component(i) for k in range(T + 1)],
                         [x.component(i) for x in lq], [sub.obj.component(i) for sub in gf])
        per_object[i] = ss
        psi[i] = {c: _e2_identification(ss, proj_h[c].comps[i].matrix,
                                        e2_canon[c].component(i), *c) for c in window}
        edge[i] = _edge_isos(ss, {n: aug[n].comps[i] for n in range(T)},
                             project_complex(gfc, i), n_max)
    ident_ok = {i: all(m is not None for m in psi[i].values()) for i in index.objects}

    e2_cell_maps, page_maps, abutment_maps = {}, {}, {}
    e2_ident, e2_squares, page_squares = {}, {}, {}
    abutment_filtration_ok, gr_matches = {}, {}
    for u in index.nonidentity_morphisms():
        i, j = index.src(u), index.tgt(u)
        ss_i, ss_j = per_object[i], per_object[j]
        coords = _filtered_coords(u, ss_i, ss_j,
                                  {c: d.maps[u].matrix for c, d in grid[0].items()}, n_max)
        for r in range(2, ss_i.r_stop + 1):
            for (s, t) in window:
                page_maps[(u, r, (s, t))] = coords[s + t].submatrix(
                    ss_j.internal.page_indices(r, s, t), ss_i.internal.page_indices(r, s, t))
            for (s, t) in window:
                if s < r:
                    continue
                square = (page_maps[(u, r, (s - r, t + r - 1))].mul(_page_d(ss_i, r, s, t))
                          == _page_d(ss_j, r, s, t).mul(page_maps[(u, r, (s, t))]))
                if r == 2:
                    e2_squares[(u, (s, t))] = square
                else:
                    page_squares[(u, r, (s, t))] = square
        for c in window:
            canon_u = e2_canon[c].obj.maps[u].matrix
            e2_cell_maps[(u, c)] = canon_u
            pi, pj = psi[i][c], psi[j][c]
            e2_ident[(u, c)] = (pi is not None and pj is not None
                                and pj.mul(page_maps[(u, 2, c)]) == canon_u.mul(pi))
        for n in range(T):
            amap = gf[n].obj.maps[u].matrix
            abutment_maps[(u, n)] = amap
            (ei, ki), (ej, kj) = edge[i][n], edge[j][n]
            if ei is None or ej is None:
                abutment_filtration_ok[(u, n)] = False
                gr_matches.update({(u, n, s): False for s in range(n + 1)})
                continue
            # L_n(GF)(u) between the filtered bases of H_n(Tot(i)), H_n(Tot(j))
            a = fplinalg.inverse(ej).mul(amap).mul(ei)
            fi = [ss_i.internal.filt[n][k] for k in ki]
            fj = [ss_j.internal.filt[n][k] for k in kj]
            abutment_filtration_ok[(u, n)] = all(
                a.submatrix([x], [y for y, f in enumerate(fi) if fj[x] > f]).is_zero()
                for x in range(len(fj)))
            for s in range(n + 1):
                gr = a.submatrix([x for x, f in enumerate(fj) if f == s],
                                 [y for y, f in enumerate(fi) if f == s])
                gr_matches[(u, n, s)] = gr == page_maps[(u, ss_i.r_stop, (s, n - s))]
    return ComponentwiseResult(per_object, e2_cell_maps, page_maps, abutment_maps,
                               ident_ok, e2_ident, e2_squares, page_squares,
                               abutment_filtration_ok, gr_matches)
