"""Seeded randomized batteries verifying the implemented theorems.

Each suite is a pair `(draw, check)` in `SUITES`.  `draw(rng, case)` makes
every call on the random.Random of the run and builds the fixture of case
`case`; `check(fixture)` makes no random call, and returns a note (a
tuple, recorded after the case index) or None.  `run_suite` holds the one
case loop: it draws cases 0, 1, ... in order from one random.Random(seed)
and checks each fixture after drawing it, so a (seed, cases) pair pins the
exact battery and no verdict, passing or failing, changes the fixture of
a later case.  (A draw that raises stops part-way through its case, and
the later cases draw from where it stopped.)  The suites double as the
`verify` tasks of the workbench language and as the acceptance checks.
Every verdict goes through `require`, which raises `VerificationFailure`
also under `python -O`; the loop records each case, with its index, whose
draw or check raises `VerificationFailure` or `ExactnessError`.

Functor specs are built inside the draws, never at import: a module kept
at module level would pin every memo made on it (the memo rule in
`derived`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import abelian, fplinalg, modules
from .bifunctor import (balance_comparison, diagram_ladder,
                        diagram_ladder_switched, ladder, ladder_switched,
                        tensor_by)
from .complexes import MorphismOfSES, SES
from .derived import comparison_iso, delta_axiom_suite, derived_map
from .diagrams import (DiagMor, Diagram, d_cokernel, d_exactness_report, d_kernel,
                       free_diagram_map, free_diagram_multi)
from .errors import ExactnessError, VerificationFailure
from .fincat import FinCat, standard
from .fplinalg import FpMatrix
from .functors import base_change, exponent
from .modules import (ModMor, ModuleObj, cyclic, free_module, hom_basis,
                      hom_space, ring_ops)
from .rings import (RingMap, ZZ, cyclic_group_table, fp_field,
                    group_algebra)
from .spectral import DoubleComplex, ss_pages


def require(cond, msg):
    """Raise VerificationFailure(msg) unless cond holds."""
    if not cond:
        raise VerificationFailure(msg)


@dataclass
class SuiteReport:
    name: str
    seed: int
    cases: int
    passed: int = 0
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        return f"{self.passed}/{self.cases} pass"


# -- random fixtures ----------------------------------------------------------


def random_z_module(rng, max_gens=3, max_rels=3, bound=4) -> ModuleObj:
    g = rng.randint(1, max_gens)
    r = rng.randint(0, max_rels)
    rels = [[rng.randint(-bound, bound) for _ in range(g)] for _ in range(r)]
    m = ModuleObj(ZZ, gens=g, rels=rels)
    simple, _, _ = modules.simplify(m)
    return simple


def _times(c, f):
    """c·f, formed from + and unary - alone, so it serves every map type."""
    out = f
    for _ in range(abs(c) - 1):
        out = out + f
    return out if c > 0 else -out


def _combination(rng, basis, bound=2):
    """The sum over the tuples b of basis of c·b, entrywise, with one c
    drawn from [-bound, bound] per tuple; None when every c is 0."""
    out = None
    for b in basis:
        c = rng.randint(-bound, bound)
        if c:
            cb = tuple(_times(c, f) for f in b)
            out = cb if out is None else tuple(x + y for x, y in zip(out, cb))
    return out


def random_morphism(rng, A, B, bound=2):
    """A random combination of `hom_basis(A, B)`: modules or diagrams."""
    out = _combination(rng, [(b,) for b in hom_basis(A, B)], bound)
    return out[0] if out else A.zero_to(B)


# the name under which the perfbench workloads draw diagram maps
random_diag_mor = random_morphism


def random_free_diagram(rng, index: FinCat, ring, max_summands=2, max_rank=1):
    summands = []
    for _ in range(rng.randint(1, max_summands)):
        at = rng.choice(list(index.objects))
        summands.append((at, free_module(ring, rng.randint(1, max_rank))))
    return free_diagram_multi(index, summands, ring)


def random_free_diagram_mor(rng, F: Diagram, M: Diagram, bound=2) -> DiagMor:
    """Random morphism out of a free diagram via the adjunction (no linear
    solving needed)."""
    adjuncts = {}
    for s_idx, s in enumerate(F.free_data.summands):
        P = s.module
        tgt = M.components[s.at]
        lo, hi = P.ops.coefficient_range(bound)
        cols = []
        for _ in range(P.free_rank):
            v = [rng.randint(lo, hi) for _ in range(tgt.gens)]
            cols.extend(tgt.ops.free_images(tgt, v))
        adjuncts[s_idx] = ModMor(P, tgt, tgt.ops.from_columns(cols, tgt.gens))
    return free_diagram_map(F, M, adjuncts)


def random_diagram(rng, index: FinCat, ring) -> Diagram:
    """Kernel, cokernel or image of a random map between free diagrams."""
    F1 = random_free_diagram(rng, index, ring)
    F2 = random_free_diagram(rng, index, ring)
    return _random_subquotient(rng, random_free_diagram_mor(rng, F1, F2))


def _random_subquotient(rng, t):
    """The cokernel, kernel or image of t, chosen at random."""
    kind = rng.randint(0, 2)
    if kind == 0:
        return t.cokernel()[0]
    if kind == 1:
        return t.kernel()[0]
    return abelian.image(t).obj


def _random_image_ses(rng, make_obj):
    """SES from the image factorisation of a random morphism."""
    for _ in range(8):
        A = make_obj(rng)
        B = make_obj(rng)
        t = random_morphism(rng, A, B)
        img = abelian.image(t)
        if img.obj.is_zero() and B.is_zero():
            continue
        _, epi = img.mono.cokernel()
        return SES(img.mono, epi)
    # fall back to a split sequence on whatever came last
    bp = A.biproduct(B)
    return SES(bp.inj1, bp.proj2)


def random_diagram_ses(rng, index, ring):
    return _random_image_ses(rng, lambda r: random_diagram(r, index, ring))


def random_module_ses(rng, ring, maker):
    return _random_image_ses(rng, maker)


# -- morphisms of short exact sequences ---------------------------------------


def ses_morphism_space(ses1: SES, ses2: SES):
    """Generators of the nonzero pairs (uL, uM) with uM . f1 = f2 . uL,
    solved jointly for modules and diagrams alike (`modules.hom_space`)."""
    return hom_space([(ses1.L, ses2.L), (ses1.M, ses2.M)], [(0, ses1.f, ses2.f, 1)])


def random_ses_morphism(rng, ses1: SES, ses2: SES):
    """Random morphism of short exact sequences (uN is induced), or None
    when only zero maps (uL, uM) commute."""
    pairs = ses_morphism_space(ses1, ses2)
    if not pairs:
        return None
    uL, uM = _combination(rng, pairs) or pairs[0]
    uN = ses1.g.cofactor(uM.then(ses2.g))
    return MorphismOfSES(ses1, ses2, uL, uM, uN)


# -- suites: each one a draw and a check ------------------------------------


_INDICES = ("arrow", "arrow", "arrow", "parallel_pair", "square")


def _pick_index(rng):
    return standard(rng.choice(_INDICES))


def _draw_les(rng, case):
    """A composable pair f: D -> E, g = t . coker f of random Z-diagrams."""
    index = _pick_index(rng)
    D = random_diagram(rng, index, ZZ)
    E = random_diagram(rng, index, ZZ)
    f = random_morphism(rng, D, E)
    Q, q = d_cokernel(f)
    return f, q.then(random_morphism(rng, Q, Q))


def _check_les(fx):
    """Componentwise exactness equivalence; notes (verdict, failing)."""
    return d_exactness_report(*fx)


def _draw_kernel(rng, case):
    """f: D -> E, its kernel mono and a map from a free diagram into it."""
    index = _pick_index(rng)
    D = random_diagram(rng, index, ZZ)
    E = random_diagram(rng, index, ZZ)
    f = random_morphism(rng, D, E)
    K, mono = d_kernel(f)
    X = random_free_diagram(rng, index, ZZ)
    return f, mono, random_free_diagram_mor(rng, X, K)


def _check_kernel(fx):
    """Kernel universal property and induced structure maps."""
    f, mono, into_k = fx
    K, D = mono.source, mono.target
    require(mono.then(f).is_zero(), "f . mono != 0")
    for m in f.index.nonidentity_morphisms():
        i, j = f.index.src(m), f.index.tgt(m)
        lhs = K.maps[m].then(mono.comps[j])
        rhs = mono.comps[i].then(D.maps[m])
        require(lhs == rhs, "induced kernel square fails")
    h = into_k.then(mono)
    require(h.then(f).is_zero(), "f . h != 0")
    u = mono.factor(h)
    require(u.then(mono) == h, "factorization fails")
    require(mono.is_mono(), "kernel arrow must be monic")
    require(u == into_k, "factorization is not unique")


def _draw_delta(rng, case):
    """An exponent functor, two random diagram SESs and a random morphism
    between them (none when only zero maps commute)."""
    index = _pick_index(rng)
    base = (tensor_by(cyclic(2), "right"), tensor_by(cyclic(4), "right"),
            base_change(RingMap(ZZ, fp_field(2))))[case % 3]
    ses1 = random_diagram_ses(rng, index, ZZ)
    ses2 = random_diagram_ses(rng, index, ZZ)
    mor = random_ses_morphism(rng, ses1, ses2)
    mors = [mor] if mor is not None else []
    return exponent(base, index), [ses1, ses2], mors


def _check_delta(fx):
    """Delta-functor axioms up to degree 2; notes the squares checked."""
    F, sess, mors = fx
    report = delta_axiom_suite(F, sess, mors, 2)
    require(report.ok(), (report.exactness_failures, report.square_failures))
    return (report.checked_squares,)


def _draw_iso(rng, case):
    """A base functor, a degree n <= 3 and a random map t: A -> B."""
    index = standard(rng.choice(("arrow", "arrow", "square")))
    F = (tensor_by(cyclic(2), "right"), base_change(RingMap(ZZ, fp_field(2))),
         tensor_by(cyclic(6), "right"))[case % 3]
    n = rng.randint(0, 3)
    A = random_diagram(rng, index, ZZ)
    B = random_diagram(rng, index, ZZ)
    return F, n, random_morphism(rng, A, B)


def _check_iso(fx):
    """Comparison isomorphism and its naturality along t."""
    F, n, t = fx
    res = comparison_iso(F, t.source, n)
    require(res.iso, "comparison map is not an isomorphism")
    res_b = comparison_iso(F, t.target, n)
    lhs_comps = {i: derived_map(F, t.comps[i], n) for i in t.index.objects}
    lnf_t = DiagMor(res.componentwise, res_b.componentwise, lhs_comps)
    ln_fi_t = derived_map(exponent(F, t.index), t, n)
    require(lnf_t.then(res_b.map) == res.map.then(ln_fi_t),
            "comparison naturality square fails")


def _random_fp_module(rng, ring, max_rank=2):
    F1 = free_module(ring, rng.randint(1, max_rank))
    F2 = free_module(ring, rng.randint(1, max_rank))
    return _random_subquotient(rng, random_morphism(rng, F1, F2))


def _draw_balance(rng, case):
    """A degree n <= 2 and two random modules, over Z in even cases and
    over F_2[C_2] in odd ones."""
    n = rng.randint(0, 2)
    if case % 2 == 0:
        return random_z_module(rng), random_z_module(rng), n
    r2 = group_algebra(2, cyclic_group_table(2))
    return _random_fp_module(rng, r2), _random_fp_module(rng, r2), n


def _check_balance(fx):
    """tor_first vs tor_second comparison."""
    require(balance_comparison(*fx).iso,
            "balance comparison is not an isomorphism")


def _ses_morphism_or_identity(rng, ses1, ses2):
    mor = random_ses_morphism(rng, ses1, ses2)
    if mor is None:
        mor = MorphismOfSES(ses1, ses1, ses1.L.identity(), ses1.M.identity(),
                            ses1.N.identity())
    return mor


def _draw_ladder(rng, case):
    """Cycling through case % 4: ladder and ladder_switched of Z-modules
    to degree 2, then diagram_ladder and diagram_ladder_switched of
    Z-diagrams over I = arrow or parallel_pair, J = point or arrow, to
    degree 1."""
    mode = case % 4
    if mode < 2:
        ses1 = random_module_ses(rng, ZZ, random_z_module)
        ses2 = random_module_ses(rng, ZZ, random_z_module)
        mor = _ses_morphism_or_identity(rng, ses1, ses2)
        A = random_z_module(rng)
        B = random_z_module(rng)
        return mode, mor, random_morphism(rng, A, B)
    index = standard("arrow" if case % 8 < 6 else "parallel_pair")
    ses1 = random_diagram_ses(rng, index, ZZ)
    mor = _ses_morphism_or_identity(rng, ses1, ses1)
    J = standard("point" if case % 8 < 4 else "arrow")
    A = random_diagram(rng, J, ZZ)
    B = random_diagram(rng, J, ZZ)
    return mode, mor, random_morphism(rng, A, B)


def _check_ladder(fx):
    """Two-variable ladders, both variable orders (in the switched ones
    the SES sits in the second variable)."""
    mode, mor, g = fx
    if mode < 2:
        result = (ladder, ladder_switched)[mode](mor, g, 2)
        require(result.passed(), (result.squares,
                                  result.row_src.failing_positions(),
                                  result.row_dst.failing_positions()))
    else:
        result = (diagram_ladder, diagram_ladder_switched)[mode - 2](mor, g, 1)
        require(result.passed(), (
            [k for k, v in result.squares.items() if not v],
            [k for k, v in result.exact.items() if not v]))


def _random_fp_complex(rng, p, length, max_dim=3):
    """Random chain complex of F_p spaces with d.d = 0."""
    dims = [rng.randint(0, max_dim) for _ in range(length + 1)]
    mats = {}
    for k in range(1, length + 1):
        rows, cols = dims[k - 1], dims[k]
        raw = FpMatrix(p, rows, cols,
                       [[rng.randint(0, p - 1) for _ in range(cols)]
                        for _ in range(rows)])
        if k == 1:
            mats[k] = raw
        else:
            # force d_{k} to land in ker(d_{k-1})
            ker = fplinalg.kernel_basis(mats[k - 1])
            if not ker:
                mats[k] = FpMatrix.zeros(p, rows, cols)
            else:
                kmat = fplinalg.fp_from_columns(p, ker, rows)
                coeff = FpMatrix(p, len(ker), cols,
                                 [[rng.randint(0, p - 1) for _ in range(cols)]
                                  for _ in range(len(ker))])
                mats[k] = kmat.mul(coeff)
    return dims, mats


def _closed_form_cell(dc, tot, r, s, t):
    """Oracle: Z^r and boundary spaces solved from scratch (no page
    recursion), returning the cell dimension."""
    p = dc.p
    n = s + t
    n_hi = dc.max_s + dc.max_t

    def fdim(nn, ss):
        if nn < 0 or nn > n_hi or ss < 0:
            return 0
        out = 0
        for (s2, t2) in tot.cells.get(nn, []):
            if s2 <= ss:
                out += dc.dim(s2, t2)
        return out

    def a_space(nn, ss, rr):
        if nn < 0 or nn > n_hi or ss < 0 or tot.dims.get(nn, 0) == 0:
            return []
        pre = fdim(nn, ss)
        if pre == 0:
            return []
        dn = tot.D[nn]
        cutoff = fdim(nn - 1, ss - rr)
        width = tot.dims.get(nn - 1, 0)
        if cutoff >= width:
            return fplinalg.unit_vectors(tot.dims[nn])[:pre]
        cond = dn.submatrix(range(cutoff, width), range(pre))
        return [c + [0] * (tot.dims[nn] - pre)
                for c in fplinalg.kernel_basis(cond)]

    zr = a_space(n, s, r)
    bound = list(a_space(n, s - 1, r - 1))
    dn1 = tot.D[n + 1]
    for v in a_space(n + 1, s + r - 1, r - 1):
        bound.append(dn1.mul_vec(v))
    dim_z = _rank_list(p, zr, tot.dims.get(n, 0))
    dim_zb = _rank_list(p, zr + bound, tot.dims.get(n, 0))
    dim_b = _rank_list(p, bound, tot.dims.get(n, 0))
    require(dim_zb == dim_z, "boundary space must sit inside the cycle space")
    return dim_z - dim_b


def _rank_list(p, vectors, dim):
    if not vectors:
        return 0
    return fplinalg.rank(fplinalg.fp_from_columns(p, vectors, dim))


def _draw_ss(rng, case):
    """The tensor product double complex of two random F_2 complexes of
    length 3 (vertical differential signed by (-1)^s)."""
    p = 2
    dims_c, mats_c = _random_fp_complex(rng, p, 3)
    dims_d, mats_d = _random_fp_complex(rng, p, 3)
    dims = {(s, t): dims_c[s] * dims_d[t] for s in range(4) for t in range(4)}
    d_h = {}
    d_v = {}
    ops = ring_ops(fp_field(p))
    for s in range(4):
        for t in range(4):
            if dims[(s, t)] == 0:
                continue
            if s >= 1 and dims[(s - 1, t)]:
                d_h[(s, t)] = mats_c[s].kron(ops.identity(dims_d[t]))
            if t >= 1 and dims[(s, t - 1)]:
                m = ops.identity(dims_c[s]).kron(mats_d[t])
                if s % 2 == 1:
                    m = m.scale(p - 1)
                d_v[(s, t)] = m
    return DoubleComplex(p, 3, 3, dims, d_h, d_v)


def _check_ss(dc):
    """Pages E_2..E_4 against closed-form filtration subquotients, and
    Euler characteristics."""
    r_hi = 4
    ss = ss_pages(dc, r_stop=r_hi)
    # closed-form oracle for every page cell
    for r in range(2, r_hi + 1):
        for n in range(7):
            for (s, t) in ss.internal.tot.cells.get(n, []):
                want = _closed_form_cell(dc, ss.internal.tot, r, s, t)
                got = ss.pages[r].get((s, t), 0)
                require(got == want, (r, (s, t), got, want))
    # Euler characteristic conservation (global alternating sum)
    euler = None
    for r in range(2, r_hi + 1):
        val = sum((-1) ** (s + t) * d for (s, t), d in ss.pages[r].items())
        if euler is None:
            euler = val
        require(val == euler, "Euler characteristic drifts across pages")
    abut_euler = sum((-1) ** n * d for n, d in ss.abutment.items())
    require(abut_euler == euler, "Euler characteristic drifts to abutment")
    # abutment vs E_inf
    require(ss.converged(), "filtration does not converge")


SUITES = {
    "les": (_draw_les, _check_les),
    "kernel": (_draw_kernel, _check_kernel),
    "delta": (_draw_delta, _check_delta),
    "iso": (_draw_iso, _check_iso),
    "ladder": (_draw_ladder, _check_ladder),
    "balance": (_draw_balance, _check_balance),
    "ss": (_draw_ss, _check_ss),
}


def run_suite(name, seed, cases) -> SuiteReport:
    """Draw and check cases 0..cases-1 of suite `name`, in order, from one
    random.Random(seed)."""
    if name not in SUITES:
        raise KeyError(f"unknown verification suite {name!r}")
    draw, check = SUITES[name]
    rng = random.Random(seed)
    rep = SuiteReport(name, seed, cases)
    for case in range(cases):
        try:
            note = check(draw(rng, case))
            rep.passed += 1
            if note is not None:
                rep.notes.append((case, *note))
        except (VerificationFailure, ExactnessError) as exc:
            rep.failures.append((case, str(exc)))
    return rep
