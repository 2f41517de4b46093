"""The three benchmark workloads.

Each workload is a fixed, numbered universe of `universe` cases.  Case
`key` draws its inputs from `random.Random(f"<workload>:<key>")`, so a
case can be rebuilt alone, in any order, and its output digest can be
recorded once for every key.  A run visits keys `offset, offset + 1, ...`
(mod the universe size) with the offset drawn from the run seed, and
always measures whole passes over the universe; see `run.py`.  Case
costs vary a lot with their content, so runs that stopped part-way
through the universe would measure different work.

Every workload object has:
  * `setup()`: rings, index categories and functors shared by all cases;
  * `make_inputs(ctx, key)`: the case's inputs, built outside the timed
    region;
  * `run_case(ctx, inputs)`: the timed call into the package, returning
    its result;
  * `verdict(result)` and `digest_payload(inputs, result)`: the pass/fail
    verdict and the deterministic output bytes, read after timing stops.
"""

from __future__ import annotations

import json
import random

from functor_homology import (abelian, bifunctor, derived, dsl, fincat,
                              functors, modules, rings, runner, verification)
from functor_homology.complexes import MorphismOfSES
from functor_homology.rings import ZZ, RingMap, fp_field


def _identity_ses_morphism(ses):
    return MorphismOfSES(ses, ses, abelian.identity(ses.L),
                         abelian.identity(ses.M), abelian.identity(ses.N))


class ZDelta:
    """Delta-functor axioms on random SESs of Z-diagrams.

    Keys cycle through 3 index categories x 3 base functors, twice.
    """

    name = "z_delta"
    universe = 18
    INDICES = ("arrow", "parallel_pair", "square")
    N_MAX = 2

    def setup(self):
        bases = [bifunctor.tensor_by(modules.cyclic(2), "right"),
                 bifunctor.tensor_by(modules.cyclic(4), "right"),
                 functors.base_change(RingMap(ZZ, fp_field(2)))]
        indices = {n: fincat.standard(n) for n in self.INDICES}
        exps = {(n, i): functors.exponent(b, indices[n])
                for n in self.INDICES for i, b in enumerate(bases)}
        return {"indices": indices, "exps": exps}

    def make_inputs(self, ctx, key):
        rng = random.Random(f"{self.name}:{key}")
        name = self.INDICES[key % 3]
        index = ctx["indices"][name]
        F = ctx["exps"][(name, (key // 3) % 3)]
        ses1 = verification.random_diagram_ses(rng, index, ZZ)
        ses2 = verification.random_diagram_ses(rng, index, ZZ)
        mor = verification.random_ses_morphism(rng, ses1, ses2)
        return F, [ses1, ses2], [mor] if mor is not None else []

    def run_case(self, ctx, inputs):
        F, sess, mors = inputs
        return derived.delta_axiom_suite(F, sess, mors, self.N_MAX)

    def verdict(self, report):
        return report.ok()

    def digest_payload(self, inputs, report):
        _, sess, mors = inputs
        out = {"ok": report.ok(),
               "checked_sequences": report.checked_sequences,
               "checked_squares": report.checked_squares,
               "exactness_failures": [
                   [next(i for i, s in enumerate(sess) if s is ses), pos]
                   for ses, pos in report.exactness_failures],
               "square_failures": [n for _, n in report.square_failures],
               "morphisms": len(mors)}
        return json.dumps(out, sort_keys=True).encode()


class ZLadder:
    """Two-variable ladders over Z, base level and over product indices.

    Keys cycle through six slots: ladder, ladder_switched, then two each
    of diagram_ladder and diagram_ladder_switched.  Diagram slots walk
    through I in {arrow, parallel_pair} x J in {point, arrow}.
    """

    name = "z_ladder"
    universe = 24
    SLOTS = ("ladder", "ladder_switched", "diagram_ladder",
             "diagram_ladder_switched", "diagram_ladder",
             "diagram_ladder_switched")
    PAIRS = (("arrow", "point"), ("arrow", "arrow"),
             ("parallel_pair", "point"), ("parallel_pair", "arrow"))

    def setup(self):
        return {"indices": {n: fincat.standard(n)
                            for n in ("point", "arrow", "parallel_pair")}}

    def make_inputs(self, ctx, key):
        rng = random.Random(f"{self.name}:{key}")
        slot = self.SLOTS[key % 6]
        if slot in ("ladder", "ladder_switched"):
            mk = verification.random_z_module
            ses1 = verification.random_module_ses(rng, ZZ, mk)
            ses2 = verification.random_module_ses(rng, ZZ, mk)
            mor = verification.random_ses_morphism(rng, ses1, ses2)
            A, B = mk(rng), mk(rng)
            g = verification.random_morphism(rng, A, B)
            n_max = 2
        else:
            i_name, j_name = self.PAIRS[(key // 6) % 4]
            I = ctx["indices"][i_name]
            J = ctx["indices"][j_name]
            ses1 = verification.random_diagram_ses(rng, I, ZZ)
            mor = verification.random_ses_morphism(rng, ses1, ses1)
            A = verification.random_diagram(rng, J, ZZ)
            B = verification.random_diagram(rng, J, ZZ)
            g = verification.random_diag_mor(rng, A, B)
            n_max = 1
        if mor is None:
            mor = _identity_ses_morphism(ses1)
        return slot, mor, g, n_max

    def run_case(self, ctx, inputs):
        slot, mor, g, n_max = inputs
        return getattr(bifunctor, slot)(mor, g, n_max)

    def verdict(self, result):
        return result.passed()

    def digest_payload(self, inputs, result):
        slot = inputs[0]
        out = {"slot": slot,
               "squares": sorted([repr(k), v] for k, v in result.squares.items())}
        if slot in ("ladder", "ladder_switched"):
            rows = (result.row_src, result.row_dst)
            out["exact"] = [sorted(r.exact.items()) for r in rows]
            out["objects"] = [sorted([repr(k), o.describe()]
                                     for k, o in r.objs.items()) for r in rows]
        else:
            out["exact"] = sorted([repr(k), v] for k, v in result.exact.items())
            out["routes"] = sorted([repr(k), v]
                                   for k, v in result.route_checks.items())
            out["objects"] = [sorted([n, c, d.describe()]
                                     for n, cols in r.items()
                                     for c, d in cols.items())
                              for r in (result.row_src, result.row_dst)]
        return json.dumps(out, sort_keys=True, ensure_ascii=False).encode()


def _fmt_matrix(m):
    return "[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in m) + "]"


class FpGroupSS:
    """Lyndon-Hochschild-Serre spectral sequences run as workbench documents.

    Each case is one document with one `ss` task, pushed through
    dsl.parse -> runner.run -> runner.emit.  G is C4 or C2 x C2, mapped
    onto C2 (for C2 x C2 along each of its three quotient maps) and then
    to coinvariants over F_2.  The ten keys are one cheap random module,
    five middle cases (trivial module at degree 2 to 4, random
    F_2[C4]-modules at degree 4 and 5) and four dear ones (C2 x C2 trivial
    at degree 3, C4 trivial at degree 7).  The 1:5:4 split keeps the
    median inside the middle group and the tail percentile inside the
    dear group.
    """

    name = "fp_group_ss"
    universe = 10
    TABLES = {"C4": rings.cyclic_group_table(4),
              "C2xC2": rings.product_group_table(rings.cyclic_group_table(2),
                                                 rings.cyclic_group_table(2))}
    # (group, images of the quotient map onto C2, module, total degree)
    SLOTS = (("C2xC2", "[0,1,0,1]", "random", 2),
             ("C4", "[0,1,0,1]", "trivial", 4),
             ("C2xC2", "[0,0,1,1]", "trivial", 2),
             ("C4", "[0,1,0,1]", "random", 5),
             ("C2xC2", "[0,1,1,0]", "trivial", 2),
             ("C4", "[0,1,0,1]", "random", 4),
             ("C2xC2", "[0,1,0,1]", "trivial", 3),
             ("C2xC2", "[0,0,1,1]", "trivial", 3),
             ("C2xC2", "[0,1,1,0]", "trivial", 3),
             ("C4", "[0,1,0,1]", "trivial", 7))

    def setup(self):
        return {"rings": {g: rings.group_algebra(2, t)
                          for g, t in self.TABLES.items()}}

    def _random_module_decl(self, rng, ring):
        M = verification._random_fp_module(rng, ring)
        while M.dim == 0:
            M = verification._random_fp_module(rng, ring)
        acts = "[" + ",".join(_fmt_matrix(a.data) for a in M.actions) + "]"
        return f"module A over R = fp dim {M.dim} actions {acts}"

    def make_inputs(self, ctx, key):
        rng = random.Random(f"{self.name}:{key}")
        group, images, kind, n = self.SLOTS[key % len(self.SLOTS)]
        if kind == "trivial":
            mod = "module A over R = trivial"
        else:
            mod = self._random_module_decl(rng, ctx["rings"][group])
        return (f"# LHS spectral sequence for a C2 quotient of {group} over F2\n"
                f"ring R = group_algebra p=2 table {_fmt_matrix(self.TABLES[group])}\n"
                f"ring Q = group_algebra p=2 table [[0,1],[1,0]]\n"
                f"{mod}\n"
                f"functor F = base_change(R -> Q, images={images})\n"
                f"functor G = coinvariants(Q)\n"
                f"task lhs = ss F=F G=G A=A n={n}\n")

    def run_case(self, ctx, text):
        doc, diags = dsl.parse(text)
        if diags:
            return None
        report = runner.run(doc)
        return report, runner.emit(report)

    def verdict(self, result):
        return result is not None and result[0].ok()

    def digest_payload(self, text, result):
        return b"" if result is None else result[1]


WORKLOADS = {w.name: w for w in (ZDelta(), ZLadder(), FpGroupSS())}
