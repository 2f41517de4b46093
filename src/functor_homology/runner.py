"""Execute workbench documents: build the declared objects, run tasks,
and emit deterministic reports."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import fincat, functors, modules, verification
from .complexes import Complex, SES, MorphismOfSES, homology_at
from .bifunctor import ladder, ladder_switched
from .derived import derived_data, les_of_ses
from .diagrams import DiagMor, Diagram, check_diagram
from .dsl import Decl, Diagnostic, FunctorExpr, WorkbenchDoc, format_value
from .errors import AlgebraError
from .modules import ModMor, ModuleObj
from .rings import (Ring, RingMap, augmentation_map, fp_field,
                    group_algebra, group_ring_map)
from .spectral import grothendieck_ss


@dataclass
class TaskResult:
    name: str
    kind: str
    status: str  # pass | fail | error
    rows: list = field(default_factory=list)

    def ok(self):
        return self.status == "pass"


@dataclass
class Report:
    results: list = field(default_factory=list)

    def ok(self):
        return all(r.ok() for r in self.results)


class BuildError(AlgebraError):
    pass


class Environment:
    """Declared objects by name, in declaration order."""

    def __init__(self):
        self.rings = {}
        self.modules = {}
        self.morphisms = {}
        self.categories = {}
        self.diagrams = {}
        self.diagmors = {}
        self.functors = {}
        self.sess = {}
        self._functor_memo = {}

    def functor_from_expr(self, expr: FunctorExpr):
        key = str(expr)
        if key in self._functor_memo:
            return self._functor_memo[key]
        out = self._build_functor(expr)
        self._functor_memo[key] = out
        return out

    def _build_functor(self, expr: FunctorExpr):
        if expr.op == "name":
            return _lookup(expr.args[0], "functor", self.functors)
        if expr.op == "tensor":
            return functors.tensor_with(_lookup(expr.args[0], "module", self.modules))
        if expr.op == "base_change":
            src = _lookup(expr.args[0], "ring", self.rings)
            tgt, images = _lookup(expr.args[1], "ring", self.rings), expr.args[2]
            return functors.base_change(RingMap(src, tgt) if images is None
                                        else group_ring_map(src, tgt, list(images)))
        if expr.op == "coinvariants":
            return functors.base_change(augmentation_map(
                _lookup(expr.args[0], "ring", self.rings)))
        if expr.op == "compose":
            return functors.compose(self.functor_from_expr(expr.args[0]),
                                    self.functor_from_expr(expr.args[1]))
        if expr.op == "exponent":
            return functors.exponent(self.functor_from_expr(expr.args[0]),
                                     _lookup(expr.args[1], "category", self.categories))
        raise BuildError(f"unknown functor expression {expr.op!r}")

    def any_object(self, name):
        return _lookup(name, "module or diagram", self.modules, self.diagrams)

    def any_morphism(self, name):
        return _lookup(name, "morphism", self.morphisms, self.diagmors)


def _lookup(name, what, *tables):
    """The object declared as name in the first of tables holding it."""
    for table in tables:
        if name in table:
            return table[name]
    raise BuildError(f"{name!r} is not a {what}")


def build_environment(doc: WorkbenchDoc):
    """(Environment, diagnostics): construct every declared object and run
    its validator."""
    env = Environment()
    diags = []
    for d in doc.decls:
        try:
            _build_decl(env, d)
        except (AlgebraError, ValueError, KeyError) as exc:
            diags.append(Diagnostic(d.line, d.col,
                                    f"{d.kind} {d.name!r}: {exc}"))
    return env, diags


def _build_decl(env: Environment, d: Decl):
    p = d.payload
    if d.kind == "ring":
        if p["form"] == "integers":
            env.rings[d.name] = Ring("integers", label=d.name)
        elif p["form"] == "fp":
            env.rings[d.name] = fp_field(p["p"], label=d.name)
        elif p["form"] == "group_algebra":
            env.rings[d.name] = group_algebra(p["p"], p["table"], label=d.name)
        else:
            basis = tuple(f"e{i}" for i in range(len(p["table"])))
            env.rings[d.name] = Ring("fp_algebra", p=p["p"],
                                     dim=len(p["table"]), basis=basis,
                                     mult=p["table"], unit=p["unit"],
                                     label=d.name)
    elif d.kind == "module":
        ring = env.rings[p["ring"]]
        if p["form"] == "free":
            env.modules[d.name] = modules.free_module(ring, p["rank"])
        elif p["form"] == "coker":
            rels = p["relations"]
            env.modules[d.name] = ModuleObj(ring, len(rels[0]) if rels else 0, rels)
        elif p["form"] == "trivial":
            env.modules[d.name] = modules.trivial_module(ring)
        else:
            ops = modules.ring_ops(ring)
            acts = [ops.matrix(p["dim"], p["dim"], m) for m in p["actions"]]
            env.modules[d.name] = ModuleObj(ring, p["dim"], actions=acts)
    elif d.kind == "morphism":
        src = env.modules[p["source"]]
        tgt = env.modules[p["target"]]
        env.morphisms[d.name] = ModMor(src, tgt, p["matrix"])
    elif d.kind == "category":
        if p["form"] == "standard":
            env.categories[d.name] = fincat.standard(p["which"])
        elif p["form"] == "product":
            env.categories[d.name] = fincat.product(env.categories[p["left"]],
                                                    env.categories[p["right"]])
        elif p["form"] == "opposite":
            env.categories[d.name] = fincat.opposite(env.categories[p["of"]])
        elif p["form"] == "monoid":
            env.categories[d.name] = fincat.monoid_category(p["table"])
        else:
            env.categories[d.name] = fincat.build_fincat(
                p["objects"], p["arrows"],
                {(g, f): h for g, f, h in p["compose"]})
    elif d.kind == "diagram":
        cat = env.categories[p["category"]]
        comps = {k: env.modules[v] for k, v in p["objects"]}
        maps = {}
        for k, v in p["maps"]:
            if k not in cat.morphisms:
                raise BuildError(f"{k!r} is not a morphism of the index")
            maps[k] = env.morphisms[v]
        for o in cat.objects:
            if o not in comps:
                raise BuildError(f"missing component at index object {o!r}")
            maps.setdefault(cat.identity[o], comps[o].identity())
        env.diagrams[d.name] = Diagram(cat, comps, maps)
    elif d.kind == "diagmor":
        src = env.diagrams[p["source"]]
        tgt = env.diagrams[p["target"]]
        comps = {k: env.morphisms[v] for k, v in p["components"]}
        env.diagmors[d.name] = DiagMor(src, tgt, comps)
    elif d.kind == "functor":
        env.functors[d.name] = env.functor_from_expr(p["expr"])
    elif d.kind == "ses":
        f = env.any_morphism(p["f"])
        g = env.any_morphism(p["g"])
        env.sess[d.name] = SES(f, g)
    elif d.kind == "task":
        pass
    else:
        raise BuildError(f"unknown declaration kind {d.kind!r}")


# -- task execution -------------------------------------------------------------


def _arg_name(args, key):
    v = args.get(key)
    if isinstance(v, FunctorExpr) and v.op == "name":
        return v.args[0]
    return v


def run(doc: WorkbenchDoc, task=None, max_degree=None, seed=None) -> Report:
    """Execute the document's tasks (or the named one); deterministic for
    fixed (document, seed, flags)."""
    env, diags = build_environment(doc)
    report = Report()
    if diags:
        rows = [("diagnostic", str(x)) for x in diags]
        report.results.append(TaskResult("(build)", "build", "error", rows))
        return report
    for decl in doc.tasks():
        if task is not None and decl.name != task:
            continue
        report.results.append(_run_task(env, decl, max_degree, seed))
    return report


MAX_DEGREE = 16  # the top degree of bench/ss_scaling.py; derive's work grows as n^2


def _degree(args, max_degree, default=1):
    n = args.get("n", default)
    # a boolean is an int to isinstance, but `true` is no degree
    if type(n) is int and max_degree is not None:
        n = min(n, max_degree)
    if type(n) is not int or n < 0:
        raise ValueError(f"degree n must be a nonnegative integer, not {format_value(n)}")
    if n > MAX_DEGREE:
        raise ValueError(f"degree n must be at most {MAX_DEGREE}, not {n}")
    return n


def degree_diagnostics(doc: WorkbenchDoc):
    """A Diagnostic for each derive, les, ladder or ss task whose degree n
    `run` would reject (not a nonnegative integer, or above MAX_DEGREE)."""
    diags = []
    for d in doc.tasks():
        try:
            if d.payload["task_kind"] in ("derive", "les", "ladder", "ss"):
                _degree(d.payload["args"], None)
        except ValueError as exc:
            diags.append(Diagnostic(d.line, d.col, f"task {d.name!r}: {exc}"))
    return diags


def _run_task(env: Environment, decl: Decl, max_degree, seed) -> TaskResult:
    kind = decl.payload["task_kind"]
    args = decl.payload["args"]
    try:
        if kind == "validate":
            return _task_validate(env, decl, args)
        if kind == "homology":
            f = env.any_morphism(_arg_name(args, "f"))
            g = env.any_morphism(_arg_name(args, "g"))
            if not f.then(g).is_zero():
                return TaskResult(decl.name, kind, "error",
                                  [("error", "composite is nonzero")])
            zero_t = g.target.zero_object()
            cx = Complex(0, 3, {0: zero_t, 1: g.target, 2: f.target, 3: f.source},
                         {1: g.target.zero_to(zero_t), 2: g, 3: f},
                         check=False)
            h = homology_at(cx, 2).obj
            return TaskResult(decl.name, kind, "pass",
                              [("homology", h.describe())])
        if kind == "derive":
            F = env.functor_from_expr(args["F"])
            A = env.any_object(_arg_name(args, "A"))
            n = _degree(args, max_degree)
            rows = []
            for k in range(0, n + 1):
                rows.append((f"n={k}", derived_data(F, A, k).obj.describe()))
            return TaskResult(decl.name, kind, "pass", rows)
        if kind == "les":
            F = env.functor_from_expr(args["F"])
            ses = env.sess[_arg_name(args, "S")]
            n = _degree(args, max_degree)
            les = les_of_ses(F, ses, n)
            rows = []
            for k in range(n, -1, -1):
                rows.append((f"F_{k}", " -> ".join(
                    les.objs[(c, k)].describe() for c in ("L", "M", "N"))))
            rows.append(("exact", "yes" if les.all_exact() else
                         f"no: {les.failing_positions()}"))
            status = "pass" if les.all_exact() else "fail"
            return TaskResult(decl.name, kind, status, rows)
        if kind == "ladder":
            ses1 = env.sess[_arg_name(args, "S1")]
            ses2 = env.sess[_arg_name(args, "S2")]
            mor = MorphismOfSES(ses1, ses2,
                                env.any_morphism(_arg_name(args, "uL")),
                                env.any_morphism(_arg_name(args, "uM")),
                                env.any_morphism(_arg_name(args, "uN")))
            n = _degree(args, max_degree)
            switched = bool(args.get("switched", 0))
            other = env.any_morphism(_arg_name(args, "g" if not switched else "f"))
            result = (ladder_switched(mor, other, n) if switched
                      else ladder(mor, other, n))
            rows = [("rows exact", "yes" if result.rows_exact() else "no"),
                    ("squares", f"{sum(result.squares.values())}/"
                                f"{len(result.squares)} commute")]
            status = "pass" if result.passed() else "fail"
            return TaskResult(decl.name, kind, status, rows)
        if kind == "ss":
            F = env.functor_from_expr(args["F"])
            G = env.functor_from_expr(args["G"])
            A = env.any_object(_arg_name(args, "A"))
            n = _degree(args, max_degree, default=2)
            ss = grothendieck_ss(F, G, A, n)
            rows = []
            for q in range(n, -1, -1):
                rows.append((f"E2 q={q}",
                             " ".join(str(ss.pages[2].get((p, q), 0))
                                      for p in range(0, n + 1))))
            rows.append(("abutment", " ".join(str(ss.abutment.get(k, 0))
                                              for k in range(0, n + 1))))
            rows.append(("hypothesis", "ok" if ss.hypothesis_ok else "unverified"))
            rows.append(("E2 check", "ok" if ss.e2_matches else "mismatch"))
            rows.append(("abutment check",
                         "ok" if ss.abutment_matches else "mismatch"))
            rows.append(("degenerates at E2",
                         "yes" if ss.degenerates_at_2 else "no"))
            rows.append(("converged", "yes" if ss.converged() else "no"))
            good = (ss.hypothesis_ok and ss.e2_matches and ss.abutment_matches
                    and ss.converged())
            return TaskResult(decl.name, kind, "pass" if good else "fail", rows)
        if kind == "verify":
            suite = _arg_name(args, "suite")
            the_seed = args.get("seed", seed)
            if the_seed is None:
                return TaskResult(decl.name, kind, "error",
                                  [("error", "verify tasks need seed=")])
            cases = args.get("cases", 20)
            rep = verification.run_suite(suite, the_seed, cases)
            rows = [("suite", suite), ("seed", str(the_seed)),
                    ("result", rep.summary())]
            for fail in rep.failures[:5]:
                rows.append(("failure", str(fail)))
            return TaskResult(decl.name, kind,
                              "pass" if rep.ok() else "fail", rows)
        return TaskResult(decl.name, kind, "error",
                          [("error", f"unknown task kind {kind!r}")])
    except (AlgebraError, KeyError, ValueError) as exc:
        return TaskResult(decl.name, kind, "error", [("error", str(exc))])


def _task_validate(env, decl, args):
    name = _arg_name(args, "X")
    rows = []
    status = "pass"
    if name in env.categories:
        bad = fincat.validate(env.categories[name])
        if bad is None:
            rows.append(("category", "ok"))
        else:
            rows.append(("violation", bad.message))
            status = "fail"
    elif name in env.diagrams:
        bad = check_diagram(env.diagrams[name])
        if bad is None:
            rows.append(("diagram", "ok"))
        else:
            rows.append(("violation", bad))
            status = "fail"
    elif name in env.modules:
        rows.append(("module", env.modules[name].describe()))
    elif name in env.morphisms:
        rows.append(("morphism", "ok"))
    elif name in env.sess:
        rows.append(("ses", "ok"))
    else:
        rows.append(("error", f"nothing named {name!r} to validate"))
        status = "error"
    return TaskResult(decl.name, "validate", status, rows)


# -- report emission -------------------------------------------------------------


def emit(report: Report, fmt="text") -> bytes:
    """Stable line-oriented text, or a JSON object with fixed keys;
    byte-identical across runs for fixed inputs."""
    if fmt == "json":
        payload = {"tasks": [{"name": r.name, "kind": r.kind,
                              "status": r.status,
                              "rows": [[k, v] for k, v in r.rows]}
                             for r in report.results],
                   "ok": report.ok()}
        return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
    lines = []
    if not report.results:
        lines.append("task  kind  status")
        lines.append("(no tasks)")
    for r in report.results:
        lines.append(f"task {r.name} ({r.kind}): {r.status}")
        width = max((len(k) for k, _ in r.rows), default=0)
        for k, v in r.rows:
            lines.append(f"  {k.ljust(width)}  {v}")
        lines.append("")
    return ("\n".join(lines).rstrip("\n") + "\n").encode()
