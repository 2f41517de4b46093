"""The workbench input language: declarations of rings, modules,
morphisms, categories, diagrams, functors, short exact sequences and
tasks.

Line- or semicolon-delimited declarations; newlines inside brackets are
ignored, so matrices can span lines.  Parsing never raises: every
lexical, syntactic or name-resolution problem becomes a Diagnostic with a
line/column position.  `parse(print_doc(doc))` reproduces the document.
"""

from __future__ import annotations

from dataclasses import dataclass, field

TASK_KINDS = ("validate", "homology", "derive", "les", "ladder", "ss", "verify")


@dataclass
class Diagnostic:
    line: int
    col: int
    message: str

    def __str__(self):
        return f"{self.line}:{self.col}: {self.message}"


@dataclass
class FunctorExpr:
    op: str  # name | tensor | base_change | coinvariants | compose | exponent
    args: tuple

    def __str__(self):
        if self.op == "name":
            return self.args[0]
        if self.op == "tensor":
            return f"tensor({self.args[0]})"
        if self.op == "base_change":
            src, tgt, images = self.args
            if images is None:
                return f"base_change({src} -> {tgt})"
            imgs = ", ".join(str(i) for i in images)
            return f"base_change({src} -> {tgt}, images=[{imgs}])"
        if self.op == "coinvariants":
            return f"coinvariants({self.args[0]})"
        if self.op == "compose":
            return f"compose({self.args[0]}, {self.args[1]})"
        if self.op == "exponent":
            return f"exponent({self.args[0]}, {self.args[1]})"
        raise ValueError(self.op)


@dataclass
class Decl:
    kind: str
    name: str
    payload: dict
    line: int = 0
    col: int = 0

    def __eq__(self, other):
        return (isinstance(other, Decl) and self.kind == other.kind
                and self.name == other.name and self.payload == other.payload)


@dataclass
class WorkbenchDoc:
    decls: list = field(default_factory=list)

    def __eq__(self, other):
        return isinstance(other, WorkbenchDoc) and self.decls == other.decls

    def tasks(self):
        return [d for d in self.decls if d.kind == "task"]


# -- tokenizer ----------------------------------------------------------------


@dataclass
class Token:
    kind: str  # name, int, punct, newline, eof
    value: str
    line: int
    col: int


def _tokenize(text):
    toks = []
    diags = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    depth = 0
    while i < n:
        c = text[i]
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "\n":
            if depth == 0:
                toks.append(Token("newline", "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("->", i):
            toks.append(Token("punct", "->", line, col))
            i += 2
            col += 2
            continue
        if c in "=:;,.()[]{}":
            if c in "([{":
                depth += 1
            elif c in ")]}":
                depth = max(0, depth - 1)
            toks.append(Token("punct", c, line, col))
            i += 1
            col += 1
            continue
        if c == "-" and i + 1 < n and text[i + 1].isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        diags.append(Diagnostic(line, col, f"unexpected character {c!r}"))
        i += 1
        col += 1
    toks.append(Token("eof", "", line, col))
    return toks, diags


class _ParseError(Exception):
    def __init__(self, tok: Token, message: str):
        super().__init__(message)
        self.tok = tok
        self.message = message


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def skip_separators(self):
        while self.peek().kind == "newline" or (
                self.peek().kind == "punct" and self.peek().value == ";"):
            self.next()

    def expect_punct(self, value):
        t = self.next()
        if t.kind != "punct" or t.value != value:
            raise _ParseError(t, f"expected {value!r}, found {t.value!r}")
        return t

    def expect_name(self, what="a name"):
        t = self.next()
        if t.kind != "name":
            raise _ParseError(t, f"expected {what}, found {t.value!r}")
        return t

    def expect_keyword(self, value):
        t = self.next()
        if t.kind != "name" or t.value != value:
            raise _ParseError(t, f"expected {value!r}, found {t.value!r}")
        return t

    def expect_int(self):
        t = self.next()
        if t.kind != "int":
            raise _ParseError(t, f"expected an integer, found {t.value!r}")
        return int(t.value)

    def at_name(self, value=None):
        t = self.peek()
        return t.kind == "name" and (value is None or t.value == value)

    def at_punct(self, value):
        t = self.peek()
        return t.kind == "punct" and t.value == value

    def expect_label(self, what="a label"):
        """Object/morphism labels may be bare names or numerals."""
        t = self.next()
        if t.kind not in ("name", "int"):
            raise _ParseError(t, f"expected {what}, found {t.value!r}")
        return t.value

    # vectors / matrices / cubes ------------------------------------------

    def int_vector(self):
        self.expect_punct("[")
        out = []
        while not self.at_punct("]"):
            out.append(self.expect_int())
            if self.at_punct(","):
                self.next()
        self.expect_punct("]")
        return out

    def int_matrix(self):
        self.expect_punct("[")
        out = []
        while not self.at_punct("]"):
            out.append(self.int_vector())
            if self.at_punct(","):
                self.next()
        self.expect_punct("]")
        return out

    def int_cube(self):
        self.expect_punct("[")
        out = []
        while not self.at_punct("]"):
            out.append(self.int_matrix())
            if self.at_punct(","):
                self.next()
        self.expect_punct("]")
        return out

    # functor expressions ---------------------------------------------------

    def functor_expr(self) -> FunctorExpr:
        t = self.expect_name("a functor expression")
        if not self.at_punct("("):
            return FunctorExpr("name", (t.value,))
        if t.value == "tensor":
            self.expect_punct("(")
            m = self.expect_name("a module name").value
            self.expect_punct(")")
            return FunctorExpr("tensor", (m,))
        if t.value == "base_change":
            self.expect_punct("(")
            src = self.expect_name("a ring name").value
            self.expect_punct("->")
            tgt = self.expect_name("a ring name").value
            images = None
            if self.at_punct(","):
                self.next()
                self.expect_keyword("images")
                self.expect_punct("=")
                images = tuple(self.int_vector())
            self.expect_punct(")")
            return FunctorExpr("base_change", (src, tgt, images))
        if t.value == "coinvariants":
            self.expect_punct("(")
            r = self.expect_name("a ring name").value
            self.expect_punct(")")
            return FunctorExpr("coinvariants", (r,))
        if t.value == "compose":
            self.expect_punct("(")
            outer = self.functor_expr()
            self.expect_punct(",")
            inner = self.functor_expr()
            self.expect_punct(")")
            return FunctorExpr("compose", (outer, inner))
        if t.value == "exponent":
            self.expect_punct("(")
            inner = self.functor_expr()
            self.expect_punct(",")
            cat = self.expect_name("a category name").value
            self.expect_punct(")")
            return FunctorExpr("exponent", (inner, cat))
        raise _ParseError(t, f"unknown functor constructor {t.value!r}")

    # declarations -----------------------------------------------------------

    def binding_list(self):
        """{ name: name, ... } possibly split by ';' into two groups."""
        self.expect_punct("{")
        groups = [[]]
        while not self.at_punct("}"):
            if self.at_punct(";"):
                self.next()
                groups.append([])
                continue
            key = self.expect_label("a binding key")
            self.expect_punct(":")
            val = self.expect_name("a binding value").value
            groups[-1].append((key, val))
            if self.at_punct(","):
                self.next()
        self.expect_punct("}")
        return groups

    def decl(self) -> Decl:
        t = self.expect_name("a declaration keyword")
        line, col = t.line, t.col
        kind = t.value
        if kind == "ring":
            name = self.expect_name().value
            payload = {"form": "integers"}
            if self.at_punct("="):
                self.next()
                head = self.expect_name("a ring form").value
                if head == "integers":
                    payload = {"form": "integers"}
                elif head == "fp":
                    self.expect_keyword("p")
                    self.expect_punct("=")
                    payload = {"form": "fp", "p": self.expect_int()}
                elif head == "group_algebra":
                    self.expect_keyword("p")
                    self.expect_punct("=")
                    p = self.expect_int()
                    self.expect_keyword("table")
                    payload = {"form": "group_algebra", "p": p,
                               "table": self.int_matrix()}
                elif head == "fp_algebra":
                    self.expect_keyword("p")
                    self.expect_punct("=")
                    p = self.expect_int()
                    self.expect_keyword("unit")
                    unit = self.int_vector()
                    self.expect_keyword("table")
                    payload = {"form": "fp_algebra", "p": p, "unit": unit,
                               "table": self.int_cube()}
                else:
                    raise _ParseError(t, f"unknown ring form {head!r}")
            return Decl("ring", name, payload, line, col)
        if kind == "module":
            name = self.expect_name().value
            self.expect_keyword("over")
            ring = self.expect_name("a ring name").value
            self.expect_punct("=")
            head = self.expect_name("a module form").value
            if head == "free":
                payload = {"ring": ring, "form": "free", "rank": self.expect_int()}
            elif head == "coker":
                payload = {"ring": ring, "form": "coker",
                           "relations": self.int_matrix()}
            elif head == "trivial":
                payload = {"ring": ring, "form": "trivial"}
            elif head == "fp":
                self.expect_keyword("dim")
                dim = self.expect_int()
                self.expect_keyword("actions")
                payload = {"ring": ring, "form": "fp", "dim": dim,
                           "actions": self.int_cube()}
            else:
                raise _ParseError(t, f"unknown module form {head!r}")
            return Decl("module", name, payload, line, col)
        if kind == "morphism":
            name = self.expect_name().value
            self.expect_punct(":")
            src = self.expect_name().value
            self.expect_punct("->")
            tgt = self.expect_name().value
            self.expect_punct("=")
            mat = self.int_matrix()
            return Decl("morphism", name,
                        {"source": src, "target": tgt, "matrix": mat}, line, col)
        if kind == "category":
            name = self.expect_name().value
            self.expect_punct("=")
            head = self.expect_name("a category form").value
            if head == "standard":
                payload = {"form": "standard",
                           "which": self.expect_name("a category name").value}
            elif head == "product":
                self.expect_punct("(")
                a = self.expect_name().value
                self.expect_punct(",")
                b = self.expect_name().value
                self.expect_punct(")")
                payload = {"form": "product", "left": a, "right": b}
            elif head == "opposite":
                self.expect_punct("(")
                a = self.expect_name().value
                self.expect_punct(")")
                payload = {"form": "opposite", "of": a}
            elif head == "monoid":
                self.expect_keyword("table")
                payload = {"form": "monoid", "table": self.int_matrix()}
            elif head == "objects":
                self.expect_punct("[")
                objs = []
                while not self.at_punct("]"):
                    objs.append(self.expect_label())
                    if self.at_punct(","):
                        self.next()
                self.expect_punct("]")
                self.expect_keyword("arrows")
                self.expect_punct("[")
                arrows = []
                while not self.at_punct("]"):
                    a = self.expect_name().value
                    self.expect_punct(":")
                    s = self.expect_label()
                    self.expect_punct("->")
                    g = self.expect_label()
                    arrows.append((a, s, g))
                    if self.at_punct(","):
                        self.next()
                self.expect_punct("]")
                comps = []
                if self.at_name("compose"):
                    self.next()
                    self.expect_punct("[")
                    while not self.at_punct("]"):
                        g = self.expect_name().value
                        self.expect_punct(".")
                        f = self.expect_name().value
                        self.expect_punct("=")
                        h = self.expect_name().value
                        comps.append((g, f, h))
                        if self.at_punct(","):
                            self.next()
                    self.expect_punct("]")
                payload = {"form": "explicit", "objects": objs,
                           "arrows": arrows, "compose": comps}
            else:
                raise _ParseError(t, f"unknown category form {head!r}")
            return Decl("category", name, payload, line, col)
        if kind == "diagram":
            name = self.expect_name().value
            self.expect_keyword("over")
            cat = self.expect_name().value
            self.expect_punct("=")
            groups = self.binding_list()
            objs = groups[0]
            maps = groups[1] if len(groups) > 1 else []
            return Decl("diagram", name,
                        {"category": cat, "objects": objs, "maps": maps},
                        line, col)
        if kind == "diagmor":
            name = self.expect_name().value
            self.expect_punct(":")
            src = self.expect_name().value
            self.expect_punct("->")
            tgt = self.expect_name().value
            self.expect_punct("=")
            groups = self.binding_list()
            return Decl("diagmor", name,
                        {"source": src, "target": tgt, "components": groups[0]},
                        line, col)
        if kind == "functor":
            name = self.expect_name().value
            self.expect_punct("=")
            return Decl("functor", name, {"expr": self.functor_expr()}, line, col)
        if kind == "ses":
            name = self.expect_name().value
            self.expect_punct("=")
            self.expect_punct("(")
            f = self.expect_name().value
            self.expect_punct(",")
            g = self.expect_name().value
            self.expect_punct(")")
            return Decl("ses", name, {"f": f, "g": g}, line, col)
        if kind == "task":
            first = self.expect_name("a task kind or name")
            if self.at_punct("=") and first.value not in TASK_KINDS:
                self.next()
                name = first.value
                tk = self.expect_name("a task kind").value
            else:
                name = None
                tk = first.value
            if tk not in TASK_KINDS:
                raise _ParseError(first, f"unknown task kind {tk!r}")
            args = {}
            while self.at_name():
                key = self.expect_name().value
                self.expect_punct("=")
                nxt = self.peek()
                if nxt.kind == "int":
                    args[key] = self.expect_int()
                elif nxt.kind == "name" and nxt.value in ("true", "false") \
                        and not (self.toks[self.pos + 1].kind == "punct"
                                 and self.toks[self.pos + 1].value == "("):
                    args[key] = self.next().value == "true"
                elif nxt.kind == "name":
                    args[key] = self.functor_expr()
                else:
                    raise _ParseError(nxt, "expected a task argument value")
            return Decl("task", name, {"task_kind": tk, "args": args}, line, col)
        raise _ParseError(t, f"unknown declaration {kind!r}")


_REFERENCE_KEYS = {
    "module": [("ring", "ring")],
    "morphism": [("source", None), ("target", None)],
    "category": [("left", "category"), ("right", "category"), ("of", "category")],
    "diagram": [("category", "category")],
    "diagmor": [("source", "diagram"), ("target", "diagram")],
    "ses": [("f", None), ("g", None)],
}


def _functor_expr_names(expr: FunctorExpr):
    if expr.op == "name":
        yield expr.args[0]
    elif expr.op == "tensor":
        yield expr.args[0]
    elif expr.op == "base_change":
        yield expr.args[0]
        yield expr.args[1]
    elif expr.op == "coinvariants":
        yield expr.args[0]
    elif expr.op == "compose":
        yield from _functor_expr_names(expr.args[0])
        yield from _functor_expr_names(expr.args[1])
    elif expr.op == "exponent":
        yield from _functor_expr_names(expr.args[0])
        yield expr.args[1]


def parse(text):
    """(WorkbenchDoc or None, diagnostics).

    The document is returned only when there are no diagnostics.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            return None, [Diagnostic(1, 1, f"input is not valid UTF-8: {exc}")]
    toks, diags = _tokenize(text)
    if diags:
        return None, diags
    parser = _Parser(toks)
    decls = []
    while True:
        parser.skip_separators()
        if parser.peek().kind == "eof":
            break
        try:
            decls.append(parser.decl())
        except _ParseError as exc:
            diags.append(Diagnostic(exc.tok.line, exc.tok.col, exc.message))
            # resynchronise at the next separator
            while parser.peek().kind not in ("eof",) and not (
                    parser.peek().kind == "newline"
                    or (parser.peek().kind == "punct"
                        and parser.peek().value == ";")):
                parser.next()
        except RecursionError:
            diags.append(Diagnostic(parser.peek().line, parser.peek().col,
                                    "input nests too deeply"))
            break
    if diags:
        return None, diags
    # name resolution: unique names, references resolve to earlier decls
    seen = {}
    auto = 0
    for d in decls:
        if d.kind == "task" and d.name is None:
            auto += 1
            d.name = f"task{auto}"
        key = (d.kind if d.kind != "task" else "task", d.name)
        if key in seen:
            diags.append(Diagnostic(d.line, d.col,
                                    f"duplicate {d.kind} name {d.name!r}"))
        seen[key] = d

    names = {}

    def resolve(name, want, d):
        if name not in names:
            diags.append(Diagnostic(d.line, d.col,
                                    f"unresolved name {name!r}"))
            return
        if want is not None and names[name] != want:
            diags.append(Diagnostic(
                d.line, d.col,
                f"{name!r} is a {names[name]}, expected a {want}"))

    for d in decls:
        for key, want in _REFERENCE_KEYS.get(d.kind, []):
            if key in d.payload and d.payload[key] is not None:
                resolve(d.payload[key], want, d)
        if d.kind == "diagram":
            for _, v in d.payload["objects"]:
                resolve(v, "module", d)
            for _, v in d.payload["maps"]:
                resolve(v, "morphism", d)
        if d.kind == "diagmor":
            for _, v in d.payload["components"]:
                resolve(v, "morphism", d)
        if d.kind == "functor":
            for n in _functor_expr_names(d.payload["expr"]):
                resolve(n, None, d)
        if d.kind == "task":
            for key, v in d.payload["args"].items():
                if key == "suite":
                    continue
                if isinstance(v, FunctorExpr):
                    for n in _functor_expr_names(v):
                        resolve(n, None, d)
        if d.kind != "task":
            names[d.name] = d.kind
    if diags:
        return None, diags
    return WorkbenchDoc(decls), []


# -- printer -------------------------------------------------------------------


def _fmt_vector(v):
    return "[" + ", ".join(str(x) for x in v) + "]"


def _fmt_matrix(m):
    return "[" + ", ".join(_fmt_vector(r) for r in m) + "]"


def _fmt_cube(c):
    return "[" + ", ".join(_fmt_matrix(m) for m in c) + "]"


def format_value(v) -> str:
    """A task argument's value as it is written in a document."""
    if v is True:
        return "true"
    if v is False:
        return "false"
    return str(v)


def _print_decl(d: Decl) -> str:
    p = d.payload
    if d.kind == "ring":
        if p["form"] == "integers":
            return f"ring {d.name}"
        if p["form"] == "fp":
            return f"ring {d.name} = fp p={p['p']}"
        if p["form"] == "group_algebra":
            return (f"ring {d.name} = group_algebra p={p['p']} "
                    f"table {_fmt_matrix(p['table'])}")
        return (f"ring {d.name} = fp_algebra p={p['p']} "
                f"unit {_fmt_vector(p['unit'])} table {_fmt_cube(p['table'])}")
    if d.kind == "module":
        if p["form"] == "free":
            body = f"free {p['rank']}"
        elif p["form"] == "coker":
            body = f"coker {_fmt_matrix(p['relations'])}"
        elif p["form"] == "trivial":
            body = "trivial"
        else:
            body = f"fp dim {p['dim']} actions {_fmt_cube(p['actions'])}"
        return f"module {d.name} over {p['ring']} = {body}"
    if d.kind == "morphism":
        return (f"morphism {d.name} : {p['source']} -> {p['target']} = "
                f"{_fmt_matrix(p['matrix'])}")
    if d.kind == "category":
        if p["form"] == "standard":
            return f"category {d.name} = standard {p['which']}"
        if p["form"] == "product":
            return f"category {d.name} = product({p['left']}, {p['right']})"
        if p["form"] == "opposite":
            return f"category {d.name} = opposite({p['of']})"
        if p["form"] == "monoid":
            return f"category {d.name} = monoid table {_fmt_matrix(p['table'])}"
        objs = ", ".join(p["objects"])
        arrows = ", ".join(f"{a}: {s} -> {t}" for a, s, t in p["arrows"])
        out = f"category {d.name} = objects [{objs}] arrows [{arrows}]"
        if p["compose"]:
            comps = ", ".join(f"{g}.{f} = {h}" for g, f, h in p["compose"])
            out += f" compose [{comps}]"
        return out
    if d.kind == "diagram":
        objs = ", ".join(f"{k}: {v}" for k, v in p["objects"])
        maps = ", ".join(f"{k}: {v}" for k, v in p["maps"])
        body = objs + ("; " + maps if maps else "")
        return f"diagram {d.name} over {p['category']} = {{ {body} }}"
    if d.kind == "diagmor":
        comps = ", ".join(f"{k}: {v}" for k, v in p["components"])
        return (f"diagmor {d.name} : {p['source']} -> {p['target']} = "
                f"{{ {comps} }}")
    if d.kind == "functor":
        return f"functor {d.name} = {p['expr']}"
    if d.kind == "ses":
        return f"ses {d.name} = ({p['f']}, {p['g']})"
    if d.kind == "task":
        args = " ".join(f"{k}={format_value(v)}" for k, v in p["args"].items())
        body = f"{p['task_kind']}" + (f" {args}" if args else "")
        return f"task {d.name} = {body}"
    raise ValueError(d.kind)


def print_doc(doc: WorkbenchDoc) -> str:
    return "\n".join(_print_decl(d) for d in doc.decls) + "\n"
