"""The workbench input language: declarations of rings, modules,
morphisms, categories, diagrams, functors, short exact sequences and
tasks.

Line- or semicolon-delimited declarations; newlines inside brackets are
ignored, so matrices can span lines.  Parsing never raises: every
lexical, syntactic or name-resolution problem becomes a Diagnostic with a
line/column position.  `parse(print_doc(doc))` reproduces the document.

Each form is written once, as a row of `DECL_FORMS` or `FUNCTOR_FORMS`:
the text `print_doc` writes, with a `<key:type>` slot per value.  The
parser reads a row's tokens and slots in order, the printer fills the
slots in, and name resolution walks the same slots; a slot's type in
`SLOT_TYPES` says how its value is read, written and resolved.  Adding a
form means one table row plus its builder in `runner._build_decl`.  Only
the `task` reader, whose `key=value` arguments are free-form, is written
by hand.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass, field

TASK_KINDS = ("validate", "homology", "derive", "les", "ladder", "ss", "verify")

# (the payload's "form", or None for a kind of one form; the form's text).
# The word after "=" picks among a kind's forms; `ring <name>` alone is the
# integers, and the first row of a form is the one printed.
DECL_FORMS = (
    ("integers", "ring <name:new>"),
    ("integers", "ring <name:new> = integers"),
    ("fp", "ring <name:new> = fp p=<p:int>"),
    ("group_algebra", "ring <name:new> = group_algebra p=<p:int> table <table:matrix>"),
    ("fp_algebra",
     "ring <name:new> = fp_algebra p=<p:int> unit <unit:vector> table <table:cube>"),
    ("free", "module <name:new> over <ring:ring> = free <rank:int>"),
    ("coker", "module <name:new> over <ring:ring> = coker <relations:matrix>"),
    ("trivial", "module <name:new> over <ring:ring> = trivial"),
    ("fp", "module <name:new> over <ring:ring> = fp dim <dim:int> actions <actions:cube>"),
    (None, "morphism <name:new> : <source:name> -> <target:name> = <matrix:matrix>"),
    ("standard", "category <name:new> = standard <which:standard>"),
    ("product", "category <name:new> = product(<left:category>, <right:category>)"),
    ("opposite", "category <name:new> = opposite(<of:category>)"),
    ("monoid", "category <name:new> = monoid table <table:matrix>"),
    ("explicit", "category <name:new> = objects [<objects:labels>] "
                 "arrows [<arrows:arrows>]<compose:compositions>"),
    (None, "diagram <name:new> over <category:category> = { <objects:modules><maps:maps> }"),
    (None, "diagmor <name:new> : <source:diagram> -> <target:diagram> = "
           "{ <components:components> }"),
    (None, "functor <name:new> = <expr:functor>"),
    (None, "ses <name:new> = (<f:name>, <g:name>)"),
)

# (FunctorExpr.op, its text); the op's args are the slots' values in order,
# and a name with no "(" after it is the op "name".
FUNCTOR_FORMS = (
    ("name", "<name:name>"),
    ("tensor", "tensor(<module:module name>)"),
    ("base_change", "base_change(<source:ring name> -> <target:ring name><images:images>)"),
    ("coinvariants", "coinvariants(<ring:ring name>)"),
    ("compose", "compose(<outer:functor>, <inner:functor>)"),
    ("exponent", "exponent(<inner:functor>, <category:category name>)"),
)


@dataclass
class Diagnostic:
    line: int
    col: int
    message: str

    def __str__(self):
        return f"{self.line}:{self.col}: {self.message}"


@dataclass
class FunctorExpr:
    op: str  # a FUNCTOR_FORMS op
    args: tuple

    def __str__(self):
        return _FUNCTORS[self.op].write(self.args)


@dataclass
class Decl:
    kind: str
    name: str
    payload: dict
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass
class WorkbenchDoc:
    decls: list = field(default_factory=list)

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
        if c == "-" and i + 1 < n and text[i + 1].isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
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
    """args: the token where parsing failed, and the message."""


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
        while self.peek().kind == "newline" or self.at_punct(";"):
            self.next()

    def expect(self, value):
        """The next token, which must be the literal value (a literal's
        text fixes its token kind)."""
        t = self.next()
        if t.value != value:
            raise _ParseError(t, f"expected {value!r}, found {t.value!r}")

    def expect_name(self, what="a name"):
        t = self.next()
        if t.kind != "name":
            raise _ParseError(t, f"expected {what}, found {t.value!r}")
        return t

    def expect_int(self):
        t = self.next()
        if t.kind != "int":
            raise _ParseError(t, f"expected an integer, found {t.value!r}")
        return int(t.value)

    def at_name(self):
        return self.peek().kind == "name"

    def at_punct(self, value):
        t = self.peek()
        return t.kind == "punct" and t.value == value

    def expect_label(self, what="a label"):
        """Object/morphism labels may be bare names or numerals."""
        t = self.next()
        if t.kind not in ("name", "int"):
            raise _ParseError(t, f"expected {what}, found {t.value!r}")
        return t.value

    def read(self, parts, values):
        """Read a form's literal tokens and slots in order (see `_Form`),
        each slot's value into the dict values, which is returned."""
        for key, slot in parts:
            if slot is None:
                self.expect(key)
            else:
                values[key] = slot.read(self)
        return values

    # lists ----------------------------------------------------------------

    def items(self, read_item, close="]"):
        """read_item() up to a punctuation token in close, which is not
        read; commas between items are optional."""
        out = []
        t = self.peek()
        while t.kind != "punct" or t.value not in close:
            out.append(read_item())
            if self.at_punct(","):
                self.next()
            t = self.peek()
        return out

    def bracketed(self, read_item):
        self.expect("[")
        out = self.items(read_item)
        self.expect("]")
        return out

    def ints(self, depth):
        """A vector (depth 1), matrix (2) or cube (3) of integers."""
        return self.bracketed(self.expect_int if depth == 1 else lambda: self.ints(depth - 1))

    # functor expressions ---------------------------------------------------

    def functor_expr(self) -> FunctorExpr:
        t = self.expect_name("a functor expression")
        if not self.at_punct("("):
            return FunctorExpr("name", (t.value,))
        parts = _CONSTRUCTORS.get(t.value)
        if parts is None:
            raise _ParseError(t, f"unknown functor constructor {t.value!r}")
        return FunctorExpr(t.value, tuple(self.read(parts, {}).values()))

    # declarations -----------------------------------------------------------

    def decl(self) -> Decl:
        t = self.expect_name("a declaration keyword")
        kind = t.value
        if kind == "task":
            return self.task(t)
        if kind not in _KINDS:
            raise _ParseError(t, f"unknown declaration {kind!r}")
        prefix, short, forms = _KINDS[kind]
        values = self.read(prefix, {})
        if short is not None and not self.at_punct("="):
            form, rest = short, ()
        else:
            self.expect("=")
            if None in forms:
                form, rest = forms[None]
            else:
                head = self.expect_name(f"a {kind} form").value
                if head not in forms:
                    raise _ParseError(t, f"unknown {kind} form {head!r}")
                form, rest = forms[head]
        if form.name is not None:
            values["form"] = form.name
        self.read(rest, values)
        return Decl(kind, values.pop("name"), values, t.line, t.col)

    def task(self, t):
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
            self.expect("=")
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
        return Decl("task", name, {"task_kind": tk, "args": args}, t.line, t.col)


# -- slots and forms ------------------------------------------------------------


def _fmt_ints(v, depth):
    """A vector (depth 1), matrix (2) or cube (3) of integers as written."""
    return "[" + ", ".join(str(x) if depth == 1 else _fmt_ints(x, depth - 1) for x in v) + "]"


class _Form:
    """A table row, compiled at import: `parts` are its literal tokens and
    slots in order, as (token text, None) and (key, slot type from
    SLOT_TYPES); `texts` are the texts around the slots, which the printer
    fills in."""

    def __init__(self, name, text):
        self.name = name
        pieces = re.split(r"<(\w+):([\w ]+)>", text)
        self.texts = pieces[::3]
        self.slots = [(key, SLOT_TYPES[typ]) for key, typ in zip(pieces[1::3], pieces[2::3])]
        self.parts = []
        for k, literal in enumerate(self.texts):
            self.parts += [(t.value, None) for t in _tokenize(literal)[0][:-1]]
            self.parts += self.slots[k:k + 1]

    def write(self, values):
        """The form's text with the slots' values, in order, filled in."""
        out = self.texts[0]
        for (_, slot), value, text in zip(self.slots, values, self.texts[1:]):
            out += slot.write(value) + text
        return out

    def names(self, values):
        for (_, slot), value in zip(self.slots, values):
            yield from slot.names(value)


# read(parser) -> value; write(value) -> its text; names(value) -> the
# (name, kind) pairs it refers to, kind None for a name of any kind
_Slot = namedtuple("_Slot", "read write names", defaults=(str, lambda v: ()))


def _name(what, kind=None, lookup=True):
    """A name slot: `what` is the diagnostic's words for a token that is no
    name, and the name must resolve to a declaration of kind (of any kind
    if None), unless lookup is False."""
    return _Slot(lambda p: p.expect_name(what).value,
                 names=(lambda v: ((v, kind),)) if lookup else (lambda v: ()))


def _ints(depth, convert=list):
    return _Slot(lambda p: convert(p.ints(depth)), lambda v: _fmt_ints(v, depth))


def _expr_names(expr):
    return _FUNCTORS[expr.op].names(expr.args)


def _list(text, close="]"):
    """A slot of items up to close, each written as the form text, as a
    tuple of its slots' values, and separated by commas."""
    form = _Form(None, text)
    return _Slot(lambda p: p.items(lambda: tuple(p.read(form.parts, {}).values()), close),
                 lambda v: ", ".join(form.write(item) for item in v),
                 lambda v: (ref for item in v for ref in form.names(item)))


def _optional(text, absent):
    """A slot written as the form text, which has one slot, or left out: it
    is read when the form's first token is next, else its value is absent."""
    form = _Form(None, text)
    (key, slot), = form.slots
    lead = form.parts[0][0]
    return _Slot(lambda p: p.read(form.parts, {})[key] if p.peek().value == lead else absent,
                 lambda v: "" if v == absent else form.write((v,)), slot.names)


def _dropping_groups(slot):
    """slot, then any ';'-led groups of bindings after it, read and dropped."""
    def read(p):
        value = slot.read(p)
        while p.at_punct(";"):
            p.next()
            SLOT_TYPES["morphisms"].read(p)
        return value
    return slot._replace(read=read)


SLOT_TYPES = {
    "new": _name("a name", lookup=False),  # the name being declared
    "name": _name("a name"),
    "ring": _name("a ring name", "ring"),
    "category": _name("a name", "category"),
    "diagram": _name("a name", "diagram"),
    "standard": _name("a category name", lookup=False),  # fincat.standard's names
    # a functor's arguments resolve to any kind here; the runner checks it
    "module name": _name("a module name"),
    "ring name": _name("a ring name"),
    "category name": _name("a category name"),
    "functor": _Slot(_Parser.functor_expr, names=_expr_names),
    "int": _Slot(_Parser.expect_int),
    "vector": _ints(1),
    "tuple": _ints(1, tuple),
    "matrix": _ints(2),
    "cube": _ints(3),
    "label": _Slot(_Parser.expect_label),
    "labels": _Slot(lambda p: p.items(p.expect_label), ", ".join),
    "key": _Slot(lambda p: p.expect_label("a binding key")),
    "module value": _name("a binding value", "module"),
    "morphism value": _name("a binding value", "morphism"),
}
# lists and optional parts, written as forms of the slot types above
SLOT_TYPES["composites"] = _list("<g:new>.<f:new> = <h:new>")
SLOT_TYPES["modules"] = _list("<key:key>: <value:module value>", ";}")
SLOT_TYPES["morphisms"] = _list("<key:key>: <value:morphism value>", ";}")
SLOT_TYPES.update({
    "arrows": _list("<arrow:new>: <source:label> -> <target:label>"),
    "compositions": _optional(" compose [<compose:composites>]", []),
    "images": _optional(", images=<images:tuple>", None),
    # A diagram's maps are its second group of bindings; later groups, and
    # a diagmor's groups after its first, are read and dropped.
    "maps": _dropping_groups(_optional("; <maps:morphisms>", [])),
    "components": _dropping_groups(SLOT_TYPES["morphisms"]),
})


def _compile_kinds(forms):
    """kind -> [the parts between its keyword and "=", the form written
    without "=" or None, {the word after "=": (form, the parts after it)}],
    keyed by None for a form with no word after "="."""
    kinds = {}
    for form in forms:
        (kind, _), *parts = form.parts
        if ("=", None) not in parts:
            kinds.setdefault(kind, [parts, None, {}])[1] = form
            continue
        i = parts.index(("=", None))
        word, slot = parts[i + 1]
        head = word if slot is None and word.isidentifier() else None
        kinds.setdefault(kind, [parts[:i], None, {}])[2][head] = (
            form, parts[i + 2:] if head else parts[i + 1:])
    return kinds


_DECLS = [_Form(name, text) for name, text in DECL_FORMS]
_KINDS = _compile_kinds(_DECLS)
# (kind, payload's form) -> the row print_doc writes: the form's first
_PRINTED = {(f.parts[0][0], f.name): f for f in reversed(_DECLS)}
_FUNCTORS = {op: _Form(op, text) for op, text in FUNCTOR_FORMS}
_CONSTRUCTORS = {op: f.parts[1:] for op, f in _FUNCTORS.items() if op != "name"}


def _form_values(d: Decl):
    """The row that prints d, and d's name and payload in its slot order."""
    form = _PRINTED[d.kind, d.payload.get("form")]
    return form, [d.name] + [d.payload[key] for key, _ in form.slots[1:]]


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
            tok, message = exc.args
            diags.append(Diagnostic(tok.line, tok.col, message))
            # resynchronise at the next separator
            while parser.peek().kind not in ("eof", "newline") and not parser.at_punct(";"):
                parser.next()
        except RecursionError:
            diags.append(Diagnostic(parser.peek().line, parser.peek().col,
                                    "input nests too deeply"))
            break
    if diags:
        return None, diags
    # name resolution: unique names, references resolve to earlier decls
    seen = set()
    auto = 0
    for d in decls:
        if d.kind == "task" and d.name is None:
            auto += 1
            d.name = f"task{auto}"
        if (d.kind, d.name) in seen:
            diags.append(Diagnostic(d.line, d.col,
                                    f"duplicate {d.kind} name {d.name!r}"))
        seen.add((d.kind, d.name))

    names = {}
    for d in decls:
        if d.kind == "task":
            refs = [ref for key, v in d.payload["args"].items()
                    if key != "suite" and isinstance(v, FunctorExpr)
                    for ref in _expr_names(v)]
        else:
            form, values = _form_values(d)
            refs = form.names(values)
        for name, want in refs:
            if name not in names:
                diags.append(Diagnostic(d.line, d.col, f"unresolved name {name!r}"))
            elif want is not None and names[name] != want:
                diags.append(Diagnostic(
                    d.line, d.col, f"{name!r} is a {names[name]}, expected a {want}"))
        if d.kind != "task":
            names[d.name] = d.kind
    if diags:
        return None, diags
    return WorkbenchDoc(decls), []


# -- printer -------------------------------------------------------------------


def format_value(v) -> str:
    """A task argument's value as it is written in a document."""
    if v is True:
        return "true"
    if v is False:
        return "false"
    return str(v)


def _print_decl(d: Decl) -> str:
    if d.kind != "task":
        form, values = _form_values(d)
        return form.write(values)
    p = d.payload
    args = " ".join(f"{k}={format_value(v)}" for k, v in p["args"].items())
    body = f"{p['task_kind']}" + (f" {args}" if args else "")
    return f"task {d.name} = {body}"


def print_doc(doc: WorkbenchDoc) -> str:
    return "\n".join(_print_decl(d) for d in doc.decls) + "\n"
