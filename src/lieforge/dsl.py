"""Line-oriented declarative language for algebras, maps and checks.

Single-pass: every name must be declared before use, and names share one
namespace.  Structure constants are declared for ordered pairs only;
declaring both orders of a bracket is an error rather than a consistency
check, so each constant has one canonical source.

Grammar sketch::

    algebra NAME { basis L1 L2 ... ; [Li, Lj] = 2 Lk - 1/3 Lm ; ... }
    assoc NAME { basis L1 ... ; Li * Lj = combo ; ... }
    endo NAME on ALG { Li -> combo ; ... }
    conn NAME on ALG { Li => matrix [[..], [..]] ; ... }
    form NAME on ALG sym|skew matrix [[..], [..]]
    map NAME from ALG to ALG2 { Li -> combo ; ... }
    decomp NAME on ALG { part0 : combo , combo ; part1 : combo ; }
    construct NAME = FN(arg, ...)
    check FN(arg, ...)

Unlisted brackets and products are zero.  Comments run from ``#`` to the
end of the line.  A name starts with a letter or ``_`` and goes on with
letters, digits, ``_`` or ``'``; a number is a run of decimal digits with an
optional ``/`` and denominator.
"""

from __future__ import annotations

import re
import time
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

from .scalar_linear import LieforgeError, PreconditionError, exact
from .lie_core import (
    AlmostComplex,
    BilinearForm,
    Certificate,
    Connection,
    LieAlgebra,
    LinearMap,
    Witness,
    check_abelian_complex,
    check_closed,
    check_complex_lie,
    check_integrable,
    check_jacobi,
    check_metric,
    check_parallel,
    check_product_structure,
    check_representation,
    check_symplectic,
    check_torsion_free,
    _sparse,
)
from .constructions import (
    AssociativeAlgebra,
    aff_algebra,
    central_extension,
    cotangent,
    eigenspace_split,
    semidirect,
    tangent,
)
from . import structures as st
from .catalog import Decomposition

__all__ = [
    "SourceSpan",
    "Workspace",
    "parse",
    "run",
    "DslError",
    "DslSyntaxError",
    "UnknownNameError",
    "DuplicateNameError",
    "ArityError",
    "ShapeError",
    "ConstructionError",
    "workspace_to_dsl",
    "entry_to_dsl",
]


@dataclass(frozen=True, slots=True)
class SourceSpan:
    line: int
    column: int
    length: int

    def __str__(self):
        return "line %d, column %d" % (self.line, self.column)


class DslError(LieforgeError):
    def __init__(self, message, span):
        super().__init__("%s (%s)" % (message, span))
        self.span = span


class DslSyntaxError(DslError):
    pass


class UnknownNameError(DslError):
    pass


class DuplicateNameError(DslError):
    pass


class ArityError(DslError):
    pass


class ShapeError(DslError):
    pass


class ConstructionError(DslError):
    """A construction statement violated the target operation's precondition."""


class _Token(namedtuple("_Token", "kind text line column length")):
    """One token: kind is ident | number | punct | end."""

    __slots__ = ()

    @property
    def span(self):
        return SourceSpan(self.line, self.column, self.length)


# One alternative per token kind, tried in this order after any blanks.  A
# comment that runs to the end of the text belongs to ``end``, which keeps
# the comment's column.  ``\d`` is a Unicode decimal digit, what ``int``
# reads; ``[^\W\d]`` is a letter, ``_`` or a numeric character that is not
# a decimal digit, which ``_tokenize`` refuses.
_TOKEN = re.compile(
    r"""[ \t\r]*(?:
      (?P<newline>\n)
    | (?P<end>(?:\#[^\n]*)?\Z)
    | (?P<comment>\#[^\n]*)
    | (?P<punct>->|=>|[{}\[\](),;:*+\-=])
    | (?P<number>\d+(?:/\d*)?)
    | (?P<ident>[^\W\d][\w']*)
    | (?P<bad>.)
    )""",
    re.VERBOSE,
)


def _tokenize(text):
    """The tokens of ``text``, ending in one ``end`` token."""
    toks = []
    append = toks.append
    make = tuple.__new__
    line, bol = 1, 0  # bol: offset where the current line begins
    for m in _TOKEN.finditer(text):  # every text ends in an ``end`` match
        kind = m.lastgroup
        start = m.start(kind)
        if kind == "newline":
            line += 1
            bol = start + 1
            continue
        if kind == "comment":
            continue
        col = start - bol + 1
        if kind == "end":
            append(make(_Token, ("end", "", line, col, 0)))
            return toks
        tok = m[kind]
        if kind == "number" and tok[-1] == "/":
            nxt = text[m.end() : m.end() + 1]
            if nxt.isdigit():
                raise _unexpected(nxt, line, col + len(tok))
            raise DslSyntaxError("malformed rational literal", SourceSpan(line, col, 1))
        if kind == "bad" or kind == "ident" and not (tok[0].isalpha() or tok[0] == "_"):
            raise _unexpected(tok[0], line, col)
        append(make(_Token, (kind, tok, line, col, len(tok))))


def _unexpected(ch, line, column):
    return DslSyntaxError("unexpected character %r" % ch, SourceSpan(line, column, 1))


class Workspace:
    """Ordered named definitions plus the queued checks."""

    def __init__(self):
        self.definitions = {}  # name -> (kind, payload)
        self.order = []
        self.checks = []  # (fname, [raw args], span)
        self.construct_stmts = []  # (target name, fname, [raw args], [names defined])

    def define(self, name, kind, payload, span):
        if name in self.definitions:
            raise DuplicateNameError("name %r is already defined" % name, span)
        self.definitions[name] = (kind, payload)
        self.order.append(name)

    def get(self, name, span, kinds=None):
        if name not in self.definitions:
            raise UnknownNameError("unknown name %r" % name, span)
        kind, payload = self.definitions[name]
        if kinds is not None and kind not in kinds:
            raise ShapeError(
                "%r is a %s, expected one of %s" % (name, kind, "/".join(kinds)), span
            )
        return kind, payload

    def algebra(self, name, span):
        return self.get(name, span, kinds=("algebra",))[1]


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.pos = 0
        self.ws = Workspace()

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, text):
        t = self.next()
        if t.text != text:
            raise DslSyntaxError("expected %r, found %r" % (text, t.text), t.span)
        return t

    def expect_ident(self):
        t = self.next()
        if t.kind != "ident":
            raise DslSyntaxError("expected a name, found %r" % t.text, t.span)
        return t

    def parse(self):
        while True:
            t = self.peek()
            if t.kind == "end":
                return self.ws
            if t.kind != "ident":
                raise DslSyntaxError("expected a statement, found %r" % t.text, t.span)
            handler = getattr(self, "_stmt_" + t.text, None)
            if handler is None:
                raise DslSyntaxError("unknown statement %r" % t.text, t.span)
            self.next()
            handler()

    # statement bodies ---------------------------------------------------

    def _basis(self):
        """The basis labels, as a label -> index dict in declaration order."""
        self.expect("{")
        kw = self.expect_ident()
        if kw.text != "basis":
            raise DslSyntaxError("expected 'basis'", kw.span)
        labels = []
        while self.peek().kind == "ident":
            labels.append(self.next().text)
        if self.peek().text == ";":
            self.next()
        if not labels:
            raise DslSyntaxError("empty basis", kw.span)
        index = {lab: i for i, lab in enumerate(labels)}
        if len(index) != len(labels):
            raise ShapeError("duplicate basis label", kw.span)
        return index

    def _number(self, tok):
        p, _, q = tok.text.partition("/")
        try:
            den = int(q or 1)
            num = int(p)
        except ValueError:  # more digits than the interpreter's int-string limit
            raise DslSyntaxError(
                "literal of %d digits is too long" % max(len(p), len(q)), tok.span
            ) from None
        if not den:
            raise DslSyntaxError("zero denominator in literal %r" % tok.text, tok.span)
        return Fraction(num, den)

    def _combo(self, index):
        """Linear combination over the labels of ``index``, as a sparse dict."""
        out = {}
        t = self.peek()
        if t.kind == "number" and t.text == "0":
            nxt = self.toks[self.pos + 1]
            if nxt.text in (";", ",", "}"):
                self.next()
                return out
        sign = 1
        if t.text == "-":
            self.next()
            sign = -1
        while True:
            t = self.next()
            coeff = sign
            if t.kind == "number":
                coeff = sign * self._number(t)
                t = self.next()
            if t.kind != "ident":
                raise DslSyntaxError("expected a basis label, found %r" % t.text, t.span)
            k = index.get(t.text)
            if k is None:
                raise UnknownNameError("unknown basis label %r" % t.text, t.span)
            s = out.get(k, 0) + coeff
            if s:
                out[k] = s
            elif k in out:
                del out[k]
            nxt = self.peek()
            if nxt.text == "+":
                self.next()
                sign = 1
                continue
            if nxt.text == "-":
                self.next()
                sign = -1
                continue
            return out

    def _matrix(self):
        t = self.peek()
        if t.kind == "ident" and t.text == "matrix":
            self.next()
        self.expect("[")
        rows = []
        while True:
            self.expect("[")
            row = []
            while True:
                s = 1
                t = self.next()
                if t.text == "-":
                    s = -1
                    t = self.next()
                if t.kind != "number":
                    raise DslSyntaxError("expected a number, found %r" % t.text, t.span)
                row.append(s * self._number(t))
                if self.peek().text == ",":
                    self.next()
                    continue
                break
            self.expect("]")
            rows.append(row)
            if self.peek().text == ",":
                self.next()
                continue
            break
        close = self.expect("]")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ShapeError("ragged matrix rows", close.span)
        return LinearMap(rows)

    def _stmt_algebra(self):
        name = self.expect_ident()
        index = self._basis()
        table = {}
        declared = set()
        while self.peek().text == "[":
            open_tok = self.next()
            a = self.expect_ident()
            self.expect(",")
            b = self.expect_ident()
            self.expect("]")
            self.expect("=")
            for t in (a, b):
                if t.text not in index:
                    raise UnknownNameError("unknown basis label %r" % t.text, t.span)
            i, j = index[a.text], index[b.text]
            if i == j:
                raise ShapeError("bracket of a label with itself", open_tok.span)
            if (min(i, j), max(i, j)) in declared:
                raise ShapeError(
                    "bracket [%s, %s] declared twice" % (a.text, b.text), open_tok.span
                )
            declared.add((min(i, j), max(i, j)))
            combo = self._combo(index)
            self.expect(";")
            if i > j:
                i, j = j, i
                combo = {k: -v for k, v in combo.items()}
            if combo:
                table[(i, j)] = combo
        self.expect("}")
        try:
            alg = LieAlgebra(list(index), table, check=True, name=name.text)
        except PreconditionError as exc:
            raise ShapeError(str(exc), name.span)
        self.ws.define(name.text, "algebra", alg, name.span)

    def _stmt_assoc(self):
        name = self.expect_ident()
        index = self._basis()
        table = {}
        while self.peek().kind == "ident":
            a = self.expect_ident()
            self.expect("*")
            b = self.expect_ident()
            self.expect("=")
            for t in (a, b):
                if t.text not in index:
                    raise UnknownNameError("unknown basis label %r" % t.text, t.span)
            pair = (index[a.text], index[b.text])
            if pair in table:
                raise ShapeError("product declared twice", a.span)
            combo = self._combo(index)
            self.expect(";")
            if combo:
                table[pair] = combo
        self.expect("}")
        try:
            alg = AssociativeAlgebra(list(index), table, name=name.text)
        except PreconditionError as exc:
            raise ShapeError(str(exc), name.span)
        self.ws.define(name.text, "assoc", alg, name.span)

    def _endo_body(self, dom, cod):
        """Image of every basis label of ``dom``, as sparse columns over ``cod``."""
        images = {}
        self.expect("{")
        while self.peek().kind == "ident":
            lab = self.expect_ident()
            if lab.text not in dom._index:
                raise UnknownNameError("unknown basis label %r" % lab.text, lab.span)
            if lab.text in images:
                raise ShapeError("image of %r declared twice" % lab.text, lab.span)
            self.expect("->")
            images[lab.text] = self._combo(cod._index)
            self.expect(";")
        close = self.expect("}")
        missing = [lab for lab in dom.labels if lab not in images]
        if missing:
            raise ShapeError("missing images for %s" % ", ".join(missing), close.span)
        return [images[lab] for lab in dom.labels]

    def _stmt_endo(self):
        name = self.expect_ident()
        self.expect("on")
        alg_name = self.expect_ident()
        alg = self.ws.algebra(alg_name.text, alg_name.span)
        cols = self._endo_body(alg, alg)
        lm = LinearMap.from_sparse_columns(alg.dim, alg.dim, cols)
        self.ws.define(name.text, "endo", (alg_name.text, lm), name.span)

    def _stmt_map(self):
        name = self.expect_ident()
        self.expect("from")
        dom_name = self.expect_ident()
        dom = self.ws.algebra(dom_name.text, dom_name.span)
        self.expect("to")
        cod_name = self.expect_ident()
        cod = self.ws.algebra(cod_name.text, cod_name.span)
        cols = self._endo_body(dom, cod)
        lm = LinearMap.from_sparse_columns(cod.dim, dom.dim, cols)
        self.ws.define(name.text, "map", (dom_name.text, cod_name.text, lm), name.span)

    def _stmt_conn(self):
        name = self.expect_ident()
        self.expect("on")
        alg_name = self.expect_ident()
        alg = self.ws.algebra(alg_name.text, alg_name.span)
        self.expect("{")
        mats = {}
        mdim = None
        while self.peek().kind == "ident":
            lab = self.expect_ident()
            if lab.text not in alg._index:
                raise UnknownNameError("unknown basis label %r" % lab.text, lab.span)
            if lab.text in mats:
                raise ShapeError("map at %r declared twice" % lab.text, lab.span)
            self.expect("=>")
            m = self._matrix()
            if m.rows != m.cols:
                raise ShapeError("connection maps must be square", lab.span)
            if mdim is None:
                mdim = m.rows
            elif m.rows != mdim:
                raise ShapeError("connection maps of unequal size", lab.span)
            mats[lab.text] = m
            self.expect(";")
        close = self.expect("}")
        missing = [lab for lab in alg.labels if lab not in mats]
        if missing:
            raise ShapeError("missing maps for %s" % ", ".join(missing), close.span)
        conn = Connection(alg, [mats[lab] for lab in alg.labels])
        self.ws.define(name.text, "conn", (alg_name.text, conn), name.span)

    def _stmt_form(self):
        name = self.expect_ident()
        self.expect("on")
        alg_name = self.expect_ident()
        alg = self.ws.algebra(alg_name.text, alg_name.span)
        kind_tok = self.expect_ident()
        kinds = {"sym": BilinearForm.SYMMETRIC, "skew": BilinearForm.SKEW}
        if kind_tok.text not in kinds:
            raise DslSyntaxError("expected 'sym' or 'skew'", kind_tok.span)
        m = self._matrix()
        if m.rows != alg.dim:
            raise ShapeError("form size does not match the algebra", name.span)
        try:
            form = BilinearForm(m, kinds[kind_tok.text])
        except PreconditionError as exc:
            raise ShapeError(str(exc), kind_tok.span)
        self.ws.define(name.text, "form", (alg_name.text, form), name.span)

    def _stmt_decomp(self):
        name = self.expect_ident()
        self.expect("on")
        alg_name = self.expect_ident()
        alg = self.ws.algebra(alg_name.text, alg_name.span)
        self.expect("{")
        parts = {}
        for key in ("part0", "part1"):
            kw = self.expect_ident()
            if kw.text != key:
                raise DslSyntaxError("expected %r" % key, kw.span)
            self.expect(":")
            vecs = []
            if self.peek().text != ";":
                while True:
                    vecs.append({k: exact(v) for k, v in self._combo(alg._index).items()})
                    if self.peek().text == ",":
                        self.next()
                        continue
                    break
            self.expect(";")
            parts[key] = vecs
        self.expect("}")
        self.ws.define(
            name.text,
            "decomp",
            (alg_name.text, Decomposition(parts["part0"], parts["part1"])),
            name.span,
        )

    def _call_args(self):
        self.expect("(")
        args = []
        if self.peek().text != ")":
            while True:
                t = self.next()
                if t.text == "-" and self.peek().kind == "number":
                    num = self.next()
                    args.append(("number", -self._number(num), t.span))
                elif t.kind == "number":
                    args.append(("number", self._number(t), t.span))
                elif t.kind == "ident":
                    args.append(("ident", t.text, t.span))
                elif t.text in ("+", "-"):
                    args.append(("sign", 1 if t.text == "+" else -1, t.span))
                else:
                    raise DslSyntaxError("bad argument %r" % t.text, t.span)
                if self.peek().text == ",":
                    self.next()
                    continue
                break
        self.expect(")")
        return args

    def _stmt_construct(self):
        name = self.expect_ident()
        self.expect("=")
        fn = self.expect_ident()
        args = self._call_args()
        start = len(self.ws.order)
        try:
            _run_construct(self.ws, name.text, fn.text, args, fn.span)
        except DslError:
            raise
        except LieforgeError as exc:
            raise ConstructionError(str(exc), fn.span)
        self.ws.construct_stmts.append((name.text, fn.text, args, self.ws.order[start:]))

    def _stmt_check(self):
        fn = self.expect_ident()
        args = self._call_args()
        if fn.text not in _CHECKS:
            raise UnknownNameError("unknown check %r" % fn.text, fn.span)
        arity_ok, _, sig = _CHECKS[fn.text]
        if not arity_ok(len(args)):
            raise ArityError("wrong number of arguments for %r" % fn.text, fn.span)
        # resolve names and kinds now: single pass, no forward references
        positional, trailing = sig
        if len(positional) > len(args):
            positional = positional[-len(args):]  # optional leading argument
        for idx, (kind, value, span) in enumerate(args):
            want = positional[idx] if idx < len(positional) else trailing
            if want == "label":
                if kind != "ident" or not _is_label_of_args(self.ws, args, value):
                    raise ShapeError("expected a basis label", span)
            elif want is not None:
                if kind != "ident":
                    raise ShapeError("expected a name", span)
                self.ws.get(value, span, kinds=want)
        self.ws.checks.append((fn.text, args, fn.span))


def _is_label_of_args(ws, args, value):
    for kind, v, _ in args:
        if kind == "ident" and v in ws.definitions:
            k, payload = ws.definitions[v]
            alg = None
            if k == "algebra":
                alg = payload
            elif k in ("endo", "conn", "form", "decomp"):
                alg = ws.definitions[payload[0]][1]
            if alg is not None and value in alg._index:
                return True
    return False


def parse(text):
    """Parse DSL text into a workspace, executing constructions eagerly."""
    return _Parser(text).parse()


# --------------------------------------------------------------------------
# constructions reachable from the DSL


def _arg_object(ws, arg, kinds):
    kind, value, span = arg
    if kind != "ident":
        raise ShapeError("expected a name", span)
    return ws.get(value, span, kinds=kinds)[1]


def _arg_algebra(ws, arg):
    return _arg_object(ws, arg, ("algebra",))


def _run_construct(ws, name, fn, args, span):
    def need(k):
        if len(args) != k:
            raise ArityError("%r takes %d argument(s)" % (fn, k), span)

    if fn == "semidirect":
        need(2)
        g = _arg_algebra(ws, args[0])
        _, conn = _arg_object(ws, args[1], ("conn",))
        alg = semidirect(g, conn, name=name)
        ws.define(name, "algebra", alg, span)
    elif fn == "tangent":
        need(2)
        g = _arg_algebra(ws, args[0])
        _, conn = _arg_object(ws, args[1], ("conn",))
        if conn.module_dim != g.dim:
            raise ShapeError("connection module does not match the algebra", span)
        alg = tangent(g, conn, name=name)
        ws.define(name, "algebra", alg, span)
    elif fn == "cotangent":
        need(2)
        g = _arg_algebra(ws, args[0])
        _, conn = _arg_object(ws, args[1], ("conn",))
        alg, omega = cotangent(g, conn, name=name)
        ws.define(name, "algebra", alg, span)
        ws.define(name + "_omega", "form", (name, omega), span)
    elif fn == "central_ext":
        need(1)
        g = _arg_algebra(ws, args[0])
        ws.define(name, "algebra", central_extension(g, name=name), span)
    elif fn == "aff":
        need(1)
        A = _arg_object(ws, args[0], ("assoc",))
        alg, K, conn = aff_algebra(A, name=name)
        ws.define(name, "algebra", alg, span)
        ws.define(name + "_K", "endo", (name, K), span)
        ws.define(name + "_conn", "conn", (name, conn), span)
    elif fn == "tower":
        need(3)
        g = _arg_algebra(ws, args[0])
        _, conn = _arg_object(ws, args[1], ("conn",))
        kind, m, aspan = args[2]
        if kind != "number" or m != int(m) or int(m) < 1:
            raise ShapeError("tower level must be a positive integer", aspan)
        alg, lifted, family = st.clifford_tower(g, conn, int(m), name=name)
        ws.define(name, "algebra", alg, span)
        ws.define(name + "_conn", "conn", (name, lifted), span)
        for i, J in enumerate(family.maps):
            ws.define(name + "_J%d" % (i + 1), "endo", (name, J), span)
    elif fn == "canonical_K":
        need(1)
        g = _arg_algebra(ws, args[0])
        K = st.canonical_complex_structure(g)
        ws.define(name, "endo", (args[0][1], K), span)
    elif fn == "nabla1":
        need(2)
        talg_name = args[0][1]
        talg = _arg_algebra(ws, args[0])
        _, conn = _arg_object(ws, args[1], ("conn",))
        if talg.dim != 2 * conn.module_dim:
            raise ShapeError("algebra is not the double of the connection base", span)
        ws.define(name, "conn", (talg_name, st.lifted_connection(conn, talg)), span)
    elif fn == "levi_civita":
        need(2)
        g = _arg_algebra(ws, args[0])
        alg_name = args[0][1]
        _, form = _arg_object(ws, args[1], ("form",))
        ws.define(name, "conn", (alg_name, st.levi_civita(g, form)), span)
    elif fn == "jplus":
        need(4)
        alg_name = args[0][1]
        alg = _arg_algebra(ws, args[0])
        _, J = _arg_object(ws, args[1], ("endo",))
        _, I = _arg_object(ws, args[2], ("endo",))
        kind, sign, aspan = args[3]
        if kind != "sign":
            raise ShapeError("expected + or -", aspan)
        Jm, Im = J, I
        if Jm.rows + Im.rows != alg.dim:
            raise ShapeError("block sizes do not sum to the algebra dimension", span)
        ws.define(
            name, "endo", (alg_name, st.block_complex_structure(Jm, Im, sign)), span
        )
    elif fn == "omega_psi":
        need(3)
        alg_name = args[0][1]
        alg = _arg_algebra(ws, args[0])
        _, conn = _arg_object(ws, args[1], ("conn",))
        _, psi = _arg_object(ws, args[2], ("endo",))
        if alg.dim != 2 * conn.module_dim:
            raise ShapeError("algebra is not the double of the connection base", span)
        omega = st.symplectic_from_duality(conn, psi)
        ws.define(name, "form", (alg_name, omega), span)
    else:
        raise UnknownNameError("unknown construction %r" % fn, span)


# --------------------------------------------------------------------------
# checks reachable from the DSL


def _endo_with_algebra(ws, arg):
    alg_name, lm = _arg_object(ws, arg, ("endo",))
    return ws.definitions[alg_name][1], lm


def _split_from_labels(alg, args):
    vecs = []
    for kind, value, span in args:
        if kind != "ident" or value not in alg.labels:
            raise ShapeError("expected a basis label of the target algebra", span)
        vecs.append({alg.index(value): 1})
    return vecs


def _ck_jacobi(ws, args):
    return [check_jacobi(_arg_algebra(ws, args[0]), target=args[0][1])]


def _ck_integrable(ws, args):
    alg, lm = _endo_with_algebra(ws, args[0])
    split = _split_from_labels(alg, args[1:]) if len(args) > 1 else None
    return [check_integrable(alg, lm, split=split, target=args[0][1])]


def _ck_complex_lie(ws, args):
    alg, lm = _endo_with_algebra(ws, args[0])
    return [check_complex_lie(alg, lm, target=args[0][1])]


def _ck_abelian_complex(ws, args):
    alg, lm = _endo_with_algebra(ws, args[0])
    return [check_abelian_complex(alg, lm, target=args[0][1])]


def _ck_representation(ws, args):
    _, conn = _arg_object(ws, args[0], ("conn",))
    return [check_representation(conn, target=args[0][1])]


def _ck_torsion_free(ws, args):
    _, conn = _arg_object(ws, args[0], ("conn",))
    return [check_torsion_free(conn, target=args[0][1])]


def _ck_closed(ws, args):
    alg_name, form = _arg_object(ws, args[0], ("form",))
    return [check_closed(ws.definitions[alg_name][1], form, target=args[0][1])]


def _ck_symplectic(ws, args):
    alg_name, form = _arg_object(ws, args[0], ("form",))
    return [check_symplectic(ws.definitions[alg_name][1], form, target=args[0][1])]


def _ck_parallel(ws, args):
    _, conn = _arg_object(ws, args[0], ("conn",))
    _, tensor = _arg_object(ws, args[1], ("endo", "form"))
    return [check_parallel(conn, tensor, target=args[1][1])]


def _ck_metric(ws, args):
    _, conn = _arg_object(ws, args[0], ("conn",))
    _, form = _arg_object(ws, args[1], ("form",))
    return [check_metric(conn, form, target=args[0][1])]


def _ck_product_structure(ws, args):
    alg, lm = _endo_with_algebra(ws, args[0])
    return [check_product_structure(alg, lm, target=args[0][1])]


def _ck_eigensplit(ws, args):
    alg, lm = _endo_with_algebra(ws, args[0])
    _, _, certs = eigenspace_split(alg, AlmostComplex(lm))
    return list(certs)


def _ck_action_compatibility(ws, args):
    _, conn = _arg_object(ws, args[0], ("conn",))
    _, J = _endo_with_algebra(ws, args[1])
    _, I = _arg_object(ws, args[2], ("endo",))
    _, decomp = _arg_object(ws, args[3], ("decomp",))
    g = conn.algebra
    return [
        st.check_action_compatibility(
            g, conn, AlmostComplex(J), AlmostComplex(I), decomp, target=args[0][1]
        )
    ]


def _ck_torsion_equivalence(ws, args):
    arg = args[-1]
    _, conn = _arg_object(ws, arg, ("conn",))
    return [
        st.check_torsion_integrability_equivalence(
            conn.algebra, conn, target=arg[1]
        )
    ]


def _ck_reconstruct(ws, args):
    alg = _arg_algebra(ws, args[0])
    _, K = _endo_with_algebra(ws, args[1])
    part = []
    for kind, value, span in args[2:]:
        if kind != "ident" or value not in alg.labels:
            raise ShapeError("expected a basis label of the algebra", span)
        part.append(alg.index(value))
    _, _, cert = st.reconstruct_connection(alg, AlmostComplex(K), part, target=args[0][1])
    return [cert]


def _ck_self_dual(ws, args):
    _, conn = _arg_object(ws, args[0], ("conn",))
    _, psi = _arg_object(ws, args[1], ("endo",))
    return [st.check_self_dual(conn, psi, target=args[0][1])]


def _ck_pseudo_kahler(ws, args):
    g = _arg_algebra(ws, args[0])
    _, form = _arg_object(ws, args[1], ("form",))
    return [st.check_pseudo_kahler(g, form, target=args[0][1])]


def _ck_holomorphic(ws, args):
    dom_name, cod_name, iota = _arg_object(ws, args[0], ("map",))
    dom = ws.definitions[dom_name][1]
    cod = ws.definitions[cod_name][1]
    _, Jd = _arg_object(ws, args[1], ("endo",))
    _, Jc = _arg_object(ws, args[2], ("endo",))
    return [
        st.check_holomorphic(
            dom, cod, iota, AlmostComplex(Jd), AlmostComplex(Jc), target=args[0][1]
        )
    ]


def _ck_hypercomplex(ws, args):
    _, conn = _arg_object(ws, args[0], ("conn",))
    _, J = _arg_object(ws, args[1], ("endo",))
    _, _, cert = st.hypercomplex_pair(conn.algebra, conn, AlmostComplex(J), target=args[0][1])
    return [cert]


_A = ("algebra",)
_E = ("endo",)
_C = ("conn",)
_F = ("form",)

_CHECKS = {
    "jacobi": (lambda n: n == 1, _ck_jacobi, ([_A], None)),
    "integrable": (lambda n: n >= 1, _ck_integrable, ([_E], "label")),
    "complex_lie": (lambda n: n == 1, _ck_complex_lie, ([_E], None)),
    "abelian_complex": (lambda n: n == 1, _ck_abelian_complex, ([_E], None)),
    "representation": (lambda n: n == 1, _ck_representation, ([_C], None)),
    "flat": (lambda n: n == 1, _ck_representation, ([_C], None)),
    "torsion_free": (lambda n: n == 1, _ck_torsion_free, ([_C], None)),
    "closed": (lambda n: n == 1, _ck_closed, ([_F], None)),
    "symplectic": (lambda n: n == 1, _ck_symplectic, ([_F], None)),
    "parallel": (lambda n: n == 2, _ck_parallel, ([_C, ("endo", "form")], None)),
    "metric": (lambda n: n == 2, _ck_metric, ([_C, _F], None)),
    "product_structure": (lambda n: n == 1, _ck_product_structure, ([_E], None)),
    "eigensplit": (lambda n: n == 1, _ck_eigensplit, ([_E], None)),
    "action_compatibility": (
        lambda n: n == 4,
        _ck_action_compatibility,
        ([_C, _E, _E, ("decomp",)], None),
    ),
    "torsion_equivalence": (
        lambda n: n in (1, 2),
        _ck_torsion_equivalence,
        ([_A, _C], None),
    ),
    "reconstruct": (lambda n: n >= 3, _ck_reconstruct, ([_A, _E], "label")),
    "self_dual": (lambda n: n == 2, _ck_self_dual, ([_C, _E], None)),
    "pseudo_kahler": (lambda n: n == 2, _ck_pseudo_kahler, ([_A, _F], None)),
    "holomorphic": (lambda n: n == 3, _ck_holomorphic, ([("map",), _E, _E], None)),
    "hypercomplex": (lambda n: n == 2, _ck_hypercomplex, ([_C, _E], None)),
}


def _run_one(ws, fname, args, span):
    """Run one check; a violated precondition becomes a failing certificate
    whose ``elapsed_ms`` is the time spent up to the exception."""
    runner = _CHECKS[fname][1]
    t0 = time.perf_counter()
    try:
        return runner(ws, args)
    except DslError:
        raise
    except LieforgeError as exc:
        return [
            Certificate(
                check_name=fname,
                target=args[0][1] if args else "",
                passed=False,
                witnesses=[Witness(("precondition",), ())],
                total_failures=1,
                elapsed_ms=(time.perf_counter() - t0) * 1000.0,
                notes={"precondition": str(exc)},
            )
        ]


def run(workspace):
    """Execute the queued checks; output certificate order matches the queue.

    Construction preconditions violated at run time become failing
    certificates flagged in the notes rather than crashes.
    """
    results = []
    for f, a, s in workspace.checks:
        results.extend(_run_one(workspace, f, a, s))
    return results


# --------------------------------------------------------------------------
# emission


def _combo_to_dsl(sparse, labels):
    if not sparse:
        return "0"
    parts = []
    for k in sorted(sparse):
        c = sparse[k]
        mag = -c if c < 0 else c
        coeff = "" if mag == 1 else "%s " % mag
        term = "%s%s" % (coeff, labels[k])
        if not parts:
            parts.append(("- " if c < 0 else "") + term)
        else:
            parts.append(("- " if c < 0 else "+ ") + term)
    return " ".join(parts)


def _matrix_to_dsl(m):
    rows = ", ".join(
        "[%s]" % ", ".join(str(e) for e in row) for row in m.data
    )
    return "matrix [%s]" % rows


def algebra_to_dsl(alg, name=None):
    name = name or alg.name
    lines = ["algebra %s {" % name, "  basis %s ;" % " ".join(alg.labels)]
    for (i, j) in sorted(alg.table):
        lines.append(
            "  [%s, %s] = %s ;"
            % (alg.labels[i], alg.labels[j], _combo_to_dsl(alg.table[(i, j)], alg.labels))
        )
    lines.append("}")
    return "\n".join(lines)


def _images_to_dsl(head, lm, dom_labels, cod_labels):
    cols = lm.sparse_columns()
    lines = [head + " {"]
    for i, lab in enumerate(dom_labels):
        lines.append("  %s -> %s ;" % (lab, _combo_to_dsl(cols[i], cod_labels)))
    lines.append("}")
    return "\n".join(lines)


def endo_to_dsl(name, alg_name, labels, lm):
    return _images_to_dsl("endo %s on %s" % (name, alg_name), lm, labels, labels)


def conn_to_dsl(name, alg_name, labels, conn):
    lines = ["conn %s on %s {" % (name, alg_name)]
    for lab, op in zip(labels, conn.maps):
        lines.append("  %s => %s ;" % (lab, _matrix_to_dsl(op.matrix)))
    lines.append("}")
    return "\n".join(lines)


def form_to_dsl(name, alg_name, form):
    kind = "sym" if form.kind == BilinearForm.SYMMETRIC else "skew"
    return "form %s on %s %s %s" % (name, alg_name, kind, _matrix_to_dsl(form.matrix))


def entry_to_dsl(entry):
    """Canonical DSL text for a catalog entry and its emittable structures."""
    chunks = [algebra_to_dsl(entry.algebra, name=entry.name)]
    alg = entry.algebra
    for key in sorted(entry.structures):
        obj = entry.structures[key]
        sname = "%s_%s" % (entry.name, key)
        if isinstance(obj, LinearMap) and obj.rows == alg.dim and obj.cols == alg.dim:
            chunks.append(endo_to_dsl(sname, entry.name, alg.labels, obj))
        elif isinstance(obj, Connection) and obj.algebra is alg:
            chunks.append(conn_to_dsl(sname, entry.name, alg.labels, obj))
        elif isinstance(obj, BilinearForm) and obj.dim == alg.dim:
            chunks.append(form_to_dsl(sname, entry.name, obj))
    return "\n\n".join(chunks) + "\n"


def workspace_to_dsl(ws):
    """Canonical re-emission of a parsed workspace's declarations and checks.

    A construct statement is emitted where its first product was defined and
    stands in for every name it defined.
    """
    constructed = {}  # name -> its construct statement, or None past the first
    for target, fn, args, names in ws.construct_stmts:
        constructed.update(dict.fromkeys(names[1:]))
        constructed[names[0]] = "construct %s = %s(%s)" % (target, fn, _args_to_dsl(args))
    chunks = []
    for name in ws.order:
        kind, payload = ws.definitions[name]
        if name in constructed:
            if constructed[name]:
                chunks.append(constructed[name])
        elif kind == "algebra":
            chunks.append(algebra_to_dsl(payload, name=name))
        elif kind == "assoc":
            lines = ["assoc %s {" % name, "  basis %s ;" % " ".join(payload.labels)]
            for (i, j) in sorted(payload.table):
                lines.append(
                    "  %s * %s = %s ;"
                    % (
                        payload.labels[i],
                        payload.labels[j],
                        _combo_to_dsl(payload.table[(i, j)], payload.labels),
                    )
                )
            lines.append("}")
            chunks.append("\n".join(lines))
        elif kind == "endo":
            alg_name, lm = payload
            alg = ws.definitions[alg_name][1]
            chunks.append(endo_to_dsl(name, alg_name, alg.labels, lm))
        elif kind == "conn":
            alg_name, conn = payload
            alg = ws.definitions[alg_name][1]
            chunks.append(conn_to_dsl(name, alg_name, alg.labels, conn))
        elif kind == "form":
            alg_name, form = payload
            chunks.append(form_to_dsl(name, alg_name, form))
        elif kind == "map":
            dom_name, cod_name, lm = payload
            dom = ws.definitions[dom_name][1]
            cod = ws.definitions[cod_name][1]
            head = "map %s from %s to %s" % (name, dom_name, cod_name)
            chunks.append(_images_to_dsl(head, lm, dom.labels, cod.labels))
        elif kind == "decomp":
            alg_name, dec = payload
            alg = ws.definitions[alg_name][1]
            def vecline(vs):
                if not vs:
                    return ""
                return " " + " , ".join(_combo_to_dsl(_sparse(v), alg.labels) for v in vs) + " "
            chunks.append(
                "decomp %s on %s {\n  part0 :%s;\n  part1 :%s;\n}"
                % (name, alg_name, vecline(dec.part0), vecline(dec.part1))
            )
    for fn, args, _ in ws.checks:
        chunks.append("check %s(%s)" % (fn, _args_to_dsl(args)))
    return "\n\n".join(chunks) + "\n"


def _args_to_dsl(args):
    parts = []
    for kind, value, _ in args:
        if kind == "sign":
            parts.append("+" if value == 1 else "-")
        else:
            parts.append(str(value))
    return ", ".join(parts)
