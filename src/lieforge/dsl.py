"""Line-oriented declarative language for algebras, maps and checks.

Single-pass: every name must be declared before use, and names share one
namespace.  Structure constants are declared for ordered pairs only;
declaring both orders of a bracket is an error rather than a consistency
check, so each constant has one canonical source.

The parser pulls tokens from the text as it goes.  It reads whole
``[a, b] = combo ;`` lines of an algebra and ``a -> combo ;`` lines of an
endo or map with one anchored pattern each, which also skips the blank and
comment lines and any trailing comment between them.  It goes back to the
tokens at a line the pattern misses or that reading would reject, so every
error and its span comes from the tokens.  A lexical error anywhere in the
text is raised before any statement is read.

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
from collections import namedtuple
from fractions import Fraction
from functools import partial

from .scalar_linear import LieforgeError, PreconditionError, exact
from .lie_core import (
    MAX_DIM,
    BilinearForm,
    Certificate,
    Connection,
    LieAlgebra,
    LinearMap,
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
)
from .constructions import (
    AssociativeAlgebra,
    _is_tangent,
    _lift,
    aff_algebra,
    central_extension,
    cotangent,
    eigenspace_split,
    semidirect,
    symplectic_from_duality,
    tangent,
)
from . import structures as st

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


class SourceSpan(namedtuple("SourceSpan", "line column length")):
    __slots__ = ()

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


class _Token(namedtuple("_Token", "kind text line column length offset")):
    """One token: kind is ident | number | punct | end; it starts at ``offset``."""

    __slots__ = ()

    @property
    def span(self):
        return SourceSpan(self.line, self.column, self.length)


# One alternative per token kind, tried in this order after any blanks.  A
# comment that runs to the end of the text belongs to ``end``, which keeps
# the comment's column.  ``\d`` is a Unicode decimal digit, what ``int``
# reads; ``[^\W\d]`` is a letter, ``_`` or a numeric character that is not
# a decimal digit, which ``_tokens`` refuses.
_NAME = r"[^\W\d][\w']*"
_TOKEN = re.compile(
    r"""[ \t\r]*(?:
      (?P<newline>\n)
    | (?P<end>(?:\#[^\n]*)?\Z)
    | (?P<comment>\#[^\n]*)
    | (?P<punct>->|=>|[{}\[\](),;:*+\-=])
    | (?P<number>\d+(?:/\d*)?)
    | (?P<ident>%s)
    | (?P<bad>.)
    )""" % _NAME,
    re.VERBOSE,
)


def _tokens(text, pos=0, line=1, bol=0):
    """The tokens of ``text`` from offset ``pos``, on line ``line`` that
    begins at offset ``bol``, ending in one ``end`` token."""
    make = tuple.__new__
    for m in _TOKEN.finditer(text, pos):  # every text ends in an ``end`` match
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
            yield make(_Token, ("end", "", line, col, 0, start))
            return
        tok = m[kind]
        if kind == "number" and tok[-1] == "/":
            nxt = text[m.end() : m.end() + 1]
            if nxt.isdigit():
                raise _unexpected(nxt, line, col + len(tok))
            raise DslSyntaxError("malformed rational literal", SourceSpan(line, col, 1))
        if kind == "bad" or kind == "ident" and not (tok[0].isalpha() or tok[0] == "_"):
            raise _unexpected(tok[0], line, col)
        yield make(_Token, (kind, tok, line, col, len(tok), start))


# Text in which ``_tokens`` finds no lexical error and every name starts with
# an ASCII letter or ``_``: each alternative reads a token or a run of blanks
# and punctuation, a ``>`` only ending ``->`` or ``=>``, a ``/`` only in a number.
_CLEAN = re.compile(
    r"(?:[A-Za-z_][\w']*+|[ \t\r\n,;\[\](){}:*+=\-]++|\d++(?:/\d++)?+|(?<=[-=])>|\#[^\n]*+)*+"
)


def _tokenize(text):
    """The tokens of ``text``, ending in one ``end`` token."""
    return list(_tokens(text))


def _unexpected(ch, line, column):
    return DslSyntaxError("unexpected character %r" % ch, SourceSpan(line, column, 1))


# Statement patterns: lines of blanks and comments (the first may follow
# the statement before), then blanks and one whole statement on one line in
# the tokenizer's syntax.  Those lines are read possessively, and only the
# statement's own leading blanks are read twice, so a match that fails takes
# time linear in the text it reads.
_B = r"[ \t\r]*"
_T = r"(?:(\d+(?:/\d+)?)%s)?(%s)" % (_B, _NAME)  # one term: number, label
_TERM = re.compile(r"%s(?:([+-])%s)?%s" % (_B, _B, _T))


def _statement(head):
    """The pattern of ``head combo ;``, where ``a`` and ``b`` in ``head`` are labels."""
    parts = ["(?P<%s>%s)" % (p, _NAME) if p in ("a", "b") else p for p in head.split()]
    parts.append(r"(?P<combo>0|(?:-%s)?%s(?:%s[+-]%s%s)*)" % (_B, _T, _B, _B, _T))
    return re.compile(r"(?:[ \t\r]*+(?:\#[^\n]*+)?+\n)*+" + _B + _B.join(parts + [";"]))


_BRACKET = _statement(r"\[ a , b \] =")
_IMAGE = _statement("a ->")


def _terms(combo, index):
    """The sparse dict that ``_Parser._combo`` reads from the text of a
    matched combo, or None where it would raise."""
    out = {}
    try:
        for sign, num, lab in _TERM.findall(combo):
            coeff = _fraction(num) if num else 1
            _add(out, index[lab], -coeff if sign == "-" else coeff)
    except (KeyError, ValueError, ZeroDivisionError):  # where ``_combo`` raises
        return None
    return out


def _fraction(literal):
    """The value of a number literal.  ``ValueError``: a part has more digits
    than ``int`` reads; ``ZeroDivisionError``: a zero denominator."""
    p, _, q = literal.partition("/")
    return Fraction(int(p), int(q or 1))


def _label(index, tok):
    """The index in ``index`` of the basis label ``tok`` names."""
    k = index.get(tok.text)
    if k is None:
        raise UnknownNameError("unknown basis label %r" % tok.text, tok.span)
    return k


def _build(span, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its PreconditionError raised as a ShapeError at ``span``."""
    try:
        return make(*args, **kwargs)
    except PreconditionError as exc:
        raise ShapeError(str(exc), span)


def _add(out, k, coeff):
    """Add ``coeff`` at ``k`` of the sparse dict ``out``, dropping a zero."""
    s = out.get(k, 0) + coeff
    if s:
        out[k] = s
    elif k in out:
        del out[k]


class Workspace:
    """Ordered named definitions plus the queued checks."""

    def __init__(self):
        self.definitions = {}  # name -> (kind, payload), in declaration order
        self.checks = []  # (fname, [raw args], target name, call on the resolved args)
        self.construct_stmts = []  # (target name, fname, [raw args], [names defined])

    def define(self, name, kind, payload, span):
        if name in self.definitions:
            raise DuplicateNameError("name %r is already defined" % name, span)
        self.definitions[name] = (kind, payload)

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
        self.text = text
        self.toks = _tokens(text)
        self.tok = next(self.toks)  # the lookahead
        self.ws = Workspace()

    def next(self):
        t = self.tok
        self.tok = next(self.toks, t)  # past the end, ``end`` again
        return t

    def _fast(self, pattern, read):
        """Read ``pattern`` statements while ``read`` takes them, then pull
        tokens from the first it refuses; returns the lookahead."""
        text, t = self.text, self.tok
        at = t.offset
        while (m := pattern.match(text, at)) and read(m):
            at = m.end()
        if at != t.offset:
            line = t.line + text.count("\n", t.offset, at)
            # the line starts after the last line break read, if any
            bol = text.rfind("\n", t.offset, at) + 1 or t.offset - t.column + 1
            self.toks = _tokens(text, at, line, bol)
            self.tok = next(self.toks)
        return self.tok

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
            t = self.tok
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

    def _head(self):
        """``NAME on ALG``: the name token, the algebra-name token and the algebra."""
        name = self.expect_ident()
        self.expect("on")
        alg_name = self.expect_ident()
        return name, alg_name, self.ws.algebra(alg_name.text, alg_name.span)

    def _basis(self):
        """The basis labels, as a label -> index dict in declaration order."""
        self.expect("{")
        kw = self.expect_ident()
        if kw.text != "basis":
            raise DslSyntaxError("expected 'basis'", kw.span)
        labels = []
        while self.tok.kind == "ident":
            labels.append(self.next().text)
        if self.tok.text == ";":
            self.next()
        if not labels:
            raise DslSyntaxError("empty basis", kw.span)
        if len(labels) > MAX_DIM:
            raise ShapeError("basis has more than %d labels" % MAX_DIM, kw.span)
        index = {lab: i for i, lab in enumerate(labels)}
        if len(index) != len(labels):
            raise ShapeError("duplicate basis label", kw.span)
        return index

    def _number(self, tok):
        try:
            return _fraction(tok.text)
        except ValueError:  # more digits than the interpreter's int-string limit
            n = max(map(len, tok.text.split("/")))
            raise DslSyntaxError("literal of %d digits is too long" % n, tok.span) from None
        except ZeroDivisionError:
            raise DslSyntaxError("zero denominator in literal %r" % tok.text, tok.span) from None

    def _combo(self, index):
        """Linear combination over the labels of ``index``, as a sparse dict."""
        out = {}
        t = self.next()
        if t.text == "0" and self.tok.text in (";", ",", "}"):
            return out
        sign = 1
        if t.text == "-":
            sign = -1
            t = self.next()
        while True:
            coeff = sign
            if t.kind == "number":
                coeff = sign * self._number(t)
                t = self.next()
            if t.kind != "ident":
                raise DslSyntaxError("expected a basis label, found %r" % t.text, t.span)
            _add(out, _label(index, t), coeff)
            if self.tok.text not in ("+", "-"):
                return out
            sign = -1 if self.next().text == "-" else 1
            t = self.next()

    def _list(self, read):
        """The values of ``read()``, called once and again after each comma."""
        out = [read()]
        while self.tok.text == ",":
            self.next()
            out.append(read())
        return out

    def _entry(self):
        """A matrix entry: a number, optionally negated."""
        t = self.next()
        s = -1 if t.text == "-" else 1
        if s < 0:
            t = self.next()
        if t.kind != "number":
            raise DslSyntaxError("expected a number, found %r" % t.text, t.span)
        return s * self._number(t)

    def _row(self):
        self.expect("[")
        row = self._list(self._entry)
        self.expect("]")
        return row

    def _matrix(self):
        t = self.tok
        if t.kind == "ident" and t.text == "matrix":
            self.next()
        self.expect("[")
        rows = self._list(self._row)
        close = self.expect("]")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ShapeError("ragged matrix rows", close.span)
        return LinearMap(rows)

    def _stmt_algebra(self):
        name = self.expect_ident()
        index = self._basis()
        table = {}
        declared = set()  # both orders of every declared pair

        def put(i, j, combo):
            declared.update(((i, j), (j, i)))
            if i > j:
                i, j, combo = j, i, {k: -v for k, v in combo.items()}
            if combo:
                table[(i, j)] = combo

        def bracket(m):
            i, j, combo = index.get(m["a"]), index.get(m["b"]), _terms(m["combo"], index)
            if None in (i, j, combo) or i == j or (i, j) in declared:
                return False
            put(i, j, combo)
            return True

        while self._fast(_BRACKET, bracket).text == "[":
            open_tok = self.next()
            a = self.expect_ident()
            self.expect(",")
            b = self.expect_ident()
            self.expect("]")
            self.expect("=")
            i, j = _label(index, a), _label(index, b)
            if i == j:
                raise ShapeError("bracket of a label with itself", open_tok.span)
            if (i, j) in declared:
                raise ShapeError(
                    "bracket [%s, %s] declared twice" % (a.text, b.text), open_tok.span
                )
            combo = self._combo(index)
            self.expect(";")
            put(i, j, combo)
        self.expect("}")
        alg = _build(name.span, LieAlgebra, list(index), table, name=name.text)
        self.ws.define(name.text, "algebra", alg, name.span)

    def _stmt_assoc(self):
        name = self.expect_ident()
        index = self._basis()
        table = {}
        declared = set()
        while self.tok.kind == "ident":
            a = self.expect_ident()
            self.expect("*")
            b = self.expect_ident()
            self.expect("=")
            pair = (_label(index, a), _label(index, b))
            if pair in declared:
                raise ShapeError("product declared twice", a.span)
            declared.add(pair)
            combo = self._combo(index)
            self.expect(";")
            if combo:
                table[pair] = combo
        self.expect("}")
        alg = _build(name.span, AssociativeAlgebra, list(index), table, name=name.text)
        self.ws.define(name.text, "assoc", alg, name.span)

    def _labelled(self, dom, arrow, read, words, fast=None):
        """The values of ``{ LABEL arrow value ; ... }``, one per basis label
        of ``dom``, in basis order.  ``read(label_token)`` reads a value from
        the tokens; ``words`` are the (declared twice, missing) error phrases;
        ``fast``, if given, is a statement pattern and the value of its match
        (None where ``read`` would raise), tried on each line first."""
        values = {}

        def take(m):
            lab, value = m["a"], fast[1](m)
            ok = lab in dom._index and lab not in values and value is not None
            if ok:
                values[lab] = value
            return ok

        self.expect("{")
        while (self._fast(fast[0], take) if fast else self.tok).kind == "ident":
            lab = self.expect_ident()
            _label(dom._index, lab)
            if lab.text in values:
                raise ShapeError("%s %r declared twice" % (words[0], lab.text), lab.span)
            self.expect(arrow)
            values[lab.text] = read(lab)
            self.expect(";")
        close = self.expect("}")
        missing = [lab for lab in dom.labels if lab not in values]
        if missing:
            raise ShapeError("missing %s for %s" % (words[1], ", ".join(missing)), close.span)
        return [values[lab] for lab in dom.labels]

    def _images(self, dom, cod):
        """Image of every basis label of ``dom``, as sparse columns over ``cod``."""
        index = cod._index
        fast = (_IMAGE, lambda m: _terms(m["combo"], index))
        return self._labelled(
            dom, "->", lambda _: self._combo(index), ("image of", "images"), fast
        )

    def _stmt_endo(self):
        name, alg_name, alg = self._head()
        cols = self._images(alg, alg)
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
        cols = self._images(dom, cod)
        lm = LinearMap.from_sparse_columns(cod.dim, dom.dim, cols)
        self.ws.define(name.text, "map", (dom_name.text, cod_name.text, lm), name.span)

    def _stmt_conn(self):
        name, alg_name, alg = self._head()
        sizes = set()

        def square(lab):
            m = self._matrix()
            if m.rows != m.cols:
                raise ShapeError("connection maps must be square", lab.span)
            sizes.add(m.rows)
            if len(sizes) > 1:
                raise ShapeError("connection maps of unequal size", lab.span)
            return m

        maps = self._labelled(alg, "=>", square, ("map at", "maps"))
        self.ws.define(name.text, "conn", (alg_name.text, Connection(alg, maps)), name.span)

    def _stmt_form(self):
        name, alg_name, alg = self._head()
        kind_tok = self.expect_ident()
        kinds = {"sym": BilinearForm.SYMMETRIC, "skew": BilinearForm.SKEW}
        if kind_tok.text not in kinds:
            raise DslSyntaxError("expected 'sym' or 'skew'", kind_tok.span)
        m = self._matrix()
        if m.rows != alg.dim:
            raise ShapeError("form size does not match the algebra", name.span)
        form = _build(kind_tok.span, BilinearForm, m, kinds[kind_tok.text])
        self.ws.define(name.text, "form", (alg_name.text, form), name.span)

    def _stmt_decomp(self):
        name, alg_name, alg = self._head()
        self.expect("{")
        parts = {}
        for key in ("part0", "part1"):
            kw = self.expect_ident()
            if kw.text != key:
                raise DslSyntaxError("expected %r" % key, kw.span)
            self.expect(":")
            combos = [] if self.tok.text == ";" else self._list(partial(self._combo, alg._index))
            parts[key] = [{k: exact(v) for k, v in c.items()} for c in combos]
            self.expect(";")
        self.expect("}")
        decomp = st.Decomposition(parts["part0"], parts["part1"])
        self.ws.define(name.text, "decomp", (alg_name.text, decomp), name.span)

    def _arg(self):
        """One call argument as (kind, value, span)."""
        t = self.next()
        if t.text == "-" and self.tok.kind == "number":
            return ("number", -self._number(self.next()), t.span)
        if t.kind == "number":
            return ("number", self._number(t), t.span)
        if t.kind == "ident":
            return ("ident", t.text, t.span)
        if t.text in ("+", "-"):
            return ("sign", 1 if t.text == "+" else -1, t.span)
        raise DslSyntaxError("bad argument %r" % t.text, t.span)

    def _call_args(self):
        self.expect("(")
        args = [] if self.tok.text == ")" else self._list(self._arg)
        self.expect(")")
        return args

    def _stmt_construct(self):
        name = self.expect_ident()
        self.expect("=")
        fn = self.expect_ident()
        args = self._call_args()
        if fn.text not in _CONSTRUCTS:
            raise UnknownNameError("unknown construction %r" % fn.text, fn.span)
        sig, call = _CONSTRUCTS[fn.text]
        values = _resolve(self.ws, sig, args)
        if values is None:
            raise ArityError("%r takes %d argument(s)" % (fn.text, len(sig.split())), fn.span)
        try:
            products = call(name.text, *values)
        except _Misfit as exc:
            raise ShapeError(str(exc), fn.span)
        except LieforgeError as exc:
            raise ConstructionError(str(exc), fn.span)
        # the products live on the algebra the construct makes, if it makes
        # one, and otherwise on the algebra of its first argument
        home = name.text if products[0][1] == "algebra" else args[0][1]
        names = [name.text + suffix for suffix, _, _ in products]
        for new, (_, kind, obj) in zip(names, products):
            payload = obj if kind == "algebra" else (home, obj)
            self.ws.define(new, kind, payload, fn.span)
        self.ws.construct_stmts.append((name.text, fn.text, args, names))

    def _stmt_check(self):
        fn = self.expect_ident()
        args = self._call_args()
        if fn.text not in _CHECKS:
            raise UnknownNameError("unknown check %r" % fn.text, fn.span)
        sig, at, call = _CHECKS[fn.text]
        values = _resolve(self.ws, sig, args)
        if values is None:
            raise ArityError("wrong number of arguments for %r" % fn.text, fn.span)
        target = args[at][1]
        self.ws.checks.append((fn.text, args, target, partial(call, *values, target=target)))


def parse(text):
    """Parse DSL text into a workspace, executing constructions eagerly; the
    first lexical error of the text is raised before anything is read."""
    if not _CLEAN.fullmatch(text):
        _tokenize(text)  # raises the first lexical error, if there is one
    return _Parser(text).parse()


# --------------------------------------------------------------------------
# statement signatures
#
# A signature lists the kind of each argument of a check or construct:
#   algebra, assoc, endo, conn, form, map, decomp   a name of that kind
#   endo|form       a name of either kind
#   @endo, @form    the algebra the endo or form is on, then the endo or form;
#   @map            the map's domain and codomain, then the map
#   label           a basis label of the first argument's algebra
#   sign            + or -
#   level           a positive integer
#   [algebra]       an optional leading algebra; it must be the algebra of
#                   the next argument, and the call does not receive it
#   label*          any number of labels, ending the signature
# Names, kinds and labels are resolved when the statement is parsed.


def _resolve(ws, sig, args):
    """The values of ``args`` under ``sig``, or None when ``sig`` takes
    another number of arguments; raises at the first argument that does not
    fit."""
    kinds = sig.split()
    optional = kinds[0].startswith("[")
    if optional:
        kinds[0] = kinds[0][1:-1]
        if len(args) < len(kinds):
            kinds, optional = kinds[1:], False
    if kinds[-1].endswith("*"):
        kinds[-1:] = [kinds[-1][:-1]] * (len(args) - len(kinds) + 1)
    if len(kinds) != len(args):
        return None
    values = []
    for want, (kind, value, span) in zip(kinds, args):
        if want == "label":
            first, payload = ws.definitions[args[0][1]]
            home = payload if first == "algebra" else ws.definitions[payload[0]][1]
            if kind != "ident" or value not in home._index:
                raise ShapeError("expected a basis label", span)
            values.append(home._index[value])
        elif want == "sign":
            if kind != "sign":
                raise ShapeError("expected + or -", span)
            values.append(value)
        elif want == "level":
            if kind != "number" or value != int(value) or value < 1:
                raise ShapeError("tower level must be a positive integer", span)
            values.append(int(value))
        else:
            if kind != "ident":
                raise ShapeError("expected a name", span)
            found, payload = ws.get(value, span, kinds=tuple(want.lstrip("@").split("|")))
            if found in ("algebra", "assoc"):
                values.append(payload)
                continue
            if want.startswith("@"):
                values.extend(ws.definitions[alg][1] for alg in payload[:-1])
            values.append(payload[-1])
    if optional:
        if ws.definitions[args[1][1]][1][0] != args[0][1]:
            raise ShapeError("%r is not the algebra of %r" % (args[0][1], args[1][1]), args[0][2])
        del values[0]
    return values


# --------------------------------------------------------------------------
# constructions reachable from the DSL


class _Misfit(LieforgeError):
    """Arguments of a construct whose sizes do not fit together."""


def _fit(ok, message):
    if not ok:
        raise _Misfit(message)


def _tangent(name, g, conn):
    _fit(conn.module_dim == g.dim, "connection module does not match the algebra")
    return [("", "algebra", tangent(g, conn, name=name))]


def _cotangent(name, g, conn):
    alg, omega = cotangent(g, conn, name=name)
    return [("", "algebra", alg), ("_omega", "form", omega)]


def _aff(name, A):
    alg, K, conn = aff_algebra(A, name=name)
    return [("", "algebra", alg), ("_K", "endo", K), ("_conn", "conn", conn)]


def _tower(name, g, conn, m):
    alg, lifted, family = st.clifford_tower(g, conn, m, name=name)
    members = [("_J%d" % i, "endo", J) for i, J in enumerate(family.maps, 1)]
    return [("", "algebra", alg), ("_conn", "conn", lifted)] + members


def _nabla1(name, talg, conn):
    _fit(conn.module_dim == conn.algebra.dim, "connection module does not match the algebra")
    _fit(_is_tangent(talg, conn), "algebra is not the double of the connection base")
    return [("", "conn", _lift(talg, conn.maps))]


def _jplus(name, alg, J, I, sign):
    _fit(J.rows + I.rows == alg.dim, "block sizes do not sum to the algebra dimension")
    return [("", "endo", st.block_complex_structure(J, I, sign))]


def _omega_psi(name, alg, conn, psi):
    _fit(_is_tangent(alg, conn), "algebra is not the double of the connection base")
    _fit(psi.rows == conn.module_dim, "duality map does not match the module")
    return [("", "form", symplectic_from_duality(psi))]


# name: (signature, call on the construct's name and resolved arguments,
# giving its products as (name suffix, kind, object) triples)
_CONSTRUCTS = {
    "semidirect": ("algebra conn", lambda n, g, c: [("", "algebra", semidirect(g, c, name=n))]),
    "tangent": ("algebra conn", _tangent),
    "cotangent": ("algebra conn", _cotangent),
    "central_ext": ("algebra", lambda n, g: [("", "algebra", central_extension(g, name=n))]),
    "aff": ("assoc", _aff),
    "tower": ("algebra conn level", _tower),
    "canonical_K": ("algebra", lambda n, g: [("", "endo", st.canonical_complex_structure(g))]),
    "nabla1": ("algebra conn", _nabla1),
    "levi_civita": ("algebra form", lambda n, g, B: [("", "conn", st.levi_civita(g, B))]),
    "jplus": ("algebra endo endo sign", _jplus),
    "omega_psi": ("algebra conn endo", _omega_psi),
}


# --------------------------------------------------------------------------
# checks reachable from the DSL

# name: (signature, index of the target argument, library call on the
# resolved arguments); each library call verifies that its structures square
# to -1, so such a map gives a failing precondition certificate at run time
_CHECKS = {
    "jacobi": ("algebra", 0, check_jacobi),
    "integrable": ("@endo label*", 0, lambda g, J, *split, target: check_integrable(
        g, J, split=[{i: 1} for i in split] or None, target=target)),
    "complex_lie": ("@endo", 0, check_complex_lie),
    "abelian_complex": ("@endo", 0, check_abelian_complex),
    "representation": ("conn", 0, check_representation),
    "flat": ("conn", 0, check_representation),
    "torsion_free": ("conn", 0, check_torsion_free),
    "closed": ("@form", 0, check_closed),
    "symplectic": ("@form", 0, check_symplectic),
    "parallel": ("conn endo|form", 1, check_parallel),
    "metric": ("conn form", 0, check_metric),
    "product_structure": ("@endo", 0, check_product_structure),
    "eigensplit": ("@endo", 0, lambda g, J, target: eigenspace_split(g, J)[2]),
    "action_compatibility": ("conn endo endo decomp", 0, st.check_action_compatibility),
    "torsion_equivalence": ("[algebra] conn", -1, st.check_torsion_integrability_equivalence),
    "reconstruct": ("algebra endo label label*", 0, lambda g, K, *part, target: (
        st.reconstruct_connection(g, K, part, target=target)[2])),
    "self_dual": ("conn endo", 0, st.check_self_dual),
    "pseudo_kahler": ("algebra form", 0, st.check_pseudo_kahler),
    "holomorphic": ("@map endo endo", 0, st.check_holomorphic),
    "hypercomplex": ("conn endo", 0, lambda c, J, target: (
        st.hypercomplex_pair(c, J, target=target)[2])),
}


def _run_one(call, fname, target):
    """Run one check; a violated precondition becomes a failing certificate
    whose ``elapsed_ms`` is the time spent up to the exception."""
    cert = Certificate(fname, target)
    try:
        certs = call()
    except LieforgeError as exc:
        cert.fail(("precondition",), ())
        return [cert.done(notes={"precondition": str(exc)})]
    return [certs] if isinstance(certs, Certificate) else list(certs)


def run(workspace):
    """Execute the queued checks; output certificate order matches the queue.

    Construction preconditions violated at run time become failing
    certificates flagged in the notes rather than crashes.
    """
    results = []
    for fname, _, target, call in workspace.checks:
        results.extend(_run_one(call, fname, target))
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


def _table_to_dsl(head, alg, pair):
    """A basis and one line per table entry, the entry's pair written as
    ``pair`` % (label, label)."""
    labels = alg.labels
    lines = [head + " {", "  basis %s ;" % " ".join(labels)]
    for (i, j) in sorted(alg.table):
        combo = _combo_to_dsl(alg.table[(i, j)], labels)
        lines.append("  %s = %s ;" % (pair % (labels[i], labels[j]), combo))
    lines.append("}")
    return "\n".join(lines)


def _images_to_dsl(head, lm, dom_labels, cod_labels):
    cols = lm.sparse_columns()
    lines = [head + " {"]
    for i, lab in enumerate(dom_labels):
        lines.append("  %s -> %s ;" % (lab, _combo_to_dsl(cols[i], cod_labels)))
    lines.append("}")
    return "\n".join(lines)


def entry_to_dsl(entry):
    """Canonical DSL text for a catalog entry and its emittable structures."""
    ws = Workspace()
    alg = entry.algebra
    ws.define(entry.name, "algebra", alg, None)
    for key in sorted(entry.structures):
        obj = entry.structures[key]
        if isinstance(obj, LinearMap) and obj.rows == alg.dim and obj.cols == alg.dim:
            kind = "endo"
        elif isinstance(obj, Connection) and obj.algebra is alg:
            kind = "conn"
        else:
            continue
        ws.define("%s_%s" % (entry.name, key), kind, (entry.name, obj), None)
    return workspace_to_dsl(ws)


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
    for name, (kind, payload) in ws.definitions.items():
        if name in constructed:
            if constructed[name]:
                chunks.append(constructed[name])
        elif kind == "algebra":
            chunks.append(_table_to_dsl("algebra " + name, payload, "[%s, %s]"))
        elif kind == "assoc":
            chunks.append(_table_to_dsl("assoc " + name, payload, "%s * %s"))
        elif kind == "map":
            dom_name, cod_name, lm = payload
            dom = ws.definitions[dom_name][1]
            cod = ws.definitions[cod_name][1]
            head = "map %s from %s to %s" % (name, dom_name, cod_name)
            chunks.append(_images_to_dsl(head, lm, dom.labels, cod.labels))
        else:  # endo, conn, form and decomp live on one algebra
            alg_name, obj = payload
            labels = ws.definitions[alg_name][1].labels
            head = "%s %s on %s" % (kind, name, alg_name)
            if kind == "endo":
                chunks.append(_images_to_dsl(head, obj, labels, labels))
            elif kind == "conn":
                lines = [head + " {"]
                for lab, op in zip(labels, obj.maps):
                    lines.append("  %s => %s ;" % (lab, _matrix_to_dsl(op.matrix)))
                chunks.append("\n".join(lines + ["}"]))
            elif kind == "form":
                sym = "sym" if obj.kind == BilinearForm.SYMMETRIC else "skew"
                chunks.append("%s %s %s" % (head, sym, _matrix_to_dsl(obj.matrix)))
            else:
                parts = [
                    " %s " % " , ".join(_combo_to_dsl(v, labels) for v in vs)
                    if vs else ""
                    for vs in (obj.part0, obj.part1)
                ]
                chunks.append("%s {\n  part0 :%s;\n  part1 :%s;\n}" % (head, *parts))
    for fn, args, _, _ in ws.checks:
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
