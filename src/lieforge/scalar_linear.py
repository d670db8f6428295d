"""Exact scalars, the dense matrix view and sparse span solving.

Scalars are arbitrary-precision rationals, or Gaussian rationals in the
eigenvectors of an almost complex structure, which live in the
complexification of a real algebra.  A rational is stored as an ``int``
while it is integral and as a ``fractions.Fraction`` (lowest terms, positive
denominator) otherwise; only :func:`div` promotes an ``int`` to a
``Fraction``.  Everything in this module is exact; there is no
floating point and no tolerance anywhere.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "Q",
    "exact",
    "div",
    "GaussScalar",
    "Matrix",
    "SpanSolver",
    "LieforgeError",
    "DimensionMismatchError",
    "PreconditionError",
    "scalar_to_str",
    "scalar_from_str",
]


class LieforgeError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(LieforgeError):
    pass


class PreconditionError(LieforgeError):
    """An operation was called on inputs violating its stated precondition.

    Kept distinct from a failing verification: a failed check is a result,
    a violated precondition is a usage error.
    """

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details


def Q(num, den=1):
    """Exact rational scalar."""
    return Fraction(num, den)


_ZERO = 0
_ONE = 1


def exact(x):
    """An integral ``Fraction`` as an ``int``; any other scalar unchanged."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def div(a, b):
    """Exact quotient: an ``int`` when it is integral, never a float.

    Rationals give an ``int`` or a ``Fraction``; a Gaussian operand gives a
    ``GaussScalar``.  Division by zero raises ``ZeroDivisionError``.
    """
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    if isinstance(a, GaussScalar) or isinstance(b, GaussScalar):
        return a / b
    if not (isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction))):
        raise TypeError("div needs exact scalars, got %r and %r" % (a, b))
    return exact(a / b)


class GaussScalar:
    """Gaussian rational re + im*i.

    Each part is stored like a rational scalar: an ``int`` while it is
    integral and a ``Fraction`` otherwise.  A float part raises
    ``TypeError``, and quotients go through :func:`div`.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _part(re)
        self.im = _part(im)

    def __repr__(self):
        return "GaussScalar(%r, %r)" % (self.re, self.im)

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other):
        if isinstance(other, GaussScalar):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __neg__(self):
        return _gauss(-self.re, -self.im)

    def conjugate(self):
        return _gauss(self.re, -self.im)

    def __add__(self, other):
        if isinstance(other, GaussScalar):
            return _gauss(exact(self.re + other.re), exact(self.im + other.im))
        if isinstance(other, (int, Fraction)):
            return _gauss(exact(self.re + other), self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GaussScalar):
            return _gauss(exact(self.re - other.re), exact(self.im - other.im))
        if isinstance(other, (int, Fraction)):
            return _gauss(exact(self.re - other), self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return _gauss(exact(other - self.re), -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GaussScalar):
            a, b, c, d = self.re, self.im, other.re, other.im
            return _gauss(exact(a * c - b * d), exact(a * d + b * c))
        if isinstance(other, (int, Fraction)):
            return _gauss(exact(self.re * other), exact(self.im * other))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return _gauss(div(self.re, other), div(self.im, other))
        if not isinstance(other, GaussScalar):
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        n = c * c + d * d
        if not n:
            raise ZeroDivisionError("division by zero GaussScalar")
        return _gauss(div(a * c + b * d, n), div(b * c - a * d, n))

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussScalar(other) / self
        return NotImplemented


def _part(x):
    """A part of a Gaussian scalar in integer-first form; floats are rejected."""
    if isinstance(x, Fraction):
        return exact(x)
    if isinstance(x, int):
        return int(x)
    raise TypeError("GaussScalar parts must be int or Fraction, got %r" % (x,))


def _gauss(re, im):
    """GaussScalar over parts already in integer-first form."""
    g = object.__new__(GaussScalar)
    g.re = re
    g.im = im
    return g


def scalar_to_str(s):
    """Serialize a scalar: "p/q" with the /q omitted when q is 1.

    Gaussian scalars serialize as "p/q+r/s*i" (the sign of the imaginary
    part folds into r), or as their real part when the imaginary part is
    zero, so equal values print the same text.
    """
    if type(s) is int:
        return str(s)
    if isinstance(s, GaussScalar):
        if s.im:
            return "%s+%s*i" % (s.re, s.im)
        s = s.re
    return str(Fraction(s))


def scalar_from_str(text):
    """Parse the output of :func:`scalar_to_str`."""
    text = text.strip()
    if text.endswith("*i"):
        body = text[:-2]
        # split on the '+' that separates the parts, not a sign
        k = body.rfind("+", 1)
        if k <= 0:
            raise ValueError("bad GaussScalar literal: %r" % text)
        return GaussScalar(Fraction(body[:k]), Fraction(body[k + 1 :]))
    return Fraction(text)


class Matrix:
    """Dense rows of a ``LinearMap``: the view that emission reads.

    The library stores every matrix as a sparse-column ``LinearMap``, which
    also takes dense rows as input; a ``Matrix`` is made only by
    ``LinearMap.matrix``.  Every elimination goes through :class:`SpanSolver`.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = data

    def __repr__(self):
        return "Matrix(%r)" % (self.data,)


class SpanSolver:
    """Incremental exact echelon form over sparse column vectors.

    Supports membership tests against the span of the vectors added so far
    and recovers exact coefficient combinations.  Vectors are dicts mapping
    coordinate index to a nonzero scalar.
    """

    def __init__(self, dim):
        self.dim = dim
        self.rank = 0
        self.count = 0
        # pivot coordinate -> (reduced vector with that entry 1, its combination
        # over the inputs), so a reduction step needs no division
        self._pivots = {}

    def _reduce(self, vec, combo=None):
        """Reduce vec against the pivots: (residue, combination, first free
        pivot or None).  The combination is tracked only when ``combo`` is
        given, as the dict to accumulate it into."""
        vec = dict(vec)
        pivots = self._pivots
        while vec:
            p = min(vec)
            hit = pivots.get(p)
            if hit is None:
                return vec, combo, p
            pvec, pcombo = hit
            f = vec[p]
            for k, val in pvec.items():
                s = vec.get(k, _ZERO) - f * val
                if s:
                    vec[k] = s
                elif k in vec:
                    del vec[k]
            if combo is not None:
                for k, val in pcombo.items():
                    s = combo.get(k, _ZERO) - f * val
                    if s:
                        combo[k] = s
                    elif k in combo:
                        del combo[k]
        return vec, combo, None

    def add(self, vec):
        """Add vec to the span, never changing vec; True when the span grew."""
        for k in vec:
            if k >= self.dim or k < 0:
                raise DimensionMismatchError("coordinate outside ambient dimension")
        idx = self.count
        self.count += 1
        residue, combo, p = self._reduce(vec, {})
        if p is None:
            return False
        combo[idx] = _ONE
        c = residue[p]
        if c != 1:
            residue = {k: div(v, c) for k, v in residue.items()}
            combo = {k: div(v, c) for k, v in combo.items()}
        # invariant: residue = sum_j combo[j] * input_j
        self._pivots[p] = (residue, combo)
        self.rank += 1
        return True

    def solve(self, vec):
        """Coefficients over the added vectors expressing vec, or None."""
        _, combo, p = self._reduce(vec, {})
        if p is not None:
            return None
        return {k: exact(-v) for k, v in combo.items()}

    def contains(self, vec):
        """Whether vec lies in the span; only the residue is reduced."""
        _, _, p = self._reduce(vec)
        return p is None

