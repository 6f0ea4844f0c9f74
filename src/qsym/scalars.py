"""Exact scalar arithmetic: rationals and rational functions of q.

Everything downstream works over Fraction or over QRat, a rational function of
q stored as q^e times a quotient of two coprime polynomials with integer
coefficients, that is, over Z[q], both prime to q. A Laurent polynomial, such
as K^-1 = q^-n or a quantum integer, has denominator 1, so no separate
Laurent type exists, and its products and sums need no gcd.

QRat arithmetic stays in Python ints. A primitive pseudo-remainder sequence
finds the gcd of numerator and denominator, and both are divided by it
exactly: by Gauss's lemma the quotients have integer coefficients. Fractions
appear only at the boundary. QRat accepts Fraction coefficients, and its
num and den views are Fraction lists with a monic denominator, and
int_parts is the same pair in ints, read by qsl2's expansion at q = 1.

den_lcm, the one lcm-of-denominators helper, clears Fraction coefficients
here and liealg's scaled matrices (a Fraction scale times Python ints);
cleared applies it to one flat dict. echelon is the one exact
elimination, over Fraction or over QRat. Sparse matrices live in liealg,
whose column-form kernel works over any exact ring: ints, Fractions and QRat.
ascii_int is the one reader of an int from text, ASCII digits only.
"""

from __future__ import annotations

import re
from fractions import Fraction as Q
from math import gcd, lcm


class PoleAtOne(ArithmeticError):
    """Evaluation at q = 1 hit a pole that did not cancel."""


# ---------------------------------------------------------------------------
# dense polynomials over Z (little-endian lists of ints, no trailing zeros)
# ---------------------------------------------------------------------------

# the polynomial 1; coefficient lists are never changed in place, so it is shared
_ONE = [1]


def _zadd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def _zmul(a, b):
    if not a or not b:
        return []
    if len(b) == 1:
        c = b[0]
        return a if c == 1 else [x * c for x in a]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _zquo(a, b):
    """The quotient a / b, which the caller knows to be exact in Z[q]."""
    rem = list(a)
    nb, lead = len(b), b[-1]
    out = [0] * (len(a) - nb + 1)
    for shift in range(len(a) - nb, -1, -1):
        c = rem[shift + nb - 1]
        if c:
            c //= lead
            out[shift] = c
            for j, y in enumerate(b):
                rem[shift + j] -= c * y
    return out


def _zprem(a, b):
    """A pseudo-remainder of a by b: the remainder of a times a power of lead(b)."""
    rem = list(a)
    nb, lead = len(b), b[-1]
    while len(rem) >= nb:
        c = rem[-1]
        k, m = divmod(c, lead)
        if m:
            rem = [x * lead for x in rem]
            k = c
        shift = len(rem) - nb
        for j in range(nb - 1):
            rem[shift + j] -= k * b[j]
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def _zprim(a):
    """a divided by its content, with a positive leading coefficient."""
    c = gcd(*a)
    if a[-1] < 0:
        c = -c
    return a if c == 1 else [x // c for x in a]


def _zgcd(a, b):
    """The gcd in Z[q] of two nonzero polynomials, leading coefficient > 0.

    The integer content is split off first; the rest is a primitive
    pseudo-remainder sequence.
    """
    c = gcd(*a, *b)
    if len(a) < len(b):
        a, b = b, a
    a, b = _zprim(a), _zprim(b)
    while True:
        r = _zprem(a, b)
        if not r:
            return b if c == 1 else [c * x for x in b]
        if len(r) == 1:
            return [c]
        a, b = b, _zprim(r)


def _val(a):
    """The power of q dividing a nonzero polynomial a."""
    return next(k for k, x in enumerate(a) if x)


def _cancel(a, b):
    """a and b divided by their gcd (an int's gcd when either is a constant);
    b's leading coefficient keeps its sign."""
    if b == _ONE:
        return a, b
    g = [gcd(*a, *b)] if len(a) == 1 or len(b) == 1 else _zgcd(a, b)
    if g == _ONE:
        return a, b
    return _zquo(a, g), _zquo(b, g)


def _reduce(n, d):
    """The canonical form (n, d, e) of n / d = q^e n / d: n and d prime to q
    and coprime, d's leading coefficient positive."""
    if not n:
        return [], _ONE, 0
    i, j = _val(n), _val(d)
    n, d = _cancel(n[i:], d[j:])
    if d[-1] < 0:
        n, d = [-x for x in n], [-x for x in d]
    return n, d, i - j


def _mul(a, b, e, c, d, f):
    """(q^e a/b) * (q^f c/d) for canonical inputs, cancelling across before
    multiplying; a product of polynomials prime to q is prime to q."""
    if not a or not c:
        return [], _ONE, 0
    a, d = _cancel(a, d)
    c, b = _cancel(c, b)
    return _zmul(a, c), _zmul(b, d), e + f


def _add(a, b, e, c, d, f):
    """(q^e a/b) + (q^f c/d) for canonical inputs, over q^min(e, f): with
    g = gcd(b, d), only g can share a factor with the new numerator, once q
    is stripped from it (b and d, hence g, are prime to q)."""
    if not a or not c:
        return (a, b, e) if a else (c, d, f)
    if e > f:
        a, b, e, c, d, f = c, d, f, a, b, e
    if f > e:
        c = [0] * (f - e) + c
    g = b if b == d else _zgcd(b, d)
    if g != _ONE:
        b, d = _zquo(b, g), _zquo(d, g)
    t = _zadd(_zmul(a, d), _zmul(c, b))
    if not t:
        return [], _ONE, 0
    k = _val(t)
    t, g = _cancel(t[k:], g)
    return t, _zmul(_zmul(b, d), g), e + k


_INT = {int}


def den_lcm(values):
    """Least common multiple of the denominators of ints and Fractions."""
    return lcm(1, *{v.denominator for v in values})


def cleared(values):
    """(L, {key: L * v as an int}) for a dict of ints and Fractions, L = den_lcm."""
    big_l = den_lcm(values.values())
    return big_l, {k: v.numerator * (big_l // v.denominator) for k, v in values.items()}


_INT_TEXT = re.compile(r"[+-]?[0-9]+")


def ascii_int(text, what="value"):
    """The int that text spells as an optional sign and ASCII digits; any
    other text, which int() may still read (other scripts' digits,
    underscores, spaces), raises ValueError naming what was read."""
    if not _INT_TEXT.fullmatch(text):
        raise ValueError("%s must be an integer, got %r" % (what, text))
    return int(text)


def _ints(cs):
    """(int polynomial, L) with cs = polynomial / L, for int or Fraction input."""
    if isinstance(cs, (int, Q)):
        cs = [cs]
    if set(map(type, cs)) <= _INT:
        out, scale = list(cs), 1
    else:
        cs = [Q(c) for c in cs]
        scale = den_lcm(cs)
        out = [c.numerator * (scale // c.denominator) for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return out, scale


def _peval(cs, x):
    out = Q(0)
    for c in reversed(cs):
        out = out * x + c
    return out


def _pterm(coef, k, var):
    if k == 0:
        return str(coef)
    head = var if k == 1 else "%s^%d" % (var, k)
    if coef == 1:
        return head
    if coef == -1:
        return "-" + head
    return "%s*%s" % (coef, head)


def _pstr(cs, var="q"):
    if not cs:
        return "0"
    parts = []
    for k in range(len(cs) - 1, -1, -1):
        c = cs[k]
        if c == 0:
            continue
        term = _pterm(abs(c) if parts else c, k, var)
        if parts:
            parts.append(" - " if c < 0 else " + ")
        parts.append(term)
    return "".join(parts)


# ---------------------------------------------------------------------------
# rational functions of q
# ---------------------------------------------------------------------------

class QRat:
    """A rational function of q in lowest terms over Z[q], as q^e * n / d.

    e is an int, and n and d are integer polynomials, both prime to q
    (nonzero constant term) and coprime with the content included: no
    integer > 1 divides every coefficient of both, and d's leading
    coefficient is positive. Zero is n = [], d = [1], e = 0. The form is
    unique: q^e n / d = q^e' n' / d' gives q^e n d' = q^e' n' d, and the
    power of q dividing both sides is e on the left and e' on the right, so
    e = e' and n / d = n' / d' in lowest terms. So equality and hashing
    compare (n, d, e). Every Laurent polynomial has d = 1, and its products
    and sums take no gcd; num, den and int_parts fold q^e back into one
    coprime pair, since d is prime to q.

    The constructor takes int or Fraction coefficients (little-endian
    lists, or a constant) and reduces them. num and den read the same value
    as Fraction lists with a monic denominator.
    """

    __slots__ = ("_n", "_d", "_e")

    def __init__(self, num, den=None, _e=None):
        if _e is not None:
            # int lists already in canonical form, from the arithmetic below
            self._n, self._d, self._e = num, den, _e
            return
        n, scale_n = _ints(num)
        if den is None:
            d, scale_d = _ONE, 1
        else:
            d, scale_d = _ints(den)
            if not d:
                raise ZeroDivisionError("zero denominator")
        if scale_n != scale_d:
            n = [c * scale_d for c in n]
            d = [c * scale_n for c in d]
        self._n, self._d, self._e = _reduce(n, d)

    def int_parts(self):
        """(numerator, denominator) as coprime int lists, q^e folded in."""
        if self._e < 0:
            return self._n, [0] * -self._e + self._d
        return [0] * self._e + self._n, self._d

    @property
    def num(self):
        """Numerator coefficients as Fractions, over the monic denominator."""
        n, d = self.int_parts()
        return [Q(c, d[-1]) for c in n]

    @property
    def den(self):
        """Denominator coefficients as Fractions, divided to be monic."""
        d = self.int_parts()[1]
        return [Q(c, d[-1]) for c in d]

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(value):
        if isinstance(value, QRat):
            return value
        if isinstance(value, (int, Q)):
            return QRat(value)
        raise TypeError("cannot coerce %r to QRat" % (value,))

    # -- predicates --------------------------------------------------------

    def __bool__(self):
        return bool(self._n)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = QRat.of(other)
        n, d, e = _add(self._n, self._d, self._e, other._n, other._d, other._e)
        return QRat(n, d, _e=e)

    __radd__ = __add__

    def __neg__(self):
        out = QRat.__new__(QRat)
        out._n, out._d, out._e = [-c for c in self._n], self._d, self._e
        return out

    def __sub__(self, other):
        return self + (-QRat.of(other))

    def __rsub__(self, other):
        return QRat.of(other) + (-self)

    def __mul__(self, other):
        other = QRat.of(other)
        n, d, e = _mul(self._n, self._d, self._e, other._n, other._d, other._e)
        return QRat(n, d, _e=e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = QRat.of(other)
        c, d = other._n, other._d
        if not c:
            raise ZeroDivisionError("division by zero rational function")
        if c[-1] < 0:
            c, d = [-x for x in c], [-x for x in d]
        n, d, e = _mul(self._n, self._d, self._e, d, c, -other._e)
        return QRat(n, d, _e=e)

    def __rtruediv__(self, other):
        return QRat.of(other) / self

    def __pow__(self, k):
        if k < 0:
            return (QRat(1) / self) ** (-k)
        out = QRat(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        try:
            other = QRat.of(other)
        except TypeError:
            return NotImplemented
        return self._n == other._n and self._d == other._d and self._e == other._e

    def __hash__(self):
        # a constant equals an int or Fraction, so it hashes like one
        if not self._e and len(self._n) <= 1 and len(self._d) == 1:
            return hash(Q(self._n[0] if self._n else 0, self._d[0]))
        return hash((tuple(self._n), tuple(self._d), self._e))

    # -- evaluation --------------------------------------------------------

    def eval(self, point):
        """Evaluate at a rational point; PoleAtOne if the denominator vanishes.

        Numerator and denominator are coprime, so they have no common root:
        a zero denominator is a genuine pole, with no factor to cancel.
        """
        point = Q(point)
        n, d = self.int_parts()
        den = _peval(d, point)
        if den == 0:
            raise PoleAtOne("pole at q = %s" % point)
        return _peval(n, point) / den

    # -- formatting --------------------------------------------------------

    def to_str(self, var="q"):
        num, den = self.num, self.den
        if len(den) == 1:
            return _pstr(num, var)
        return "(%s)/(%s)" % (_pstr(num, var), _pstr(den, var))

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return "QRat(%s)" % self.to_str()


q = QRat([0, 1])
one = QRat(1)
zero = QRat(0)


def qpow(k):
    """q**k for any integer k, as a QRat."""
    return QRat(_ONE, _ONE, _e=k)


def specialize_q1(x):
    """Value of x at q = 1 as a Fraction; raises PoleAtOne on a genuine pole."""
    if isinstance(x, (int, Q)):
        return Q(x)
    return x.eval(1)


def echelon(rows, ncols):
    """Gauss-Jordan elimination in place over an exact field; returns the pivots.

    rows is a list of equal-length row lists of Fraction or QRat entries.
    Only the first ncols columns are pivoted on; any further (augmented)
    columns are carried through every row operation. Each pivot is the first
    nonzero entry at or below the current row. On return, row k holds a 1 in
    column pivots[k] and zeros in the other pivot columns, and every row from
    len(pivots) on is zero in the first ncols columns.
    """
    pivots = []
    m = len(rows)
    for col in range(ncols):
        prow = len(pivots)
        piv = next((r for r in range(prow, m) if rows[r][col]), None)
        if piv is None:
            continue
        rows[prow], rows[piv] = rows[piv], rows[prow]
        lead = rows[prow][col]
        # the pivot row's zeros stay zero and leave other rows unchanged
        top = rows[prow] = [x / lead if x else x for x in rows[prow]]
        for r in range(m):
            if r != prow and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y if y else x for x, y in zip(rows[r], top)]
        pivots.append(col)
    return pivots


def divided_bracket(n, d=1):
    """The quantum integer [n]_{q^d} = (q^{nd} - q^{-nd})/(q^d - q^{-d})."""
    if d <= 0:
        raise ValueError("d must be positive")
    if n < 0:
        return -divided_bracket(-n, d)
    if n == 0:
        return zero
    # sum_{k=0..n-1} q^{d(n-1-2k)} avoids an actual division
    out = zero
    for k in range(n):
        out = out + qpow(d * (n - 1 - 2 * k))
    return out
