"""Exact scalar arithmetic: rationals and rational functions of q.

Everything downstream works over Fraction or over QRat, a reduced ratio of two
polynomials in q with Fraction coefficients. Negative powers of q are ordinary
QRat values with a q-power denominator, so no separate Laurent type exists.
"""

from __future__ import annotations

from fractions import Fraction as Q


class PoleAtOne(ArithmeticError):
    """Evaluation at q = 1 hit a pole that did not cancel."""


# ---------------------------------------------------------------------------
# dense polynomial helpers (little-endian coefficient lists of Fractions)
# ---------------------------------------------------------------------------

def _trim(cs):
    n = len(cs)
    while n > 0 and cs[n - 1] == 0:
        n -= 1
    return cs[:n]


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pneg(a):
    return [-c for c in a]


def _pmul(a, b):
    if not a or not b:
        return []
    out = [Q(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            if cb != 0:
                out[i + j] += ca * cb
    return _trim(out)


def _pdivmod(a, b):
    """Exact polynomial long division, returns (quotient, remainder)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db = len(b) - 1
    lead = b[-1]
    quo = [Q(0)] * max(len(a) - db, 0)
    while len(_trim(rem)) - 1 >= db and _trim(rem):
        rem = _trim(rem)
        shift = len(rem) - 1 - db
        coef = rem[-1] / lead
        quo[shift] = coef
        for j, cb in enumerate(b):
            rem[shift + j] -= coef * cb
    return _trim(quo), _trim(rem)


def _pgcd(a, b):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _pdivmod(a, b)[1]
        # keep coefficients small: make the new leading coefficient 1
        if b:
            lead = b[-1]
            b = [c / lead for c in b]
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


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
    """A rational function of q in lowest terms with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Q)):
            num = [Q(num)] if num != 0 else []
        else:
            num = _trim([Q(c) for c in num])
        if den is None:
            den = [Q(1)]
        elif isinstance(den, (int, Q)):
            den = [Q(den)]
        else:
            den = _trim([Q(c) for c in den])
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num, self.den = [], [Q(1)]
            return
        g = _pgcd(num, den)
        if len(g) > 1:
            num = _pdivmod(num, g)[0]
            den = _pdivmod(den, g)[0]
        lead = den[-1]
        if lead != 1:
            num = [c / lead for c in num]
            den = [c / lead for c in den]
        self.num, self.den = num, den

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
        return bool(self.num)

    def is_one(self):
        return self.num == [Q(1)] and self.den == [Q(1)]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = QRat.of(other)
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return QRat(num, _pmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        out = QRat.__new__(QRat)
        out.num, out.den = _pneg(self.num), list(self.den)
        return out

    def __sub__(self, other):
        return self + (-QRat.of(other))

    def __rsub__(self, other):
        return QRat.of(other) + (-self)

    def __mul__(self, other):
        other = QRat.of(other)
        return QRat(_pmul(self.num, other.num), _pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = QRat.of(other)
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        return QRat(_pmul(self.num, other.den), _pmul(self.den, other.num))

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
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((tuple(self.num), tuple(self.den)))

    # -- evaluation --------------------------------------------------------

    def eval(self, point):
        """Evaluate at a rational point, cancelling (q - point) factors first."""
        point = Q(point)
        num, den = self.num, self.den
        root = [-point, Q(1)]  # q - point
        while _peval(den, point) == 0:
            if _peval(num, point) != 0:
                raise PoleAtOne("pole at q = %s" % point)
            num = _pdivmod(num, root)[0]
            den = _pdivmod(den, root)[0]
        return _peval(num, point) / _peval(den, point)

    # -- formatting --------------------------------------------------------

    def to_str(self, var="q"):
        if self.den == [Q(1)]:
            return _pstr(self.num, var)
        return "(%s)/(%s)" % (_pstr(self.num, var), _pstr(self.den, var))

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return "QRat(%s)" % self.to_str()


q = QRat([Q(0), Q(1)])
one = QRat(1)
zero = QRat(0)


def qpow(k):
    """q**k for any integer k, as a QRat."""
    if k >= 0:
        return QRat([Q(0)] * k + [Q(1)])
    return QRat([Q(1)], [Q(0)] * (-k) + [Q(1)])


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
        top = rows[prow] = [x / lead for x in rows[prow]]
        for r in range(m):
            if r != prow and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], top)]
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
