"""Exact quantized enveloping algebra of sl2 and its classical limits.

The algebra is presented with a balanced Cartan generator: K E K^-1 = q E,
K F K^-1 = q^-1 F, [E, F] = (K^2 - K^-2)/(q - q^-1), with coproduct
Delta(E) = E (x) K^-1 + K (x) E and likewise for F.  Monomials are stored in
the PBW order F^a K^b E^c.  The K-conjugation weight and the Cartan power in
[E, F] are engine parameters so the test suite can demonstrate that the
balanced presentation is the one under which the central element is central
and the sigma-map identities close; the unbalanced variant (K E K^-1 = q^2 E,
[E, F] = (K - K^-1)/(q - q^-1)) fails the coproduct-compatibility check and
is kept only for that demonstration.

On top of the PBW engine sit the locally finite generators X+, X-, X0 and the
central element C, the sigma map on their span, the co-Poisson cobracket
(Delta(x) - Delta^op(x))/(q - 1) specialized at q = 1, the graded quadratic
algebra obtained from the sigma relations with its q -> 1 Poisson bracket
table, and the braided symmetric-power dimensions of the simple modules.

Scalars are rational functions of q throughout, except braided_flatness which
reads the same scalar type as rational functions of v with v^2 = q so that
odd module weights get integer v-powers.
"""

from __future__ import annotations

from fractions import Fraction as Q

from .liealg import BracketTable
from .scalars import QRat, divided_bracket, echelon, one, qpow, zero


class NotInSpan(ValueError):
    """An element does not lie in the span required by the operation."""


class NotInLattice(ValueError):
    """A pole at q = 1 survives reduction to the integral form."""


# ---------------------------------------------------------------------------
# PBW elements
# ---------------------------------------------------------------------------

def _coeff_str(v, var="q"):
    s = v.to_str(var)
    if not s.startswith("(") and (" + " in s or " - " in s):
        s = "(%s)" % s
    return s


def _mono_str(key):
    a, b, c = key
    parts = []
    if a:
        parts.append("F" if a == 1 else "F^%d" % a)
    if b:
        parts.append("K" if b == 1 else "K^%d" % b)
    if c:
        parts.append("E" if c == 1 else "E^%d" % c)
    return " ".join(parts) if parts else "1"


class PBWElement:
    """Sum of monomials F^a K^b E^c with QRat coefficients, as {(a,b,c): QRat}.

    a and c are nonnegative, b ranges over all integers. Immutable by
    convention; arithmetic returns fresh elements. Multiplication uses the
    module's default engine (the balanced presentation).
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for key, val in (terms or {}).items():
            val = QRat.of(val)
            if val:
                clean[key] = val
        self.terms = clean

    @staticmethod
    def monomial(a, b, c, coeff=1):
        return PBWElement({(a, b, c): QRat.of(coeff)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, PBWElement):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for key, v in other.terms.items():
            s = out.get(key, zero) + v
            if s:
                out[key] = s
            elif key in out:
                del out[key]
        return PBWElement(out)

    def __neg__(self):
        return PBWElement({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PBWElement):
            return _ENGINE.mul(self, other)
        return PBWElement({k: v * QRat.of(other) for k, v in self.terms.items()})

    def __rmul__(self, other):
        return PBWElement({k: QRat.of(other) * v for k, v in self.terms.items()})

    def __pow__(self, n):
        out = PBWElement.monomial(0, 0, 0)
        for _ in range(n):
            out = out * self
        return out

    def coefficient(self, key):
        return self.terms.get(key, zero)

    def pretty(self):
        if not self.terms:
            return "0"
        pieces = []
        for key in sorted(self.terms):
            mono = _mono_str(key)
            s = _coeff_str(self.terms[key])
            if mono == "1":
                pieces.append(s)
            elif s == "1":
                pieces.append(mono)
            elif s == "-1":
                pieces.append("-" + mono)
            else:
                pieces.append(s + " " + mono)
        return " + ".join(pieces).replace(" + -", " - ")

    def __repr__(self):
        return "PBWElement(%s)" % self.pretty()


class UqTensor:
    """Element of the tensor square, {(left PBW key, right PBW key): QRat}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for key, val in (terms or {}).items():
            val = QRat.of(val)
            if val:
                clean[key] = val
        self.terms = clean

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, UqTensor):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for key, v in other.terms.items():
            s = out.get(key, zero) + v
            if s:
                out[key] = s
            elif key in out:
                del out[key]
        return UqTensor(out)

    def __neg__(self):
        return UqTensor({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def flip(self):
        return UqTensor({(r, l): v for (l, r), v in self.terms.items()})


# ---------------------------------------------------------------------------
# the rewriting engine
# ---------------------------------------------------------------------------

class UqEngine:
    """PBW rewriting for one presentation of the algebra.

    k_weight w: K E K^-1 = q^w E.  cartan_power m: [E, F] =
    (K^m - K^-m)/(q - q^-1).  coproduct_power u: Delta(E) = E (x) K^-u +
    K^u (x) E.  The shipped presentation is (1, 2, 1); (2, 1, 1) is the
    unbalanced variant used by the convention demonstration.
    """

    def __init__(self, k_weight=1, cartan_power=2, coproduct_power=1):
        self.w = k_weight
        self.m = cartan_power
        self.u = coproduct_power
        self._ibr = one / (qpow(1) - qpow(-1))
        self._epush = {}
        self._delta = {}
        self._anti = {}
        self._mono_mul = {}

    # -- multiplication ------------------------------------------------------

    def _e_mono(self, key):
        """E * F^a K^b E^c as a PBW term dict."""
        cached = self._epush.get(key)
        if cached is not None:
            return cached
        a, b, c = key
        if a == 0:
            out = {(0, b, c + 1): qpow(-self.w * b)}
        else:
            out = {}
            for (ra, rb, rc), v in self._e_mono((a - 1, b, c)).items():
                out[(ra + 1, rb, rc)] = v
            for sign in (1, -1):
                mm = sign * self.m
                k2 = (a - 1, b + mm, c)
                coeff = sign * self._ibr * qpow(-self.w * (a - 1) * mm)
                s = out.get(k2, zero) + coeff
                if s:
                    out[k2] = s
                elif k2 in out:
                    del out[k2]
        self._epush[key] = out
        return out

    def _lmul_E(self, terms):
        out = {}
        for key, v in terms.items():
            for k2, w in self._e_mono(key).items():
                s = out.get(k2, zero) + v * w
                if s:
                    out[k2] = s
                elif k2 in out:
                    del out[k2]
        return out

    def mul(self, x, y):
        out = {}
        for (a, b, c), vx in x.terms.items():
            t = y.terms
            for _ in range(c):
                t = self._lmul_E(t)
            for (a2, b2, c2), v in t.items():
                if b:
                    v = v * qpow(-self.w * a2 * b)
                key = (a2 + a, b2 + b, c2)
                s = out.get(key, zero) + vx * v
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
        return PBWElement(out)

    def _mul_mono(self, k1, k2):
        cached = self._mono_mul.get((k1, k2))
        if cached is None:
            cached = self.mul(PBWElement({k1: one}), PBWElement({k2: one}))
            self._mono_mul[(k1, k2)] = cached
        return cached

    # -- Hopf structure ------------------------------------------------------

    def tensor_mul(self, s, t):
        out = {}
        for (l1, r1), v1 in s.terms.items():
            for (l2, r2), v2 in t.terms.items():
                v = v1 * v2
                for lk, lv in self._mul_mono(l1, l2).terms.items():
                    for rk, rv in self._mul_mono(r1, r2).terms.items():
                        key = (lk, rk)
                        w = out.get(key, zero) + v * lv * rv
                        if w:
                            out[key] = w
                        elif key in out:
                            del out[key]
        return UqTensor(out)

    def _delta_mono(self, key):
        cached = self._delta.get(key)
        if cached is not None:
            return cached
        a, b, c = key
        u = self.u
        if a > 0:
            dF = UqTensor({((1, 0, 0), (0, -u, 0)): one,
                           ((0, u, 0), (1, 0, 0)): one})
            out = self.tensor_mul(dF, self._delta_mono((a - 1, b, c)))
        elif c > 0:
            dE = UqTensor({((0, 0, 1), (0, -u, 0)): one,
                           ((0, u, 0), (0, 0, 1)): one})
            out = self.tensor_mul(self._delta_mono((a, b, c - 1)), dE)
        else:
            out = UqTensor({((0, b, 0), (0, b, 0)): one})
        self._delta[key] = out
        return out

    def coproduct(self, x):
        out = UqTensor()
        for key, v in x.terms.items():
            scaled = UqTensor({k: v * w for k, w in self._delta_mono(key).terms.items()})
            out = out + scaled
        return out

    def _anti_mono(self, key):
        cached = self._anti.get(key)
        if cached is not None:
            return cached
        a, b, c = key
        # S(F^a K^b E^c) = S(E)^c S(K^b) S(F^a), with S(E) = -q^{-wu} E,
        # S(F) = -q^{wu} F, S(K) = K^-1, then renormalized to PBW order.
        coeff = (-one) ** ((a + c) % 2) * qpow(self.w * self.u * (a - c))
        word = self.mul(PBWElement({(0, 0, c): one}), PBWElement({(0, -b, 0): one}))
        word = self.mul(word, PBWElement({(a, 0, 0): one}))
        out = PBWElement({k: coeff * v for k, v in word.terms.items()})
        self._anti[key] = out
        return out

    def antipode(self, x):
        out = PBWElement()
        for key, v in x.terms.items():
            out = out + PBWElement({k: v * w for k, w in self._anti_mono(key).terms.items()})
        return out

    def counit(self, x):
        out = zero
        for (a, b, c), v in x.terms.items():
            if a == 0 and c == 0:
                out = out + v
        return out

    def coproduct_cube(self, x):
        """(Delta (x) 1)Delta(x) as {(k1, k2, k3): QRat}."""
        out = {}
        for (l, r), v in self.coproduct(x).terms.items():
            for (l1, l2), w in self._delta_mono(l).terms.items():
                key = (l1, l2, r)
                s = out.get(key, zero) + v * w
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
        return out

    def adjoint(self, x, y):
        """ad(x)(y) = sum x_(1) y S(x_(2))."""
        out = PBWElement()
        for (l, r), v in self.coproduct(x).terms.items():
            piece = self.mul(self.mul(PBWElement({l: one}), y), self._anti_mono(r))
            out = out + PBWElement({k: v * w for k, w in piece.terms.items()})
        return out


_ENGINE = UqEngine()


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def generators():
    """The algebra generators as PBW elements: E, F, K, K^-1 and 1."""
    return {
        "E": PBWElement({(0, 0, 1): one}),
        "F": PBWElement({(1, 0, 0): one}),
        "K": PBWElement({(0, 1, 0): one}),
        "K^-1": PBWElement({(0, -1, 0): one}),
        "1": PBWElement({(0, 0, 0): one}),
    }


def _tokenize(word):
    out = []
    i = 0
    while i < len(word):
        ch = word[i]
        i += 1
        if ch in " *":
            continue
        if ch == "1":
            continue
        if ch not in "EFK":
            raise ValueError("unknown generator %r" % ch)
        power = 1
        if i < len(word) and word[i] == "^":
            j = i + 1
            if j < len(word) and word[j] == "-":
                j += 1
            while j < len(word) and word[j].isdigit():
                j += 1
            power = int(word[i + 1:j])
            i = j
        out.append((ch, power))
    return out


def normal_form(expr, coeff=1):
    """Canonical PBW form of a free word (or weighted word list) in E, F, K^±1.

    Accepts a PBWElement (returned unchanged), a string word like
    "K E K^-1" or "F^2 E", or a list of (coefficient, word) pairs.
    """
    if isinstance(expr, PBWElement):
        return expr
    if isinstance(expr, str):
        expr = [(coeff, expr)]
    out = PBWElement()
    for c, word in expr:
        elem = PBWElement.monomial(0, 0, 0, c)
        for gen, power in _tokenize(word):
            if gen == "E":
                if power < 0:
                    raise ValueError("E has no inverse")
                atom = PBWElement({(0, 0, power): one})
            elif gen == "F":
                if power < 0:
                    raise ValueError("F has no inverse")
                atom = PBWElement({(power, 0, 0): one})
            else:
                atom = PBWElement({(0, power, 0): one})
            elem = _ENGINE.mul(elem, atom)
        out = out + elem
    return out


def adjoint_action(x, y):
    """ad(x)(y) = sum x_(1) y S(x_(2)) in canonical form."""
    return _ENGINE.adjoint(x, y)


# ---------------------------------------------------------------------------
# the locally finite generators and their central element
# ---------------------------------------------------------------------------

def _q_to_v(x):
    """Reread a rational function of q as one of v with v^2 = q."""
    if not x:
        return zero
    num = [Q(0)] * (2 * (len(x.num) - 1) + 1)
    for k, c in enumerate(x.num):
        num[2 * k] = c
    den = [Q(0)] * (2 * (len(x.den) - 1) + 1)
    for k, c in enumerate(x.den):
        den[2 * k] = c
    return QRat(num, den)


def _x_plus():
    return PBWElement({(0, -1, 1): one})


def _x_minus():
    # K^-1 F = q F K^-1 in the balanced presentation
    return PBWElement({(1, -1, 0): qpow(1)})


def _x_zero():
    qq = qpow(1) + qpow(-1)
    e = PBWElement({(0, 0, 1): one})
    f = PBWElement({(1, 0, 0): one})
    num = (e * f) * qpow(1) - (f * e) * qpow(-1)
    return PBWElement({k: v / qq for k, v in num.terms.items()})


def _x_named(name):
    table = {"X+": _x_plus, "X-": _x_minus, "X0": _x_zero}
    if name in table:
        return table[name]()
    raise NotInSpan("unknown generator name %r" % (name,))


_X_NAMES = ("X+", "X-", "X0")


def _solve_span(basis, target):
    """Coefficients writing target as a combination of basis dicts, or None.

    basis is a list of {key: QRat} dicts, target a dict of the same shape;
    plain Gaussian elimination over the rational function field.
    """
    keys = set(target)
    for b in basis:
        keys.update(b)
    keys = sorted(keys)
    rows = [[b.get(k, zero) for b in basis] + [target.get(k, zero)] for k in keys]
    ncols = len(basis)
    pivots = echelon(rows, ncols)
    if any(row[ncols] for row in rows[len(pivots):]):
        return None
    coeffs = [zero] * ncols
    for i, col in enumerate(pivots):
        coeffs[col] = rows[i][ncols]
    return coeffs


def x_basis(x):
    """Write x in span{1, X+, X-, X0} as {name: QRat}; NotInSpan otherwise."""
    names = ("1",) + _X_NAMES
    basis = [PBWElement.monomial(0, 0, 0).terms] + [_x_named(n).terms for n in _X_NAMES]
    coeffs = _solve_span(basis, x.terms)
    if coeffs is None:
        raise NotInSpan("element is not in the locally finite generator span")
    return {n: c for n, c in zip(names, coeffs) if c}


def x_basis_tensor(t):
    """Write a tensor in span{1, X+, X-, X0}^(x)2 as {(name, name): QRat}."""
    names = ("1",) + _X_NAMES
    elems = [PBWElement.monomial(0, 0, 0)] + [_x_named(n) for n in _X_NAMES]
    basis, labels = [], []
    for n1, e1 in zip(names, elems):
        for n2, e2 in zip(names, elems):
            basis.append({(k1, k2): v1 * v2
                          for k1, v1 in e1.terms.items()
                          for k2, v2 in e2.terms.items()})
            labels.append((n1, n2))
    coeffs = _solve_span(basis, t.terms)
    if coeffs is None:
        raise NotInSpan("tensor is not in the generator-span tensor square")
    return {lbl: c for lbl, c in zip(labels, coeffs) if c}


def x_tensor_str(decomp):
    """Render an X-basis tensor decomposition like "X-(x)X+" terms."""
    order = {"X+": 0, "X-": 1, "X0": 2, "1": 3}
    pieces = []
    for (n1, n2) in sorted(decomp, key=lambda p: (order[p[0]], order[p[1]])):
        s = _coeff_str(decomp[(n1, n2)])
        body = "%s⊗%s" % (n1, n2)
        if s == "1":
            pieces.append(body)
        elif s == "-1":
            pieces.append("-" + body)
        else:
            pieces.append(s + " " + body)
    return " + ".join(pieces).replace(" + -", " - ") if pieces else "0"


_LF_CACHE = None


def locally_finite_generators():
    """The ad-locally-finite generators and their central element.

    Returns ({"X+", "X-", "X0", "C"}, report). X+ = K^-1 E, X- = K^-1 F,
    X0 = (q EF - q^-1 FE)/(q + q^-1). Two candidate expressions for C are
    tested (they differ in the Cartan factor, K^-1 versus K^-2); the central
    one is selected and the outcome recorded in the report, together with the
    coproduct shape Delta(x) = x (x) C + sum u' (x) x', ad-stability of the
    X-span, the scalar of C on the two-dimensional module, and the ratio
    tying C to the quadratic Casimir FE + (qK^2 + q^-1 K^-2)/(q - q^-1)^2.
    """
    global _LF_CACHE
    if _LF_CACHE is None:
        _LF_CACHE = _compute_locally_finite()
    gens, report = _LF_CACHE
    return dict(gens), dict(report)


def _compute_locally_finite():
    gens = {"X+": _x_plus(), "X-": _x_minus(), "X0": _x_zero()}
    e = PBWElement({(0, 0, 1): one})
    f = PBWElement({(1, 0, 0): one})
    k = PBWElement({(0, 1, 0): one})
    dq = qpow(1) - qpow(-1)
    x0 = gens["X0"]

    candidates = {
        "K^-2 + (q - q^-1) X0": PBWElement({(0, -2, 0): one}) + x0 * dq,
        "K^-1 + (q - q^-1) X0": PBWElement({(0, -1, 0): one}) + x0 * dq,
    }
    central = {}
    for label, cand in candidates.items():
        central[label] = all(cand * g == g * cand for g in (e, f, k))
    selected = [label for label, ok in central.items() if ok]
    if len(selected) != 1:
        raise ArithmeticError("central element selection failed: %r" % central)
    c_elem = candidates[selected[0]]
    gens["C"] = c_elem

    # coproduct shape: Delta(x) - x (x) C has all right legs in the span
    span = [PBWElement.monomial(0, 0, 0).terms] + [_x_named(n).terms for n in _X_NAMES]
    shape_ok = True
    for name in _X_NAMES:
        x = gens[name]
        rest = _ENGINE.coproduct(x) - UqTensor(
            {(kx, kc): vx * vc
             for kx, vx in x.terms.items() for kc, vc in c_elem.terms.items()})
        rows = {}
        for (l, r), v in rest.terms.items():
            rows.setdefault(l, {})[r] = v
        for row in rows.values():
            if _solve_span(span, row) is None:
                shape_ok = False

    # ad-stability of span{X+, X-, X0} under the generator actions
    ad_stable = True
    for g in (e, f, k):
        for name in _X_NAMES:
            img = _ENGINE.adjoint(g, gens[name])
            try:
                coords = x_basis(img)
            except NotInSpan:
                ad_stable = False
                continue
            if coords.get("1"):
                ad_stable = False

    # C on the two-dimensional module: E, F, K act as the l = 1 matrices,
    # whose scalars are functions of v with v^2 = q
    em, fm, km = _rep_matrices(1)
    cm = _matrix_of_element(c_elem, em, fm, km)
    scalar_q = (qpow(2) + qpow(-2)) / (qpow(1) + qpow(-1))
    expected = _q_to_v(scalar_q)
    is_scalar = all(cm[i][j] == (expected if i == j else zero)
                    for i in range(2) for j in range(2))
    casimir = f * e + PBWElement(
        {(0, 2, 0): qpow(1) / dq ** 2, (0, -2, 0): qpow(-1) / dq ** 2})
    ratio = dq ** 2 / (qpow(1) + qpow(-1))
    delta_c = _ENGINE.coproduct(c_elem)
    c_square = UqTensor({(k1, k2): v1 * v2
                         for k1, v1 in c_elem.terms.items()
                         for k2, v2 in c_elem.terms.items()})
    report = {
        "central": central,
        "selected": selected[0],
        "coproduct_shape": shape_ok,
        "ad_stable": ad_stable,
        "ad_stable_dimension": 3,
        "scalar_on_dim2": scalar_q.to_str() if is_scalar else None,
        "casimir_ratio": ratio.to_str() if c_elem == casimir * ratio else None,
        "grouplike": delta_c == c_square,
    }
    return gens, report


# ---------------------------------------------------------------------------
# the sigma map
# ---------------------------------------------------------------------------

def sigma(x, y, variant="+"):
    """sigma(x (x) y) = sum x_(1) y S(x_(2)) (x) x_(3) - ad(x)(y) (x) Z.

    x and y must lie in span{X+, X-, X0} (names are accepted). The "-"
    variant takes Z = C, which is the orientation closing the identity
    x y - mu(sigma(x (x) y)) = ad(x)(y) C; the "+" variant takes
    Z = 2 K^-2 - C, which is the orientation matching the recorded values
    of the map on the generator pairs. Returns a UqTensor.
    """
    if isinstance(x, str):
        x = _x_named(x)
    if isinstance(y, str):
        y = _x_named(y)
    for elem in (x, y):
        coords = x_basis(elem)
        if coords.get("1"):
            raise NotInSpan("sigma arguments must lie in the X-generator span")
    gens, _ = locally_finite_generators()
    c_elem = gens["C"]
    if variant == "-":
        z_elem = c_elem
    elif variant == "+":
        z_elem = 2 * PBWElement({(0, -2, 0): one}) - c_elem
    else:
        raise ValueError("variant must be '+' or '-'")
    out = {}
    for (k1, k2, k3), v in _ENGINE.coproduct_cube(x).items():
        left = _ENGINE.mul(_ENGINE.mul(PBWElement({k1: one}), y), _ENGINE._anti_mono(k2))
        for lk, lv in left.terms.items():
            key = (lk, k3)
            s = out.get(key, zero) + v * lv
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    ad = _ENGINE.adjoint(x, y)
    for ak, av in ad.terms.items():
        for zk, zv in z_elem.terms.items():
            key = (ak, zk)
            s = out.get(key, zero) - av * zv
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return UqTensor(out)


def sigma_identity_report():
    """Which central term closes x y - mu(sigma(x (x) y)) = ad(x)(y) Z.

    Checks all nine ordered generator pairs for both sigma orientations and
    for Z among C, K^-2 and 2K^-2 - C; also reports the scalar relating the
    closing Z to the selected C (1 when Z = C itself).
    """
    gens, _ = locally_finite_generators()
    c_elem = gens["C"]
    z_cands = {
        "C": c_elem,
        "K^-2": PBWElement({(0, -2, 0): one}),
        "2K^-2 - C": 2 * PBWElement({(0, -2, 0): one}) - c_elem,
    }
    out = {}
    for variant in ("-", "+"):
        residues = []
        for nx in _X_NAMES:
            for ny in _X_NAMES:
                x, y = gens[nx], gens[ny]
                lhs = x * y - _mu(sigma(x, y, variant))
                residues.append((lhs, _ENGINE.adjoint(x, y)))
        holds = {}
        for z_label, z_elem in z_cands.items():
            holds[z_label] = all(lhs == ad * z_elem for lhs, ad in residues)
        out[variant] = holds
    out["scalar_vs_C"] = "1" if out["-"]["C"] else None
    return out


def _mu(t):
    """Multiply the two legs of a tensor."""
    out = PBWElement()
    for (l, r), v in t.terms.items():
        out = out + PBWElement({k: v * w for k, w in _ENGINE._mul_mono(l, r).terms.items()})
    return out


# ---------------------------------------------------------------------------
# the co-Poisson classical limit
# ---------------------------------------------------------------------------

def _binom(b, j):
    out = Q(1)
    for i in range(j):
        out = out * Q(b - i, i + 1)
    return out


def _shift_poly(cs):
    """Coefficients of p(1 + t) from coefficients of p(q), little-endian."""
    out = [Q(0)] * max(len(cs), 1)
    row = [Q(1)]  # (1 + t)^k
    for k, c in enumerate(cs):
        if c:
            for i, r in enumerate(row):
                out[i] += c * r
        nxt = [Q(0)] * (len(row) + 1)
        for i, r in enumerate(row):
            nxt[i] += r
            nxt[i + 1] += r
        row = nxt
    while out and out[-1] == 0:
        out.pop()
    return out


def _laurent_q1(v, hi):
    """(valuation, coefficients) of v expanded at q = 1 + t up to order hi."""
    num = _shift_poly(v.num)
    den = _shift_poly(v.den)
    vn = 0
    while vn < len(num) and num[vn] == 0:
        vn += 1
    vd = 0
    while vd < len(den) and den[vd] == 0:
        vd += 1
    val = vn - vd
    if val > hi:
        return val, []
    n = hi - val + 1
    a = [(num[vn + i] if vn + i < len(num) else Q(0)) for i in range(n)]
    b = [(den[vd + i] if vd + i < len(den) else Q(0)) for i in range(n)]
    out = []
    for i in range(n):
        c = a[i]
        for j in range(i):
            c -= out[j] * b[i - j]
        out.append(c / b[0])
    return val, out


class CoPoissonElem:
    """Antisymmetric cobracket value sum c * (u (x) a - a (x) u).

    Keys are pairs of classical PBW exponent triples: the left leg counts
    (F, H, E) powers with H the classical Cartan generator normalized by
    [E, F] = H, the right leg counts (X-, X0, X+) powers under the classical
    identification X- = F, X0 = H/2, X+ = E. Coefficients are Fractions.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: Q(v) for k, v in (terms or {}).items() if v}

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, CoPoissonElem):
            return NotImplemented
        return self.terms == other.terms

    def as_skew_tensor(self):
        """The value as a full skew dict over h-normalized classical keys."""
        out = {}
        for (left, right), v in self.terms.items():
            vv = v * Q(2) ** left[1]  # F^a H^b E^c = 2^b F^a h^b E^c
            for key, s in (((left, right), vv), ((right, left), -vv)):
                t = out.get(key, Q(0)) + s
                if t:
                    out[key] = t
                elif key in out:
                    del out[key]
        return out

    def kernel_reduced(self):
        """Canonical skew form with both legs in the same classical basis.

        Wedge pairs whose two legs name the same classical element (for
        example H with X0 = H/2) cancel here; the result is what the value
        says as an honest element of the exterior square.
        """
        acc = {}
        for ((a, b, c), right), v in self.terms.items():
            m1 = (a, b, c)
            vv = v * Q(2) ** b
            m2 = right
            if m1 == m2:
                continue
            if m1 > m2:
                key, s = (m1, m2), vv
            else:
                key, s = (m2, m1), -vv
            t = acc.get(key, Q(0)) + s
            if t:
                acc[key] = t
            elif key in acc:
                del acc[key]
        return acc

    def pretty(self):
        if not self.terms:
            return "0"
        names_u = ("F", "H", "E")
        names_a = ("X-", "X0", "X+")
        pieces = []
        for (u, a) in sorted(self.terms, reverse=True):
            v = self.terms[(u, a)]
            left = " ".join(
                n if p == 1 else "%s^%d" % (n, p)
                for n, p in zip(names_u, u) if p) or "1"
            right = " ".join(
                n if p == 1 else "%s^%d" % (n, p)
                for n, p in zip(names_a, a) if p) or "1"
            body = "%s∧%s" % (left, right)
            if v == 1:
                pieces.append(body)
            elif v == -1:
                pieces.append("-" + body)
            else:
                pieces.append("%s %s" % (v, body))
        return " + ".join(pieces).replace(" + -", " - ")

    def __repr__(self):
        return "CoPoissonElem(%s)" % self.pretty()


def classical_limit(x):
    """The q = 1 image of x as {(F, h, E) exponents: Fraction}.

    Rewrites K powers through the lattice generator h = (K - 1)/(q - 1) and
    keeps the constant layer; raises NotInLattice when a pole survives.
    """
    layers = _collapse({(k, (0, 0, 0)): v for k, v in x.terms.items()}, 0)
    for order in sorted(layers):
        if order < 0 and layers[order]:
            raise NotInLattice("element has a pole at q = 1")
    return {k1: v for (k1, _), v in layers.get(0, {}).items()}


def _collapse(tensor_terms, hi):
    """Classical layers of a PBW tensor, expanding K^b = (1 + (q-1)h)^b."""
    layers = {}
    for ((a, b, c), (a2, b2, c2)), v in tensor_terms.items():
        val, coeffs = _laurent_q1(v, hi)
        for idx, ck in enumerate(coeffs):
            if ck == 0:
                continue
            k = val + idx
            for j in range(0, hi - k + 1):
                bj = _binom(b, j)
                if bj == 0:
                    continue
                for j2 in range(0, hi - k - j + 1):
                    bj2 = _binom(b2, j2)
                    if bj2 == 0:
                        continue
                    layer = k + j + j2
                    key = ((a, j, c), (a2, j2, c2))
                    bucket = layers.setdefault(layer, {})
                    s = bucket.get(key, Q(0)) + ck * bj * bj2
                    if s:
                        bucket[key] = s
                    elif key in bucket:
                        del bucket[key]
    return layers


def copoisson_limit(x):
    """(Delta(x) - Delta^op(x))/(q - 1) at q = 1, both legs classical.

    x must lie in the integral lattice generated by E, F and
    h = (K - 1)/(q - 1); otherwise NotInLattice is raised. The value is
    returned as a CoPoissonElem; the layer below the (q - 1) coefficient
    must cancel identically, which is exactly the lattice condition.
    """
    d = _ENGINE.coproduct(x)
    t = d - d.flip()
    layers = _collapse(t.terms, 1)
    for order in sorted(layers):
        if order < 1 and layers[order]:
            raise NotInLattice("cobracket numerator is not divisible by q - 1")
    top = layers.get(1, {})
    # canonical antisymmetric storage: the leg with the larger Cartan power
    # comes first (then lex order), so H-legged wedges read H first
    seen = set()
    out = {}
    for (m1, m2), v in top.items():
        if (m1, m2) in seen or (m2, m1) in seen:
            continue
        seen.add((m1, m2))
        if top.get((m2, m1), Q(0)) != -v:
            raise ArithmeticError("cobracket value is not antisymmetric")
        if m1 == m2:
            continue
        if (m1[1], m1) < (m2[1], m2):
            m1, m2, v = m2, m1, -v
        # left leg rendered over H = 2h, right leg over the X identification
        out[(m1, m2)] = out.get((m1, m2), Q(0)) + v * Q(1, 2 ** m1[1])
    return CoPoissonElem(out)


# classical straightening for the co-Leibniz check: [E, F] = 2h, [h, E] = E,
# [h, F] = -F, monomials F^a h^b E^c over Fractions

def _cl_lmul_E(terms):
    out = {}

    def add(key, v):
        s = out.get(key, Q(0)) + v
        if s:
            out[key] = s
        elif key in out:
            del out[key]

    for (a, b, c), v in terms.items():
        if a == 0:
            # E h^b = (h - 1)^b E
            for i in range(b + 1):
                add((0, i, c + 1), v * _binom(b, i) * Q(-1) ** (b - i))
        else:
            for key, w in _cl_lmul_E({(a - 1, b, c): Q(1)}).items():
                add((key[0] + 1, key[1], key[2]), v * w)
            add((a - 1, b + 1, c), 2 * v)
            add((a - 1, b, c), -2 * (a - 1) * v)
    return out


def _cl_mul(t1, t2):
    out = {}
    for (a, b, c), v1 in t1.items():
        t = t2
        for _ in range(c):
            t = _cl_lmul_E(t)
        for (a2, b2, c2), v in list(t.items()):
            # h^b past F^a2: h F = F (h - 1)
            for i in range(b + 1):
                key = (a + a2, b2 + i, c2)
                coeff = v1 * v * _binom(b, i) * Q(-a2) ** (b - i)
                s = out.get(key, Q(0)) + coeff
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
    return out


def _cl_coproduct(terms):
    out = {}
    for (a, b, c), v in terms.items():
        for i in range(a + 1):
            for j in range(b + 1):
                for k in range(c + 1):
                    key = ((i, j, k), (a - i, b - j, c - k))
                    coeff = v * _binom(a, i) * _binom(b, j) * _binom(c, k)
                    s = out.get(key, Q(0)) + coeff
                    if s:
                        out[key] = s
                    elif key in out:
                        del out[key]
    return out


def _cl_tensor_mul(s, t):
    out = {}
    for (l1, r1), v1 in s.items():
        for (l2, r2), v2 in t.items():
            for lk, lv in _cl_mul({l1: Q(1)}, {l2: Q(1)}).items():
                for rk, rv in _cl_mul({r1: Q(1)}, {r2: Q(1)}).items():
                    key = (lk, rk)
                    w = out.get(key, Q(0)) + v1 * v2 * lv * rv
                    if w:
                        out[key] = w
                    elif key in out:
                        del out[key]
    return out


# ---------------------------------------------------------------------------
# the graded quadratic algebra and its Poisson table
# ---------------------------------------------------------------------------

def donin_graded_relations():
    """Quadratic relations of the graded algebra on the X-generators.

    After twisting by the inverse central element the defining identities
    x y - mu(sigma(x (x) y)) = ad(x)(y) C become quadratic-plus-lower
    relations; the graded parts are x y = mu(sigma(x (x) y)) with the "-"
    orientation. Returns (relations, table): one relation record per
    unordered generator pair with the graded quadratic form and the
    lower-degree coefficient, and the q -> 1 Poisson bracket table on the
    basis (X+, X-, X0), ready for the Jacobi oracle.
    """
    gens, _ = locally_finite_generators()
    order = ("X+", "X-", "X0")
    relations = []
    table = {}
    for i in range(3):
        for j in range(i + 1, 3):
            nx, ny = order[i], order[j]
            x, y = gens[nx], gens[ny]
            sig = x_basis_tensor(sigma(x, y, "-"))
            lower = x_basis(_ENGINE.adjoint(x, y))
            lead = {(nx, ny): one}
            for (n1, n2), v in sig.items():
                s = lead.get((n1, n2), zero) - v
                if s:
                    lead[(n1, n2)] = s
                elif (n1, n2) in lead:
                    del lead[(n1, n2)]
            relations.append({"pair": (nx, ny), "lead": lead, "lower": lower})
            # Poisson limit: {x, y} = lim (mu sigma(x (x) y) - y x)/(q - 1)
            # read in the commutative symbols
            poly = {}

            def add(n1, n2, v):
                key = tuple(sorted((order.index(n1), order.index(n2))))
                s = poly.get(key, zero) + v
                if s:
                    poly[key] = s
                elif key in poly:
                    del poly[key]

            for (n1, n2), v in sig.items():
                add(n1, n2, v)
            add(ny, nx, -one)
            bracket = {}
            for key, v in poly.items():
                val, coeffs = _laurent_q1(v, 1)
                if val < 0 or (val == 0 and coeffs[0] != 0):
                    raise ArithmeticError("graded relation does not commute at q = 1")
                c1 = coeffs[1 - val] if 1 - val < len(coeffs) else Q(0)
                if c1:
                    bracket[key] = c1
            if bracket:
                table[(i, j)] = bracket
    return relations, BracketTable(3, table)


# ---------------------------------------------------------------------------
# braided symmetric powers of the simple modules
# ---------------------------------------------------------------------------

def _rep_matrices(l):
    """E, F, K acting on the (l+1)-dimensional module, over functions of v.

    The scalar field is read as rational functions of v with v^2 = q, so K
    acts by integer v-powers on every weight line. E w_i = [i]_q w_{i-1},
    F w_i = [l - i]_q w_{i+1}, K w_i = v^{l-2i} w_i.
    """
    n = l + 1
    em = [[zero] * n for _ in range(n)]
    fm = [[zero] * n for _ in range(n)]
    km = [[zero] * n for _ in range(n)]
    for i in range(n):
        km[i][i] = qpow(l - 2 * i)
        if i > 0:
            em[i - 1][i] = divided_bracket(i, 2)
        if i < n - 1:
            fm[i + 1][i] = divided_bracket(l - i, 2)
    return em, fm, km


def _mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    out = [[zero] * p for _ in range(n)]
    for i in range(n):
        for k in range(m):
            v = a[i][k]
            if not v:
                continue
            for j in range(p):
                if b[k][j]:
                    out[i][j] = out[i][j] + v * b[k][j]
    return out


def _mat_pow(m, k):
    n = len(m)
    out = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for _ in range(k):
        out = _mat_mul(out, m)
    return out


def _matrix_of_element(elem, em, fm, km):
    """Act a PBW element through representation matrices of E, F, K.

    The matrices carry scalars in v with v^2 = q, so the element's
    q-coefficients are reread through the substitution before scaling.
    """
    n = len(em)
    kinv = [[zero] * n for _ in range(n)]
    for i in range(n):
        kinv[i][i] = one / km[i][i]
    out = [[zero] * n for _ in range(n)]
    for (a, b, c), v in elem.terms.items():
        v = _q_to_v(v)
        m = _mat_pow(em, c)
        m = _mat_mul(_mat_pow(km if b >= 0 else kinv, abs(b)), m)
        m = _mat_mul(_mat_pow(fm, a), m)
        for i in range(n):
            for j in range(n):
                if m[i][j]:
                    out[i][j] = out[i][j] + v * m[i][j]
    return out


def _pair_action(l):
    """Coproduct actions of E, F, K on the tensor square of the module."""
    em, fm, km = _rep_matrices(l)
    n = l + 1
    nn = n * n
    kinv = [[zero] * n for _ in range(n)]
    for i in range(n):
        kinv[i][i] = one / km[i][i]

    def two(m1, m2):
        out = [[zero] * nn for _ in range(nn)]
        for i in range(n):
            for j in range(n):
                for i2 in range(n):
                    v1 = m1[i][i2]
                    if not v1:
                        continue
                    for j2 in range(n):
                        if m2[j][j2]:
                            out[i * n + j][i2 * n + j2] = v1 * m2[j][j2]
        return out

    ae = _mat_add(two(em, kinv), two(km, em))
    af = _mat_add(two(fm, kinv), two(km, fm))
    ak = two(km, km)
    return ae, af, ak


def _mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _casimir_eigenvalue(n):
    # C acts on the (n+1)-dimensional component by this scalar (v-variable)
    return (qpow(2 * (n + 1)) + qpow(-2 * (n + 1))) / (qpow(2) + qpow(-2))


def _weight_blocks(l):
    """Indices i(l+1) + j of the basis w_i (x) w_j of the square, one list per
    weight 2l - 2s, where s = i + j runs over 0..2l."""
    n = l + 1
    return [[i * n + s - i for i in range(max(0, s - l), min(s, l) + 1)]
            for s in range(2 * l + 1)]


def commutor_matrix(l, normalization="sign"):
    """The braiding involution on the tensor square of the simple module.

    Decomposes the square into highest-weight components through the central
    element's eigenvalues and flips the sign on every other component, which
    is the assignment whose q -> 1 limit is the classical flip. The
    "qpower" normalization multiplies each component by the natural
    v-power as well; the symmetric-power dimensions do not depend on it.

    C preserves the weight 2l - 2i - 2j of w_i (x) w_j, and the components
    meeting the weight-w block are the n >= |w|, one per basis vector of the
    block. So each projector is built on its block from those components only.
    """
    ae, af, ak = _pair_action(l)
    gens, _ = locally_finite_generators()
    nn = (l + 1) * (l + 1)
    cmat = _matrix_of_element(gens["C"], ae, af, ak)
    sigma_m = [[zero] * nn for _ in range(nn)]
    for s, idxs in enumerate(_weight_blocks(l)):
        b = len(idxs)
        block = [[cmat[r][c] for c in idxs] for r in idxs]
        comps = list(range(2 * l, abs(2 * l - 2 * s) - 1, -2))
        for idx, n in enumerate(comps):
            proj = [[one if i == j else zero for j in range(b)] for i in range(b)]
            cn = _casimir_eigenvalue(n)
            scale = one
            for k in comps:
                if k == n:
                    continue
                ck = _casimir_eigenvalue(k)
                shifted = [[block[i][j] - (ck if i == j else zero) for j in range(b)]
                           for i in range(b)]
                proj = _mat_mul(proj, shifted)
                scale = scale * (cn - ck)
            sign = one if idx % 2 == 0 else -one
            if normalization == "qpower":
                sign = sign * qpow(n * (n + 2) // 2 - l * (l + 2))
            sign = sign / scale
            for i, r in enumerate(idxs):
                for j, c in enumerate(idxs):
                    if proj[i][j]:
                        sigma_m[r][c] = sigma_m[r][c] + sign * proj[i][j]
    return sigma_m


def _rank(rows, ncols):
    # zero rows add nothing to the rank; dropping them keeps them out of the swaps
    return len(echelon([r for r in rows if any(r)], ncols))


def _eigen_kernel_dim(l, sigma_m, eig):
    """dim Ker(sigma - eig) on the square, blocked by weight."""
    total = 0
    for idxs in _weight_blocks(l):
        rows = []
        for r in idxs:
            rows.append([sigma_m[r][c] - (eig if r == c else zero) for c in idxs])
        total += len(idxs) - _rank(rows, len(idxs))
    return total


def _cube_sym_dim(l, sigma_m):
    """dim of the joint kernel of (sigma_12 - 1, sigma_23 - 1) on the cube."""
    n = l + 1
    rowmap = {}
    for r in range(n * n):
        entries = {}
        for c in range(n * n):
            if sigma_m[r][c]:
                entries[(c // n, c % n)] = sigma_m[r][c]
        rowmap[(r // n, r % n)] = entries
    blocks = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                blocks.setdefault(i + j + k, []).append((i, j, k))
    total = 0
    for idxs in blocks.values():
        pos = {t: p for p, t in enumerate(idxs)}
        rows = []
        for (i, j, k) in idxs:
            row = [zero] * len(idxs)
            for (i2, j2), v in rowmap[(i, j)].items():
                row[pos[(i2, j2, k)]] = row[pos[(i2, j2, k)]] + v
            row[pos[(i, j, k)]] = row[pos[(i, j, k)]] - one
            rows.append(row)
            row2 = [zero] * len(idxs)
            for (j2, k2), v in rowmap[(j, k)].items():
                row2[pos[(i, j2, k2)]] = row2[pos[(i, j2, k2)]] + v
            row2[pos[(i, j, k)]] = row2[pos[(i, j, k)]] - one
            rows.append(row2)
        total += len(idxs) - _rank(rows, len(idxs))
    return total


def braided_flatness(l, max_degree=3):
    """Braided symmetric-power dimensions of the (l+1)-dimensional module.

    Returns {dim_S2, dim_L2, dim_S3, classical_dims, flat_through_degree}.
    The braided powers are the joint kernels of the adjacent commutor
    actions minus the identity; degrees beyond 3 are out of scope.
    """
    if l < 1:
        raise ValueError("l must be at least 1")
    if max_degree not in (2, 3):
        raise ValueError("max_degree must be 2 or 3")
    n = l + 1
    sigma_m = commutor_matrix(l)
    dim_s2 = _eigen_kernel_dim(l, sigma_m, one)
    dim_l2 = _eigen_kernel_dim(l, sigma_m, -one)
    classical = {
        "S2": n * (n + 1) // 2,
        "L2": n * (n - 1) // 2,
        "S3": n * (n + 1) * (n + 2) // 6,
    }
    dim_s3 = _cube_sym_dim(l, sigma_m) if max_degree >= 3 else None
    flat = 1
    if dim_s2 == classical["S2"]:
        flat = 2
        if max_degree >= 3 and dim_s3 == classical["S3"]:
            flat = 3
    return {
        "dim_S2": dim_s2,
        "dim_L2": dim_l2,
        "dim_S3": dim_s3,
        "classical_dims": classical,
        "flat_through_degree": flat,
    }
