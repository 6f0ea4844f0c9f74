"""Exact quantized enveloping algebra of sl2 and its classical limits.

The algebra has one presentation, with a balanced Cartan generator:
K E K^-1 = q E, K F K^-1 = q^-1 F, [E, F] = (K^2 - K^-2)/(q - q^-1), with
coproduct Delta(E) = E (x) K^-1 + K (x) E and likewise for F. It is the
presentation under which the central element is central and the sigma-map
identities close. Monomials are stored in the PBW order F^a K^b E^c. The
rewriting engine is plain module functions (mul, tensor_mul, coproduct,
coproduct_cube, antipode, counit, adjoint_action) over per-monomial rules
memoised with functools.cache; cached values are shared and never mutated.

On top of the PBW engine sit the locally finite generators X+, X-, X0 and the
central element C, the sigma map on their span, the co-Poisson cobracket
(Delta(x) - Delta^op(x))/(q - 1) specialized at q = 1, the graded quadratic
algebra obtained from the sigma relations with its q -> 1 Poisson bracket
table, and the braided symmetric-power dimensions of the simple modules.

Scalars are rational functions of q throughout, except braided_flatness which
reads the same scalar type as rational functions of v with v^2 = q so that
odd module weights get integer v-powers.

Nothing here carries its own linear algebra. Term dicts (PBW elements,
tensors, relations) accumulate through liealg._vadd_into, the one sparse
accumulator. PBW elements, tensors and co-Poisson values are one term class
(_Terms, its coefficient field a class attribute: QRat, or Fraction for the
classical limit), and one printer (_signed_sum) writes every signed sum.
Module and tensor-power actions are liealg's column-form sparse matrices: the
tensor-square and tensor-cube actions come from poisson._pair_matrix (read
off _delta_mono and coproduct_cube), and D = (q + q^-1) Delta(C) on the cube's
pairs of legs from poisson.leg_embed. The braided powers are counted on
highest weight vectors, with no braiding matrix: per weight, one
scalars.echelon for the kernel of Delta(E) on the block, D read there as a
block of at most l + 1 columns, and one rank of products of its shifts by
the Casimir's eigenvalues. commutor_matrix, the braiding itself as one
polynomial in D per weight block, is a library function that braided_flatness
does not read.
"""
from __future__ import annotations

from fractions import Fraction as Q
from functools import cache, reduce
from itertools import product
from math import comb

from .liealg import BracketTable, _mcompose, _mscaled_sum, _vadd_into
from .poisson import _pair_matrix, leg_embed
from .scalars import QRat, ascii_int, divided_bracket, echelon, one, qpow, zero


class NotInSpan(ValueError):
    """An element does not lie in the span required by the operation."""


class NotInLattice(ValueError):
    """A pole at q = 1 survives reduction to the integral form."""


# ---------------------------------------------------------------------------
# PBW elements
# ---------------------------------------------------------------------------

def _coeff_str(v):
    s = v.to_str()
    return "(%s)" % s if not s.startswith("(") and (" + " in s or " - " in s) else s


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


def _signed_sum(pieces):
    """Print (coefficient string, monomial string) pairs as one signed sum.

    A unit coefficient is dropped, -1 becomes a leading minus, a constant
    monomial "1" prints its coefficient alone, and the empty sum is "0".
    """
    out = []
    for s, mono in pieces:
        if mono == "1":
            out.append(s)
        elif s == "1":
            out.append(mono)
        elif s == "-1":
            out.append("-" + mono)
        else:
            out.append(s + " " + mono)
    return " + ".join(out).replace(" + -", " - ") or "0"


class _Terms:
    """A sparse sum {key: coefficient} with no zero coefficient stored.

    Coefficients are coerced by the class attribute _coerce (QRat.of here;
    a subclass may choose another exact field). Immutable by convention:
    arithmetic returns a fresh value of the same class, and values of
    different classes never compare equal.
    """

    __slots__ = ("terms",)
    _coerce = staticmethod(QRat.of)

    def __init__(self, terms=None):
        coerce = self._coerce
        clean = {}
        for key, val in (terms or {}).items():
            val = coerce(val)
            if val:
                clean[key] = val
        self.terms = clean

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        return type(self)(_vadd_into(dict(self.terms), other.terms))

    def __neg__(self):
        return type(self)({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)


class PBWElement(_Terms):
    """Sum of monomials F^a K^b E^c with QRat coefficients, as {(a,b,c): QRat}.

    a and c are nonnegative, b ranges over all integers. The product of two
    elements is mul, the PBW rewriting below.
    """

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, PBWElement):
            return mul(self, other)
        return PBWElement({k: v * QRat.of(other) for k, v in self.terms.items()})

    def __rmul__(self, other):
        return PBWElement({k: QRat.of(other) * v for k, v in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("a PBW element has no negative powers, got %d" % n)
        out = PBWElement({(0, 0, 0): one})
        for _ in range(n):
            out = out * self
        return out

    def pretty(self):
        return _signed_sum((_coeff_str(self.terms[key]), _mono_str(key))
                           for key in sorted(self.terms))

    def __repr__(self):
        return "PBWElement(%s)" % self.pretty()


class UqTensor(_Terms):
    """Element of the tensor square, {(left PBW key, right PBW key): QRat}."""

    __slots__ = ()

    def flip(self):
        return UqTensor({(r, l): v for (l, r), v in self.terms.items()})


# ---------------------------------------------------------------------------
# the rewriting engine
# ---------------------------------------------------------------------------

_IBR = one / (qpow(1) - qpow(-1))


@cache
def _e_mono(key):
    """E * F^a K^b E^c as a PBW term dict."""
    a, b, c = key
    if a == 0:
        return {(0, b, c + 1): qpow(-b)}
    out = {(ra + 1, rb, rc): v for (ra, rb, rc), v in _e_mono((a - 1, b, c)).items()}
    for sign in (1, -1):
        _vadd_into(out, {(a - 1, b + 2 * sign, c): sign * _IBR * qpow(-2 * sign * (a - 1))})
    return out


def _lmul_E(terms):
    out = {}
    for key, v in terms.items():
        _vadd_into(out, _e_mono(key), v)
    return out


def mul(x, y):
    """The product x y of two PBW elements, in PBW order."""
    out = {}
    for (a, b, c), vx in x.terms.items():
        t = y.terms
        for _ in range(c):
            t = _lmul_E(t)
        # K^b past F^a2 picks up q^(-a2 b)
        _vadd_into(out, {(a2 + a, b2 + b, c2): v * qpow(-a2 * b) if b else v
                         for (a2, b2, c2), v in t.items()}, vx)
    return PBWElement(out)


@cache
def _mul_mono(k1, k2):
    return mul(PBWElement({k1: one}), PBWElement({k2: one}))


def tensor_mul(s, t):
    """The product of two UqTensors, leg by leg."""
    out = {}
    for (l1, r1), v1 in s.terms.items():
        for (l2, r2), v2 in t.terms.items():
            v = v1 * v2
            right = _mul_mono(r1, r2).terms
            for lk, lv in _mul_mono(l1, l2).terms.items():
                _vadd_into(out, {(lk, rk): rv for rk, rv in right.items()}, v * lv)
    return UqTensor(out)


@cache
def _delta_mono(key):
    a, b, c = key
    if a > 0:
        dF = UqTensor({((1, 0, 0), (0, -1, 0)): one, ((0, 1, 0), (1, 0, 0)): one})
        return tensor_mul(dF, _delta_mono((a - 1, b, c)))
    if c > 0:
        dE = UqTensor({((0, 0, 1), (0, -1, 0)): one, ((0, 1, 0), (0, 0, 1)): one})
        return tensor_mul(_delta_mono((a, b, c - 1)), dE)
    return UqTensor({((0, b, 0), (0, b, 0)): one})


def coproduct(x):
    out = {}
    for key, v in x.terms.items():
        _vadd_into(out, _delta_mono(key).terms, v)
    return UqTensor(out)


@cache
def _anti_mono(key):
    a, b, c = key
    # S(F^a K^b E^c) = S(E)^c S(K^b) S(F^a), with S(E) = -q^-1 E, S(F) = -q F,
    # S(K) = K^-1, then renormalized to PBW order.
    coeff = (-one) ** ((a + c) % 2) * qpow(a - c)
    word = mul(PBWElement({(0, 0, c): one}), PBWElement({(0, -b, 0): one}))
    word = mul(word, PBWElement({(a, 0, 0): one}))
    return PBWElement({k: coeff * v for k, v in word.terms.items()})


def antipode(x):
    out = {}
    for key, v in x.terms.items():
        _vadd_into(out, _anti_mono(key).terms, v)
    return PBWElement(out)


def counit(x):
    out = zero
    for (a, b, c), v in x.terms.items():
        if a == 0 and c == 0:
            out = out + v
    return out


def coproduct_cube(x):
    """(Delta (x) 1)Delta(x) as {(k1, k2, k3): QRat}."""
    out = {}
    for (l, r), v in coproduct(x).terms.items():
        left = _delta_mono(l).terms
        _vadd_into(out, {(l1, l2, r): w for (l1, l2), w in left.items()}, v)
    return out


def adjoint_action(x, y):
    """ad(x)(y) = sum x_(1) y S(x_(2)) in canonical form."""
    out = {}
    for (l, r), v in coproduct(x).terms.items():
        piece = mul(mul(PBWElement({l: one}), y), _anti_mono(r))
        _vadd_into(out, piece.terms, v)
    return PBWElement(out)


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
            # the exponent runs to the next space, '*' or generator
            j = i + 1
            while j < len(word) and word[j] not in " *EFK":
                j += 1
            power = ascii_int(word[i + 1:j], "exponent")
            i = j
        out.append((ch, power))
    return out


def normal_form(word):
    """Canonical PBW form of a free word in E, F, K^±1, such as "K E K^-1"
    or "F^2 E"."""
    elem = PBWElement({(0, 0, 0): one})
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
        elem = mul(elem, atom)
    return elem


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


@cache
def _x_generators():
    """X+ = K^-1 E, X- = K^-1 F and X0 = (q EF - q^-1 FE)/(q + q^-1), by name."""
    qq = qpow(1) + qpow(-1)
    e = PBWElement({(0, 0, 1): one})
    f = PBWElement({(1, 0, 0): one})
    num = (e * f) * qpow(1) - (f * e) * qpow(-1)
    return {
        "X+": PBWElement({(0, -1, 1): one}),
        # K^-1 F = q F K^-1
        "X-": PBWElement({(1, -1, 0): qpow(1)}),
        "X0": PBWElement({k: v / qq for k, v in num.terms.items()}),
    }


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
    xs = _x_generators()
    basis = [{(0, 0, 0): one}] + [xs[n].terms for n in _X_NAMES]
    coeffs = _solve_span(basis, x.terms)
    if coeffs is None:
        raise NotInSpan("element is not in the locally finite generator span")
    return {n: c for n, c in zip(names, coeffs) if c}


def x_basis_tensor(t):
    """Write a tensor in span{1, X+, X-, X0}^(x)2 as {(name, name): QRat}."""
    names = ("1",) + _X_NAMES
    xs = _x_generators()
    elems = [PBWElement({(0, 0, 0): one})] + [xs[n] for n in _X_NAMES]
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
    return _signed_sum((_coeff_str(decomp[(n1, n2)]), "%s⊗%s" % (n1, n2))
                       for n1, n2 in sorted(decomp, key=lambda p: (order[p[0]], order[p[1]])))


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
    gens, report = _compute_locally_finite()
    return dict(gens), dict(report)


def _central_element():
    """The central element C, with the record of how it was selected.

    Two candidates K^-b + (q - q^-1) X0, b = 2 and 1, are tested against E,
    F and K; exactly one commutes with all three, else ArithmeticError.
    Returns (C, central, selected): central maps each candidate's label to
    the outcome of its test, and selected is the label of C.
    """
    x0 = _x_generators()["X0"]
    dq = qpow(1) - qpow(-1)
    candidates = {
        "K^-2 + (q - q^-1) X0": PBWElement({(0, -2, 0): one}) + x0 * dq,
        "K^-1 + (q - q^-1) X0": PBWElement({(0, -1, 0): one}) + x0 * dq,
    }
    named = generators()
    central = {label: all(cand * named[g] == named[g] * cand for g in "EFK")
               for label, cand in candidates.items()}
    selected = [label for label, ok in central.items() if ok]
    if len(selected) != 1:
        raise ArithmeticError("central element selection failed: %r" % central)
    return candidates[selected[0]], central, selected[0]


@cache
def _compute_locally_finite():
    gens = dict(_x_generators())
    e = PBWElement({(0, 0, 1): one})
    f = PBWElement({(1, 0, 0): one})
    k = PBWElement({(0, 1, 0): one})
    dq = qpow(1) - qpow(-1)
    c_elem, central, selected = _central_element()
    gens["C"] = c_elem

    # coproduct shape: Delta(x) - x (x) C has all right legs in the span
    span = [{(0, 0, 0): one}] + [gens[n].terms for n in _X_NAMES]
    shape_ok = True
    for name in _X_NAMES:
        x = gens[name]
        rest = coproduct(x) - UqTensor(
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
            img = adjoint_action(g, gens[name])
            try:
                coords = x_basis(img)
            except NotInSpan:
                ad_stable = False
                continue
            if coords.get("1"):
                ad_stable = False

    # C on the two-dimensional module: E, F, K act as the l = 1 matrices,
    # whose scalars are functions of v with v^2 = q
    cm = _matrix_of_element(c_elem, _rep_matrices(1))
    scalar_q = (qpow(2) + qpow(-2)) / (qpow(1) + qpow(-1))
    is_scalar = cm == {i: {i: _q_to_v(scalar_q)} for i in range(2)}
    casimir = f * e + PBWElement(
        {(0, 2, 0): qpow(1) / dq ** 2, (0, -2, 0): qpow(-1) / dq ** 2})
    ratio = dq ** 2 / (qpow(1) + qpow(-1))
    delta_c = coproduct(c_elem)
    c_square = UqTensor({(k1, k2): v1 * v2
                         for k1, v1 in c_elem.terms.items()
                         for k2, v2 in c_elem.terms.items()})
    report = {
        "central": central,
        "selected": selected,
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
    named = _x_generators()
    try:
        x, y = (named[v] if isinstance(v, str) else v for v in (x, y))
    except KeyError as exc:
        raise NotInSpan("unknown generator name %r" % exc.args) from None
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
    for (k1, k2, k3), v in coproduct_cube(x).items():
        left = mul(mul(PBWElement({k1: one}), y), _anti_mono(k2))
        _vadd_into(out, {(lk, k3): lv for lk, lv in left.terms.items()}, v)
    for ak, av in adjoint_action(x, y).terms.items():
        _vadd_into(out, {(ak, zk): zv for zk, zv in z_elem.terms.items()}, -av)
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
                residues.append((lhs, adjoint_action(x, y)))
        holds = {}
        for z_label, z_elem in z_cands.items():
            holds[z_label] = all(lhs == ad * z_elem for lhs, ad in residues)
        out[variant] = holds
    out["scalar_vs_C"] = "1" if out["-"]["C"] else None
    return out


def _mu(t):
    """Multiply the two legs of a tensor."""
    out = {}
    for (l, r), v in t.terms.items():
        _vadd_into(out, _mul_mono(l, r).terms, v)
    return PBWElement(out)


# ---------------------------------------------------------------------------
# the co-Poisson classical limit
# ---------------------------------------------------------------------------

def _binom(b, j):
    """b choose j for an int b of either sign: (-m choose j) = (-1)^j (m+j-1 choose j)."""
    return comb(b, j) if b >= 0 else (-1) ** j * comb(j - b - 1, j)


def _shift_poly(cs):
    """Int coefficients of p(1 + t) from int coefficients of p(q), little-endian."""
    out = [0] * max(len(cs), 1)
    row = [1]  # (1 + t)^k, a Pascal row
    for c in cs:
        if c:
            for i, r in enumerate(row):
                out[i] += c * r
        row = [a + b for a, b in zip(row + [0], [0] + row)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _laurent_q1(v, hi):
    """(valuation, coefficients) of v expanded at q = 1 + t up to order hi,
    from v's own int polynomials: v.num and v.den over a scale that cancels."""
    num, den = map(_shift_poly, v.int_parts())
    vn = next((i for i, c in enumerate(num) if c), len(num))
    vd = next((i for i, c in enumerate(den) if c), len(den))
    val = vn - vd
    if val > hi:
        return val, []
    n = hi - val + 1
    a = [(num[vn + i] if vn + i < len(num) else 0) for i in range(n)]
    b = [(den[vd + i] if vd + i < len(den) else 0) for i in range(n)]
    out = []
    for i in range(n):
        c = a[i]
        for j in range(i):
            c -= out[j] * b[i - j]
        out.append(Q(c) / b[0])
    return val, out


class CoPoissonElem(_Terms):
    """Antisymmetric cobracket value sum c * (u (x) a - a (x) u).

    Keys are pairs of classical PBW exponent triples: the left leg counts
    (F, H, E) powers with H the classical Cartan generator normalized by
    [E, F] = H, the right leg counts (X-, X0, X+) powers under the classical
    identification X- = F, X0 = H/2, X+ = E. Coefficients are Fractions.
    """

    __slots__ = ()
    _coerce = Q

    def kernel_reduced(self):
        """Canonical skew form with both legs in the same classical basis.

        Wedge pairs whose two legs name the same classical element (for
        example H with X0 = H/2) cancel here; the result is what the value
        says as an honest element of the exterior square.
        """
        acc = {}
        for (m1, m2), v in self.terms.items():
            if m1 != m2:
                vv = v * Q(2) ** m1[1]  # F^a H^b E^c = 2^b F^a h^b E^c
                _vadd_into(acc, {(m1, m2): vv} if m1 > m2 else {(m2, m1): -vv})
        return acc

    def pretty(self):
        def leg(names, powers):
            return " ".join(n if p == 1 else "%s^%d" % (n, p)
                            for n, p in zip(names, powers) if p) or "1"

        return _signed_sum((str(self.terms[(u, a)]),
                            "%s∧%s" % (leg(("F", "H", "E"), u), leg(("X-", "X0", "X+"), a)))
                           for u, a in sorted(self.terms, reverse=True))

    def __repr__(self):
        return "CoPoissonElem(%s)" % self.pretty()


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
                    _vadd_into(layers.setdefault(k + j + j2, {}),
                               {((a, j, c), (a2, j2, c2)): ck * bj * bj2})
    return layers


def copoisson_limit(x):
    """(Delta(x) - Delta^op(x))/(q - 1) at q = 1, both legs classical.

    x must lie in the integral lattice generated by E, F and
    h = (K - 1)/(q - 1); otherwise NotInLattice is raised. The value is
    returned as a CoPoissonElem; the layer below the (q - 1) coefficient
    must cancel identically, which is exactly the lattice condition.
    """
    d = coproduct(x)
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
            lower = x_basis(adjoint_action(x, y))
            lead = _vadd_into({(nx, ny): one}, sig, -one)
            relations.append({"pair": (nx, ny), "lead": lead, "lower": lower})
            # Poisson limit: {x, y} = lim (mu sigma(x (x) y) - y x)/(q - 1)
            # read in the commutative symbols
            poly = {}
            for (n1, n2), v in list(sig.items()) + [((ny, nx), -one)]:
                _vadd_into(poly, {tuple(sorted((order.index(n1), order.index(n2)))): v})
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
    """E, F, K and K^-1 on the (l+1)-dimensional module, in column form.

    Scalars are rational functions of v with v^2 = q, so K acts by integer
    v-powers on every weight line. E w_i = [i]_q w_{i-1},
    F w_i = [l - i]_q w_{i+1}, K^{±1} w_i = v^{±(l-2i)} w_i.
    """
    n = l + 1
    em = {i: {i - 1: divided_bracket(i, 2)} for i in range(1, n)}
    fm = {i: {i + 1: divided_bracket(l - i, 2)} for i in range(n - 1)}
    km = {i: {i: qpow(l - 2 * i)} for i in range(n)}
    kinv = {i: {i: qpow(2 * i - l)} for i in range(n)}
    return em, fm, km, kinv


# the PBW keys of E, F, K and K^-1, in the order of _rep_matrices
_GENERATOR_KEYS = ((0, 0, 1), (1, 0, 0), (0, 1, 0), (0, -1, 0))


def _pair_action(l):
    """E, F, K and K^-1 acting on the tensor square through the coproduct,
    read off _delta_mono with its q-coefficients reread in v."""
    mats = dict(zip(_GENERATOR_KEYS, _rep_matrices(l)))
    return tuple(_pair_matrix(mats, l + 1,
                              {k: _q_to_v(v) for k, v in _delta_mono(key).terms.items()})
                 for key in _GENERATOR_KEYS)


def _cube_action(l, key):
    """The generator of PBW key `key` acting on the tensor cube through
    (Delta (x) 1)Delta, read off coproduct_cube with its q-coefficients reread
    in v: the first two legs of each term are one _pair_matrix, paired with
    the third leg by another."""
    mats = dict(zip(_GENERATOR_KEYS, _rep_matrices(l)))
    cube = {((k1, k2), k3): _q_to_v(v)
            for (k1, k2, k3), v in coproduct_cube(PBWElement({key: one})).items()}
    for left, _ in cube:
        mats[left] = _pair_matrix(mats, l + 1, {left: one})
    return _pair_matrix(mats, l + 1, cube)


def _identity(idxs):
    return {j: {j: one} for j in idxs}


def _matrix_of_element(elem, mats):
    """Act a PBW element through column-form matrices of (E, F, K, K^-1).

    The matrices carry scalars in v with v^2 = q, so the element's
    q-coefficients are reread through the substitution before scaling.
    """
    em, fm, km, kinv = mats
    pairs = []
    for (a, b, c), v in elem.terms.items():
        factors = [fm] * a + [km if b >= 0 else kinv] * abs(b) + [em] * c
        pairs.append((_q_to_v(v), reduce(_mcompose, factors) if factors else _identity(km)))
    return _mscaled_sum(pairs)


def _weight_blocks(l, degree):
    """Packed indices of the basis w_i1 (x) ... (x) w_id of V^(x)degree, one
    list per weight degree*l - 2s, where s = i1 + ... + id runs over
    0..degree*l. The packing is (..(i1 (l+1) + i2) (l+1) + ..) + id."""
    blocks = [[] for _ in range(degree * l + 1)]
    for idx, digits in enumerate(product(range(l + 1), repeat=degree)):
        blocks[sum(digits)].append(idx)
    return blocks


def commutor_matrix(l):
    """The braiding involution on the tensor square of the simple module.

    The square is the sum of the components V_n, n = 2l, 2l - 2, ..., 0, and
    the commutor is +1 on V_2l, -1 on V_(2l-2), and so on alternately, which
    is the assignment whose q -> 1 limit is the classical flip. Returns a
    column-form matrix over functions of v.

    It is one polynomial in D = (q + q^-1) C, C the central element, which
    acts on V_n by d_n = v^(2n+2) + v^-(2n+2) and has Laurent-polynomial
    entries. D preserves the weight 2l - 2s of the block of w_i (x) w_j with
    i + j = s, and the components meeting that block are the n = 2l, 2l - 2,
    ..., |2l - 2s|, one per basis vector. Their d_n are distinct, so D is
    diagonalisable on the block, and the commutor there is p(D) for the
    polynomial p of degree m - 1 (m the block size) with p(d_n) = the sign of
    V_n: the sum of sign times projector, entry for entry. p is taken in
    Newton's form, sum over k of a_k N_k with a_k the divided differences and
    N_k = (D - d_0) ... (D - d_(k-1)): m - 1 block products build the N_k on
    Laurent polynomials, and the rational a_k enter once, in the sum.
    """
    gens, _ = locally_finite_generators()
    dmat = _matrix_of_element(gens["C"] * (qpow(1) + qpow(-1)), _pair_action(l))
    out = {}
    for s, idxs in enumerate(_weight_blocks(l, 2)):
        block = {j: dmat[j] for j in idxs if j in dmat}
        nodes = [qpow(2 * n + 2) + qpow(-2 * n - 2)
                 for n in range(2 * l, abs(2 * l - 2 * s) - 1, -2)]
        coeffs = [one if k % 2 == 0 else -one for k in range(len(nodes))]
        # in place, coeffs[k] becomes the divided difference p[d_0, ..., d_k]
        for k in range(1, len(nodes)):
            for i in range(len(nodes) - 1, k - 1, -1):
                coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (nodes[i] - nodes[i - k])
        newton = _identity(idxs)
        terms = [(coeffs[0], newton)]
        for c, x in zip(coeffs[1:], nodes):
            newton = _mscaled_sum([(None, _mcompose(newton, block)), (-x, newton)])
            terms.append((c, newton))
        out.update(_mscaled_sum(terms))
    return out


def _highest_weight_basis(e_op, blocks, s):
    """A basis of the vectors of blocks[s] that e_op kills, with its heads.

    e_op maps block s into block s - 1. One echelon of that map gives one
    basis vector per free column: as {index: QRat}, 1 at its head (the free
    column's index) and 0 at the other basis vectors' heads. Returns
    (heads, basis).
    """
    idxs = blocks[s]
    pos = {j: p for p, j in enumerate(idxs)}
    rows = {}
    for j in idxs:
        for i, v in e_op.get(j, {}).items():
            rows.setdefault(i, [zero] * len(idxs))[pos[j]] = v
    rows = [rows[i] for i in sorted(rows)]
    pivots = echelon(rows, len(idxs))
    frees = sorted(set(range(len(idxs))) - set(pivots))
    basis = []
    for free in frees:
        vec = {idxs[free]: one}
        for row, col in zip(rows, pivots):
            if row[free]:
                vec[idxs[col]] = -row[free]
        basis.append(vec)
    return [idxs[free] for free in frees], basis


def _on_heads(op, heads, basis):
    """op on the span of basis, which op maps into itself, as an m x m
    column-form block: column b holds the entries of op h_b at the heads.

    A vector of the span is fixed by its entries at the heads (each h_a is 1
    at its own head and 0 at the others), so this block is op's matrix in
    the basis, and no other entry of an image is computed.
    """
    out = {}
    for b, h in enumerate(basis):
        col = {}
        for a, i in enumerate(heads):
            v = sum((op[j][i] * x for j, x in h.items() if i in op.get(j, ())), zero)
            if v:
                col[a] = v
        if col:
            out[b] = col
    return out


def _shifted_product(block, shifts, m):
    """The product over d in shifts of block - d, on an m-dimensional space."""
    ident = _identity(range(m))
    return reduce(_mcompose, [_mscaled_sum([(None, block), (-d, ident)]) for d in shifts],
                  ident)


def _invariant_dims(e_op, blocks, top, ops, systems):
    """Dimensions of submodules of a tensor power, one per system.

    e_op is Delta(E) on the power, blocks its weight blocks (weight top - 2s
    for block s), and each of ops commutes with the action of U_q, so it
    maps H_w = ker e_op on the weight-w block into itself. A system is a
    list of (k, shifts) pairs, shifts(w) a list of scalars, and its
    submodule meets H_w in the joint kernel of the products over d in
    shifts(w) of ops[k] - d. Over Q(v) the submodule is completely
    reducible, and each component V_w contributes one highest weight vector,
    of weight w. So the dimension is the sum over w >= 0 of (w + 1) times
    m - r: m = dim H_w, r the rank of the system's products on H_w.

    Each op is read once per weight as the m x m block M of its entries at
    the heads of H_w's basis (_on_heads), shared by every system, and a
    product of shifts of op on H_w is the same product of shifts of M. m is
    the multiplicity of V_w, at most l + 1 in the square and the cube of V_l.
    """
    dims = [0] * len(systems)
    for s in range(top // 2 + 1):
        heads, basis = _highest_weight_basis(e_op, blocks, s)
        m = len(basis)
        blocks_m = [_on_heads(op, heads, basis) for op in ops]
        for k, system in enumerate(systems):
            rows = []
            for op_k, shifts in system:
                prod = _shifted_product(blocks_m[op_k], shifts(top - 2 * s), m)
                rows += [[prod.get(b, {}).get(a, zero) for b in range(m)] for a in range(m)]
            rank = len(echelon(rows, m))
            dims[k] += (top - 2 * s + 1) * (m - rank)
    return dims


def braided_flatness(l, max_degree=3):
    """Braided symmetric-power dimensions of the (l+1)-dimensional module.

    Returns {dim_S2, dim_L2, dim_S3, classical_dims, flat_through_degree}.
    S2 and L2 are the kernels of sigma - 1 and sigma + 1 on the square, S3
    the joint kernel of sigma_12 - 1 and sigma_23 - 1 on the cube; degrees
    beyond 3 are out of scope. sigma itself is never formed: each kernel is
    that of a product of shifts of D = (q + q^-1) Delta(C), counted on
    highest weight vectors (_invariant_dims). That is exact:

    - D acts on V_n in V (x) V by d_n = v^(2n+2) + v^-(2n+2), n = 2l, 2l - 2,
      ..., 0. The d_n are pairwise distinct, so V (x) V is the direct sum of
      the eigenspaces ker(D - d_n).
    - sigma is +1 exactly on the V_n with n in N+ = {2l, 2l - 4, ...} and -1
      on those with n in N- = {2l - 2, 2l - 6, ...} (commutor_matrix). Hence
      ker(sigma - 1) = ker P+(D) and ker(sigma + 1) = ker P-(D), with
      P+-(x) the product over n in N+- of x - d_n.
    - On V (x)3, sigma_12 = p(D) (x) 1 = p(D_12) for the polynomial p with
      sigma = p(D), and sigma_23 = p(D_23) with D_23 = 1 (x) D. So
      S3 = ker P+(D_12) cap ker P+(D_23).
    - C is central, so D_12 = D (x) 1 commutes with (Delta (x) 1)Delta(x) =
      sum Delta(x_(1)) (x) x_(2), and D_23 with (1 (x) Delta)Delta(x), the
      same map by coassociativity. So D, D_12 and D_23 map each highest
      weight space H_w into itself, and every kernel above is a
      U_q-submodule.
    - Read on H_w at the heads of its basis, each operator is an m x m block
      M, m <= l + 1, and S3 meets H_w in the joint kernel of P+(M_12) and
      P+(M_23); the count (w + 1)(m - rank) is that of _invariant_dims.
    """
    if type(l) is not int or type(max_degree) is not int:
        raise ValueError("l and max_degree must be ints, got %r and %r" % (l, max_degree))
    if l < 1:
        raise ValueError("l must be at least 1")
    if max_degree not in (2, 3):
        raise ValueError("max_degree must be 2 or 3")
    n = l + 1
    c_elem, _, _ = _central_element()
    pair = _pair_action(l)
    dmat = _matrix_of_element(c_elem * (qpow(1) + qpow(-1)), pair)
    d = {k: qpow(2 * k + 2) + qpow(-2 * k - 2) for k in range(0, 2 * l + 1, 2)}
    plus, minus = range(2 * l, -1, -4), range(2 * l - 2, -1, -4)

    # Of the factors x - d_n of P+-, only those whose V_n meets H_w are kept:
    # the others are invertible on H_w, where D has no other eigenvalue, and
    # change no kernel. On the square H_w lies in V_w; on the cube D_12 and
    # D_23 take the d_n of the V_n with V_w in V_n (x) V_l, that is
    # |n - l| <= w <= n + l (Clebsch-Gordan).
    def square(signs):
        return lambda w: [d[w]] if w in signs else []

    def cube(w):
        return [d[k] for k in plus if abs(k - l) <= w <= k + l]

    dim_s2, dim_l2 = _invariant_dims(pair[0], _weight_blocks(l, 2), 2 * l, [dmat],
                                     [[(0, square(plus))], [(0, square(minus))]])
    classical = {
        "S2": n * (n + 1) // 2,
        "L2": n * (n - 1) // 2,
        "S3": n * (n + 1) * (n + 2) // 6,
    }
    dim_s3 = None
    if max_degree >= 3:
        d12_d23 = [leg_embed(dmat, n, legs) for legs in ((0, 1), (1, 2))]
        (dim_s3,) = _invariant_dims(_cube_action(l, (0, 0, 1)), _weight_blocks(l, 3),
                                    3 * l, d12_d23, [[(0, cube), (1, cube)]])
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
