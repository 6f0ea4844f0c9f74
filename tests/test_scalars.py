import random
from fractions import Fraction as Q

import pytest

from qsym import scalars
from qsym.liealg import _mcompose, scaled, scaled_comm, scaled_ratio
from qsym.scalars import (PoleAtOne, QRat, ascii_int, den_lcm, divided_bracket, echelon,
                          one, q, qpow, specialize_q1, zero)


def test_reduction_and_monic_denominator():
    """(q^2 - 1)/(q - 1) reduces to q + 1 and denominators come out monic."""
    x = QRat([Q(-1), Q(0), Q(1)], [Q(-1), Q(1)])
    assert x == q + 1
    y = QRat([Q(1)], [Q(2), Q(2)])  # 1/(2q + 2)
    assert y.den == [Q(1), Q(1)]
    assert y.num == [Q(1, 2)]


def test_qpow_and_negative_powers():
    assert qpow(3) == q * q * q
    assert qpow(-2) == 1 / (q * q)
    assert q ** -2 == qpow(-2)
    assert qpow(0) == one


def _random_qrat(rng):
    num = [Q(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))]
    den = [Q(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))]
    if not any(den):
        den[-1] = Q(1)
    return QRat(num, den)


def test_field_axioms_on_random_values():
    """Commutativity, associativity, distributivity and inverses, seeded."""
    rng = random.Random(20260819)
    for _ in range(40):
        a, b, c = (_random_qrat(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == zero
        if a:
            assert a * (1 / a) == one


def test_specialize_q1_examples():
    assert specialize_q1((q * q - 1) / (q - 1)) == 2
    assert specialize_q1((q - qpow(-1)) / (q - 1)) == 2
    assert specialize_q1(QRat(Q(3, 4))) == Q(3, 4)
    assert specialize_q1(Q(-2)) == -2


def test_specialize_q1_pole():
    with pytest.raises(PoleAtOne):
        specialize_q1(1 / (q - 1))
    with pytest.raises(PoleAtOne):
        specialize_q1((q + 1) / ((q - 1) ** 2 * (q + 2)) * (q - 1))


def test_divided_bracket_values():
    assert divided_bracket(0) == zero
    assert divided_bracket(1) == one
    assert divided_bracket(2) == q + qpow(-1)
    assert divided_bracket(-3) == -divided_bracket(3)
    # definition as a ratio, for several (n, d)
    for n in range(1, 6):
        for d in (1, 2, 3):
            lhs = divided_bracket(n, d) * (qpow(d) - qpow(-d))
            assert lhs == qpow(n * d) - qpow(-n * d)
    # classical limit is n
    for n in range(6):
        assert specialize_q1(divided_bracket(n, 2)) == n


def test_string_forms():
    assert str((q * q - 1) / q) == "(q^2 - 1)/(q)"
    assert str(q + 1) == "q + 1"
    assert str(zero) == "0"
    assert str(QRat(Q(-3, 2)) * q) == "-3/2*q"
    assert str(qpow(-1)) == "(1)/(q)"
    assert (q * q - 1).to_str("v") == "v^2 - 1"


def test_eval_at_other_points():
    x = (q ** 3 - 8) / (q - 2)
    assert x.eval(2) == 12
    assert x.eval(0) == 4


def _fractions(rows):
    return [[Q(x) for x in row] for row in rows]


# -- scaled sparse matrices --------------------------------------------------

def _mat(cols):
    """Column-form Fraction matrix from {j: {i: value}} with int or str values."""
    return {j: {i: Q(v) for i, v in col.items()} for j, col in cols.items()}


def _value(sm):
    """The Fraction matrix a scaled pair stands for."""
    s, m = sm
    return {j: {i: s * v for i, v in col.items()} for j, col in m.items()}


def _fcompose(a, b):
    out = {}
    for j, col in b.items():
        acc = {}
        for k, c in col.items():
            for i, v in a.get(k, {}).items():
                acc[i] = acc.get(i, Q(0)) + c * v
        acc = {i: v for i, v in acc.items() if v}
        if acc:
            out[j] = acc
    return out


def test_scaled_conversion_clears_denominators():
    a = _mat({0: {0: "1/2", 1: 1}, 2: {1: "-2/3"}})
    s, m = scaled(a)
    assert s == Q(1, 6)
    assert m == {0: {0: 3, 1: 6}, 2: {1: -4}}
    assert all(type(v) is int for col in m.values() for v in col.values())
    assert _value((s, m)) == a
    assert scaled({}) == (Q(1), {})
    # stored zeros and empty columns are dropped
    assert scaled({0: {0: Q(0)}, 1: {}, 2: {3: Q(2)}}) == (Q(1), {2: {3: 2}})
    assert den_lcm([Q(1, 4), 3, Q(5, 6)]) == 12 and den_lcm([]) == 1


def test_scaled_compose_and_commutator_match_fractions():
    """Operands with different scales: the product of the int parts, times
    both scales, and the scaled commutator are the Fraction results."""
    a = _mat({0: {1: "1/2"}, 1: {0: 3, 2: "1/3"}, 2: {2: -1}})
    b = _mat({0: {0: "2/5"}, 1: {2: 1}, 2: {0: "-3/4", 1: 2}})
    sa, sb = scaled(a), scaled(b)
    assert sa[0] != sb[0]
    assert _value((sa[0] * sb[0], _mcompose(sa[1], sb[1]))) == _fcompose(a, b)
    ab, ba = _fcompose(a, b), _fcompose(b, a)
    comm = {}
    for j in set(ab) | set(ba):
        col = {i: ab.get(j, {}).get(i, Q(0)) - ba.get(j, {}).get(i, Q(0))
               for i in set(ab.get(j, {})) | set(ba.get(j, {}))}
        col = {i: v for i, v in col.items() if v}
        if col:
            comm[j] = col
    assert _value(scaled_comm(sa, sb)) == comm
    # a matrix commutes with itself: the zero matrix, with no empty columns
    assert scaled_comm(sa, sa)[1] == {}


def test_scaled_ratio():
    base = _mat({0: {0: 2, 1: "1/3"}, 3: {2: -1}})
    sbase = scaled(base)
    for r in [Q(1), Q(-1), Q(3, 7), Q(-5, 2)]:
        m = {j: {i: r * v for i, v in col.items()} for j, col in base.items()}
        got = scaled_ratio(scaled(m), sbase)
        assert got == r and isinstance(got, Q), r
        # a different scale on the same values gives the same ratio
        s, ints = scaled(m)
        assert scaled_ratio((s / 4, {j: {i: 4 * v for i, v in col.items()}
                                     for j, col in ints.items()}), sbase) == r
    # the zero matrix is 0 times anything
    assert scaled_ratio(scaled({}), sbase) == 0
    # mismatched support: an extra entry, a missing entry, an extra column
    extra = _mat({0: {0: 2, 1: "1/3", 2: 1}, 3: {2: -1}})
    missing = _mat({0: {0: 2}, 3: {2: -1}})
    column = _mat({0: {0: 2, 1: "1/3"}, 3: {2: -1}, 4: {0: 1}})
    no_pivot = _mat({0: {1: "1/3"}, 3: {2: -1}})
    for m in [extra, missing, column, no_pivot]:
        assert scaled_ratio(scaled(m), sbase) is None
    # same support, entries not proportional
    skew = _mat({0: {0: 2, 1: "2/3"}, 3: {2: -1}})
    assert scaled_ratio(scaled(skew), sbase) is None


def test_ascii_int_reads_a_sign_and_ascii_digits_only():
    """ascii_int reads [+-]?[0-9]+ and refuses the rest of what int() takes:
    other scripts' digits, superscripts, underscores and spaces."""
    for text, want in [("0", 0), ("7", 7), ("+3", 3), ("-12", -12), ("007", 7)]:
        assert ascii_int(text) == want, text
    for text in ["", "+", "-", "\u0663", "\u00b2", "1_0", " 3", "3 ", "3\n", "3.0", "0x1", "1e2"]:
        with pytest.raises(ValueError, match="exponent must be an integer"):
            ascii_int(text, "exponent")


def test_echelon_rank_deficient():
    """The second row is twice the first; the third supplies column 1."""
    rows = _fractions([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert echelon(rows, 3) == [0, 1]
    assert rows == _fractions([[1, 0, 1], [0, 1, 1], [0, 0, 0]])


def test_echelon_zero_rows():
    rows = _fractions([[0, 0, 0], [0, 0, 0]])
    assert echelon(rows, 3) == []
    assert rows == _fractions([[0, 0, 0], [0, 0, 0]])
    assert echelon([], 4) == []
    # a zero row ahead of a nonzero one is swapped below it
    rows = _fractions([[0, 0], [0, 3]])
    assert echelon(rows, 2) == [1]
    assert rows == _fractions([[0, 1], [0, 0]])


def test_echelon_inconsistent_augmented_column():
    """x + y = 1 and 2x + 2y = 3 leave a row 0 = 1 below the pivots."""
    rows = _fractions([[1, 1, 1], [2, 2, 3]])
    pivots = echelon(rows, 2)
    assert pivots == [0]
    assert rows[1] == _fractions([[0, 0, 1]])[0]
    consistent = _fractions([[1, 1, 1], [2, 2, 2]])
    assert echelon(consistent, 2) == [0]
    assert not consistent[1][2]


def test_echelon_over_qrat():
    """[[q, 1], [1, q]] x = (1, 0) over Q(q), checked by substitution."""
    rows = [[q, one, one], [one, q, zero]]
    assert echelon(rows, 2) == [0, 1]
    x, y = rows[0][2], rows[1][2]
    assert x == q / (q * q - 1)
    assert y == -1 / (q * q - 1)
    assert q * x + y == one and x + q * y == zero
    assert [r[:2] for r in rows] == [[one, zero], [zero, one]]


def test_echelon_narrow_ncols():
    """Columns past ncols are carried but never pivoted on."""
    rows = _fractions([[2, 2, 5], [3, 4, 6]])
    assert echelon(rows, 1) == [0]
    assert rows == [[Q(1), Q(1), Q(5, 2)], [Q(0), Q(1), Q(-3, 2)]]
    rows = _fractions([[0, 1], [0, 2]])
    assert echelon(rows, 1) == []
    assert rows == _fractions([[0, 1], [0, 2]])
    rows = _fractions([[1, 2]])
    assert echelon(rows, 0) == []
    assert rows == _fractions([[1, 2]])


def _random_matrix(rng, m, n):
    rows = [[Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(m)]
    # mix in dependent rows so that many draws are rank deficient
    for _ in range(rng.randint(0, m - 1)):
        i, j, k = (rng.randrange(m) for _ in range(3))
        c = Q(rng.randint(-2, 2))
        rows[i] = [a + c * b for a, b in zip(rows[j], rows[k])]
    return rows


def test_echelon_matches_sympy_rref():
    """Fixed-seed random matrices against sympy's reduced row echelon form,
    with the identity carried as augmented columns recording the row moves."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261017)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = _random_matrix(rng, m, n)
        rows = [row + [Q(int(i == j)) for j in range(m)] for i, row in enumerate(a)]
        pivots = echelon(rows, n)
        ref, ref_pivots = sympy.Matrix(a).rref()
        assert tuple(pivots) == ref_pivots
        left = [row[:n] for row in rows]
        assert left == [[Q(int(x.p), int(x.q)) for x in ref.row(i)] for i in range(m)]
        # the carried columns hold T with T * a equal to the reduced left block
        t = sympy.Matrix([row[n:] for row in rows])
        assert t * sympy.Matrix(a) == sympy.Matrix(left)


# ---------------------------------------------------------------------------
# the Z[q] kernel against independent references
# ---------------------------------------------------------------------------

def _conv(a, b):
    """Product of two little-endian coefficient lists, written out plainly."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _horner(cs, x):
    out = Q(0)
    for c in reversed(cs):
        out = out * x + c
    return out


def _random_poly(rng, lo, hi):
    cs = [rng.randint(-4, 4) for _ in range(rng.randint(lo, hi))]
    cs[-1] = cs[-1] or 1
    return cs


def test_qrat_matches_sympy_cancel():
    """QRat(n, d) against sympy.cancel in monic-denominator form, on fixed-seed
    random integer pairs built with common factors so that most gcds are
    nontrivial, and with powers of q on both sides; the same pair with
    Fraction coefficients reduces alike."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("q")

    def expr(cs):
        return sum(c * x ** k for k, c in enumerate(cs))

    def little_endian(e):
        return [Q(int(c.p), int(c.q)) for c in sympy.Poly(e, x).all_coeffs()[::-1]]

    rng = random.Random(20261018)
    for _ in range(80):
        g = rng.choice([[1], [0, 1], [-1, 1], [1, 2, 1], [0, 0, 3],
                        _random_poly(rng, 2, 3)])
        n = [0] * rng.randint(0, 3) + _conv(_random_poly(rng, 1, 4), g)
        d = [0] * rng.randint(0, 3) + _conv(_random_poly(rng, 1, 4), g)
        if rng.random() < 0.2:
            n = [0] * len(n)
        num, den = sympy.fraction(sympy.cancel(expr(n) / expr(d)))
        if num == 0:
            want = ([], [Q(1)])
        else:
            wn, wd = little_endian(num), little_endian(den)
            want = ([c / wd[-1] for c in wn], [c / wd[-1] for c in wd])
        got = QRat(n, d)
        assert (got.num, got.den) == want, (n, d)
        scaled = QRat([Q(c, 3) for c in n], [Q(c, 2) for c in d])
        assert scaled == got * Q(2, 3)


def _hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.one_of(st.integers(-6, 6),
                      st.fractions(min_value=-3, max_value=3, max_denominator=3))
    poly = st.lists(coeff, min_size=1, max_size=4)
    settings = hypothesis.settings(max_examples=150, deadline=None,
                                   database=None, derandomize=True)
    return hypothesis, st, poly, settings


def test_qrat_field_axioms_property():
    hypothesis, st, poly, settings = _hypothesis()
    qrats = st.builds(QRat, poly, poly.filter(any))

    @settings
    @hypothesis.given(qrats, qrats, qrats)
    def check(a, b, c):
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a
        assert a - a == zero and not (a - a)
        if a:
            assert a * (1 / a) == one
            assert (b * a) / a == b
        assert -(-a) == a and (a - b) + b == a

    check()


def test_qrat_equal_values_hash_equal_property():
    """Equal values from different inputs share one form, hence one hash."""
    hypothesis, st, poly, settings = _hypothesis()

    @settings
    @hypothesis.given(poly, poly.filter(any), poly.filter(any))
    def check(n, d, g):
        a = QRat(n, d)
        b = QRat(_conv(n, g), _conv(d, g))
        c = QRat(g) * a / QRat(g)
        assert a == b == c
        assert hash(a) == hash(b) == hash(c)
        assert (a.num, a.den) == (b.num, b.den)
        assert a.den[-1] == 1

    check()
    # a constant equals the int or Fraction it holds, and hashes like it
    for c in (0, 3, -2, Q(3, 4), Q(-5, 2)):
        assert QRat(c) == c and hash(QRat(c)) == hash(c)
        assert len({QRat(c), c}) == 1


def test_qrat_eval_with_cancelling_factors_property():
    """At q = 1 and q = 1/2, n*L^k / (d*L^k) with L the vanishing linear factor
    evaluates to n(p)/d(p); a leftover L in the denominator is a pole."""
    hypothesis, st, poly, settings = _hypothesis()

    @settings
    @hypothesis.given(poly, poly.filter(any), st.integers(0, 3),
                      st.sampled_from([(Q(1), [-1, 1]), (Q(1, 2), [-1, 2])]))
    def check(n, d, k, point_and_factor):
        point, lin = point_and_factor
        hypothesis.assume(_horner(d, point) != 0)
        lk = [1]
        for _ in range(k):
            lk = _conv(lk, lin)
        want = _horner(n, point) / _horner(d, point)
        x = QRat(_conv(n, lk), _conv(d, lk))
        assert x.eval(point) == want
        assert (x * QRat(lin)).eval(point) == 0
        if want:
            with pytest.raises(PoleAtOne):
                (x / QRat(lin)).eval(point)

    check()


def test_qrat_q_power_factors_property():
    """q^a n / (q^b d), however it is built, is QRat(n, d) * q^(a - b): one
    value, one hash, one num and den."""
    hypothesis, st, poly, settings = _hypothesis()

    @settings
    @hypothesis.given(poly, poly.filter(any), st.integers(0, 4), st.integers(0, 4))
    def check(n, d, a, b):
        want = QRat(n, d) * qpow(a - b)
        built = [QRat([0] * a + n, [0] * b + d),
                 QRat(n) * qpow(a) / (QRat(d) * qpow(b)),
                 QRat(n, d) * q ** a / q ** b,
                 qpow(-b) * QRat([0] * a + n, d)]
        for x in built:
            assert x == want and hash(x) == hash(want)
            assert (x.num, x.den) == (want.num, want.den)

    check()


def _laurent(rng):
    """A random Laurent polynomial in q as {exponent: int coefficient}."""
    return {k: rng.randint(-3, 3) for k in rng.sample(range(-4, 5), rng.randint(1, 4))}


def _laurent_qrat(terms):
    """The dict as a QRat, built as one integer quotient over q^s, s >= 0."""
    s = max(0, -min(terms, default=0))
    top = max(terms, default=0) + s
    return QRat([terms.get(k - s, 0) for k in range(top + 1)], [0] * s + [1])


def _laurent_op(a, b, op):
    out = {}
    if op == "*":
        for i, x in a.items():
            for j, y in b.items():
                out[i + j] = out.get(i + j, 0) + x * y
    else:
        sign = 1 if op == "+" else -1
        for k in set(a) | set(b):
            out[k] = a.get(k, 0) + sign * b.get(k, 0)
    return out


def test_laurent_polynomials_store_denominator_one():
    """Every Laurent polynomial, built or computed, is stored as q^e n / 1."""
    rng = random.Random(20261022)
    values = [qpow(-3), divided_bracket(4), q + qpow(-1), QRat([1], [0, 0, 1])]
    values += [_laurent_qrat(_laurent(rng)) for _ in range(20)]
    values += [a * b for a in values[:6] for b in values[:6]]
    values += [a - b for a in values[:6] for b in values[:6]]
    for x in values:
        assert x._d == [1], x
        assert not x._n or x._n[0], x


def test_laurent_arithmetic_runs_no_gcd(monkeypatch):
    """Products, sums and differences of Laurent polynomials take no
    polynomial gcd, and equal the same operations on exponent dicts."""
    rng = random.Random(20261023)
    pairs = [(_laurent(rng), _laurent(rng)) for _ in range(60)]
    values = [(_laurent_qrat(a), _laurent_qrat(b)) for a, b in pairs]

    def refuse(a, b):
        raise AssertionError("polynomial gcd on Laurent polynomials")

    monkeypatch.setattr(scalars, "_zgcd", refuse)
    got = [(x * y, x + y, x - y) for x, y in values]
    monkeypatch.undo()
    for (a, b), results in zip(pairs, got):
        assert results == tuple(_laurent_qrat(_laurent_op(a, b, op)) for op in "*+-")


def _dense_echelon(rows, ncols):
    """Gauss-Jordan on every entry of the pivot row: the reference for
    echelon, which leaves an entry alone where the pivot row has a zero."""
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


def test_echelon_sparse_rows_match_dense_reference_property():
    """Sparse rows over Fraction and over QRat, some of them combinations of
    others (rank deficient), with augmented columns past ncols: echelon
    gives the dense loop's pivots and rows."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    zeros = [Q(0)] * 6
    fractions = st.sampled_from(zeros + [Q(1), Q(-2), Q(1, 3), Q(-5, 2)])
    qrats = st.sampled_from([zero] * 6 + [one, q, qpow(-2), q + 1, 1 / (q - 1),
                                          (q * q + 1) / (q + 2), QRat(Q(-3, 2))])

    @hypothesis.settings(max_examples=150, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.data(), st.integers(1, 5), st.integers(1, 6))
    def check(data, m, width):
        entry = data.draw(st.sampled_from([fractions, qrats]))
        rows = [[data.draw(entry) for _ in range(width)] for _ in range(m)]
        for _ in range(data.draw(st.integers(0, m - 1))):
            i, j, k = (data.draw(st.integers(0, m - 1)) for _ in range(3))
            c = data.draw(entry)
            rows[i] = [x + c * y for x, y in zip(rows[j], rows[k])]
        ncols = data.draw(st.integers(0, width))
        ref = [row[:] for row in rows]
        assert echelon(rows, ncols) == _dense_echelon(ref, ncols)
        assert rows == ref

    check()
