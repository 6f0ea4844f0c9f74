import random
from fractions import Fraction as Q

import pytest

from qsym import qsl2
from qsym.liealg import _mapply, _mcompose, _mscaled_sum, _vadd_into
from qsym.poisson import jacobi_oracle, leg_embed
from qsym.qsl2 import CoPoissonElem, NotInLattice, NotInSpan, PBWElement, UqTensor, _binom
from qsym.scalars import QRat, echelon, one, qpow, zero


def identity(n):
    return {j: {j: one} for j in range(n)}


def rep_matrix_of_word(word, l):
    """Independent oracle: act a free word through the module matrices."""
    em, fm, km, _ = qsl2._rep_matrices(l)
    kinv = {j: {j: one / km[j][j]} for j in km}
    atoms = {"E": em, "F": fm, "K": km, "K^-1": kinv}
    out = identity(l + 1)
    for tok in word.split():
        out = _mcompose(out, atoms[tok])
    return out


def random_words(count, maxlen, seed):
    rng = random.Random(seed)
    atoms = ["E", "F", "K", "K^-1"]
    words = []
    for _ in range(count):
        length = rng.randint(1, maxlen)
        words.append(" ".join(rng.choice(atoms) for _ in range(length)))
    return words


def test_normal_form_against_module_matrices():
    """The PBW straightening agrees with the module actions it never saw."""
    for word in random_words(20, 4, 20260819):
        elem = qsl2.normal_form(word)
        for l in (1, 2, 3):
            mats = qsl2._rep_matrices(l)
            assert qsl2._matrix_of_element(elem, mats) == rep_matrix_of_word(word, l)


def test_defining_relations():
    """K E K^-1 = q E, K F K^-1 = q^-1 F, [E, F] = (K^2 - K^-2)/(q - q^-1)."""
    g = qsl2.generators()
    e, f, k, kinv = g["E"], g["F"], g["K"], g["K^-1"]
    assert k * e * kinv == e * qpow(1)
    assert k * f * kinv == f * qpow(-1)
    dq = qpow(1) - qpow(-1)
    cartan = PBWElement({(0, 2, 0): one / dq, (0, -2, 0): -one / dq})
    assert e * f - f * e == cartan
    assert k * kinv == g["1"]
    assert qsl2.normal_form("K E K^-1") == e * qpow(1)
    assert qsl2.normal_form("E F") == f * e + cartan


def test_negative_power_is_refused():
    """E has no inverse, so E ** -1 raises instead of returning 1."""
    g = qsl2.generators()
    assert g["E"] ** 0 == g["1"]
    assert g["K"] ** 2 == PBWElement({(0, 2, 0): one})
    for name in ("E", "K"):
        with pytest.raises(ValueError):
            g[name] ** -1


def test_normal_form_confluence():
    """Straightening a word is independent of how it is reassociated."""
    rng = random.Random(7)
    for word in random_words(10, 4, 99):
        toks = word.split()
        cut = rng.randint(0, len(toks))
        left = qsl2.normal_form(" ".join(toks[:cut]))
        right = qsl2.normal_form(" ".join(toks[cut:]))
        assert left * right == qsl2.normal_form(word)


def one_tensor():
    return UqTensor({((0, 0, 0), (0, 0, 0)): one})


def check_hopf_axioms(x):
    d = qsl2.coproduct(x)
    # counit laws
    left = PBWElement()
    right = PBWElement()
    for (l, r), v in d.terms.items():
        left = left + PBWElement({r: v * qsl2.counit(PBWElement({l: one}))})
        right = right + PBWElement({l: v * qsl2.counit(PBWElement({r: one}))})
    assert left == x and right == x
    # coassociativity
    cube = qsl2.coproduct_cube(x)
    other = {}
    for (l, r), v in d.terms.items():
        _vadd_into(other, {(l, r1, r2): w for (r1, r2), w
                           in qsl2.coproduct(PBWElement({r: one})).terms.items()}, v)
    assert cube == other
    # antipode axiom, both sides
    eps = qsl2.counit(x)
    for flip in (False, True):
        acc = PBWElement()
        for (l, r), v in d.terms.items():
            lf = qsl2.antipode(PBWElement({l: one})) if not flip else PBWElement({l: one})
            rf = PBWElement({r: one}) if not flip else qsl2.antipode(PBWElement({r: one}))
            acc = acc + PBWElement({k: v * w for k, w in qsl2.mul(lf, rf).terms.items()})
        assert acc == PBWElement({(0, 0, 0): eps})


def test_hopf_axioms_on_generators_and_random_words():
    """Counit, coassociativity and the antipode axiom hold across the algebra."""
    for name, x in qsl2.generators().items():
        check_hopf_axioms(x)
    for word in random_words(20, 4, 4711):
        check_hopf_axioms(qsl2.normal_form(word))


def test_coproduct_is_an_algebra_map():
    """Delta(x y) = Delta(x) Delta(y) on random words, and the coproduct
    respects the commutator relation: Delta([E, F]) = [Delta(E), Delta(F)]."""
    words = random_words(12, 3, 31337)
    for wx, wy in zip(words[::2], words[1::2]):
        x, y = qsl2.normal_form(wx), qsl2.normal_form(wy)
        assert qsl2.coproduct(x * y) == qsl2.tensor_mul(qsl2.coproduct(x), qsl2.coproduct(y))
    e = PBWElement({(0, 0, 1): one})
    f = PBWElement({(1, 0, 0): one})
    de, df = qsl2.coproduct(e), qsl2.coproduct(f)
    lhs = qsl2.tensor_mul(de, df) - qsl2.tensor_mul(df, de)
    assert lhs == qsl2.coproduct(qsl2.mul(e, f) - qsl2.mul(f, e))


def test_locally_finite_generators_report():
    gens, report = qsl2.locally_finite_generators()
    assert report["selected"] == "K^-2 + (q - q^-1) X0"
    assert report["central"]["K^-1 + (q - q^-1) X0"] is False
    assert report["coproduct_shape"] is True
    assert report["ad_stable"] is True
    assert report["scalar_on_dim2"] == "(q^4 + 1)/(q^3 + q)"
    assert report["casimir_ratio"] == "(q^4 - 2*q^2 + 1)/(q^3 + q)"
    assert report["grouplike"] is False
    # X+ = K^-1 E and X- = K^-1 F = q F K^-1
    assert gens["X+"] == qsl2.normal_form("K^-1 E")
    assert gens["X-"] == qsl2.normal_form("K^-1 F")
    # C commutes with every generator
    for g in qsl2.generators().values():
        assert gens["C"] * g == g * gens["C"]


def test_central_element_on_modules():
    """C acts by (q^{2(n+1)} + q^{-2(n+1)})/(q^2 + q^-2) in v-scalars."""
    gens, _ = qsl2.locally_finite_generators()
    for l in (1, 2, 3):
        cm = qsl2._matrix_of_element(gens["C"], qsl2._rep_matrices(l))
        want = (qpow(2 * (l + 1)) + qpow(-2 * (l + 1))) / (qpow(2) + qpow(-2))
        assert cm == {j: {j: want} for j in range(l + 1)}


def test_coproducts_of_the_x_generators():
    """Delta(X±) = X± (x) K^-2 + 1 (x) X±; Delta(X0) has the KE and KF tails."""
    gens, _ = qsl2.locally_finite_generators()

    def simple_tensor(x, y):
        return UqTensor({(kx, ky): vx * vy
                         for kx, vx in x.terms.items() for ky, vy in y.terms.items()})

    oneel = PBWElement({(0, 0, 0): one})
    kinv2 = PBWElement({(0, -2, 0): one})
    for name in ("X+", "X-"):
        x = gens[name]
        assert qsl2.coproduct(x) == simple_tensor(x, kinv2) + simple_tensor(oneel, x)
    qq = qpow(1) + qpow(-1)
    c1 = (one - qpow(-2)) / qq
    c2 = (qpow(2) - one) / qq
    k2 = PBWElement({(0, 2, 0): one})
    ke = qsl2.normal_form("K E")
    kf = qsl2.normal_form("K F")
    x0 = gens["X0"]
    want = (simple_tensor(x0, kinv2) + simple_tensor(k2, x0)
            + simple_tensor(ke * c1, gens["X-"]) + simple_tensor(kf * c2, gens["X+"]))
    assert qsl2.coproduct(x0) == want


def test_adjoint_action_values():
    g = qsl2.generators()
    gens, _ = qsl2.locally_finite_generators()
    assert qsl2.adjoint_action(g["K"], g["E"]) == g["E"] * qpow(1)
    qq = qpow(1) + qpow(-1)
    assert qsl2.adjoint_action(gens["X+"], gens["X-"]) == gens["X0"] * qq
    # module-algebra property on a sample: ad(E)(X+ X-) through the coproduct
    x, y = gens["X+"], gens["X-"]
    for w in ("E", "F", "K E"):
        u = qsl2.normal_form(w)
        acc = PBWElement()
        for (l, r), v in qsl2.coproduct(u).terms.items():
            piece = qsl2.mul(qsl2.adjoint_action(PBWElement({l: one}), x),
                             qsl2.adjoint_action(PBWElement({r: one}), y))
            acc = acc + PBWElement({k: v * t for k, t in piece.terms.items()})
        assert acc == qsl2.adjoint_action(u, x * y)


def test_x_basis_roundtrip_and_not_in_span():
    gens, _ = qsl2.locally_finite_generators()
    combo = gens["X+"] * qpow(2) + gens["X0"] * Q(3, 7) + PBWElement({(0, 0, 0): one})
    coords = qsl2.x_basis(combo)
    assert coords == {"X+": qpow(2), "X0": Q(3, 7) * one, "1": one}
    with pytest.raises(NotInSpan):
        qsl2.x_basis(qsl2.generators()["E"])
    with pytest.raises(NotInSpan):
        qsl2.sigma(qsl2.generators()["E"], gens["X0"])


def test_sigma_values_on_generator_pairs():
    """The recorded values of the map on the three defining pairs."""
    dq = qpow(1) - qpow(-1)
    qq = qpow(1) + qpow(-1)
    cases = [
        ("X+", "X-", {("X0", "X0"): dq * qq, ("X-", "X+"): one}),
        ("X+", "X0", {("X+", "X0"): -dq * qpow(-1), ("X0", "X+"): one}),
        ("X-", "X0", {("X-", "X0"): dq * qpow(1), ("X0", "X-"): one}),
    ]
    for left, right, want in cases:
        got = qsl2.x_basis_tensor(qsl2.sigma(left, right))
        assert got == want


def test_sigma_identity_battery():
    """x y - mu(sigma(x (x) y)) = ad(x)(y) Z closes with Z = C for the "-"
    orientation and Z = 2K^-2 - C for the "+" one, on all nine pairs."""
    rep = qsl2.sigma_identity_report()
    assert rep["-"] == {"C": True, "K^-2": False, "2K^-2 - C": False}
    assert rep["+"] == {"C": False, "K^-2": False, "2K^-2 - C": True}
    assert rep["scalar_vs_C"] == "1"
    # with the extra -yx term the identity fails, whichever orientation
    gens, _ = qsl2.locally_finite_generators()
    x, y = gens["X+"], gens["X-"]
    for variant, z in (("-", gens["C"]),
                       ("+", PBWElement({(0, -2, 0): one}) * 2 - gens["C"])):
        mu = PBWElement()
        for (l, r), v in qsl2.sigma(x, y, variant).terms.items():
            mu = mu + PBWElement({k: v * w
                                  for k, w in qsl2.mul(PBWElement({l: one}),
                                                       PBWElement({r: one})).terms.items()})
        assert x * y - y * x - mu != qsl2.adjoint_action(x, y) * z


def test_copoisson_values_on_generators():
    gens, _ = qsl2.locally_finite_generators()
    assert qsl2.copoisson_limit(gens["X+"]) == CoPoissonElem({((0, 1, 0), (0, 0, 1)): Q(1)})
    assert qsl2.copoisson_limit(gens["X-"]) == CoPoissonElem({((0, 1, 0), (1, 0, 0)): Q(1)})
    assert qsl2.copoisson_limit(gens["X+"]).pretty() == "H∧X+"
    assert qsl2.copoisson_limit(gens["X-"]).pretty() == "H∧X-"
    # the X0 value agrees with the wedge H^X0 + E^X- + F^X+ once both legs
    # are read in the same classical basis (those pairs name equal elements)
    shaped = CoPoissonElem({((0, 1, 0), (0, 1, 0)): Q(1),
                            ((0, 0, 1), (1, 0, 0)): Q(1),
                            ((1, 0, 0), (0, 0, 1)): Q(1)})
    got = qsl2.copoisson_limit(gens["X0"])
    assert got.kernel_reduced() == shaped.kernel_reduced()
    g = qsl2.generators()
    assert qsl2.copoisson_limit(g["E"]).pretty() == "H∧X+"
    assert not qsl2.copoisson_limit(g["1"])
    assert not qsl2.copoisson_limit(g["K"])


def test_signed_sum_printers_golden():
    """PBWElement.pretty, x_tensor_str and CoPoissonElem.pretty on unit and
    -1 coefficients, a non-constant QRat or Fraction coefficient, a constant
    monomial and the empty sum."""
    dq = qpow(1) - qpow(-1)
    pbw = PBWElement({(0, 0, 0): 3, (1, 0, 0): -1, (0, 1, 1): qpow(2) + one,
                      (0, 0, 2): one, (2, -1, 0): dq})
    assert pbw.pretty() == "3 + E^2 + (q^2 + 1) K E - F + (q^2 - 1)/(q) F^2 K^-1"
    assert PBWElement({(0, 0, 0): -1, (0, 0, 1): one}).pretty() == "-1 + E"
    assert PBWElement({(0, 0, 0): 1}).pretty() == "1"
    assert PBWElement({(0, 1, 0): -one, (0, 0, 1): Q(-2, 3)}).pretty() == "-2/3 E - K"
    assert PBWElement().pretty() == "0"
    decomp = {("X0", "X0"): dq, ("X-", "X+"): one, ("X+", "X-"): -one, ("1", "1"): Q(2) * one}
    assert qsl2.x_tensor_str(decomp) == "-X+⊗X- + X-⊗X+ + (q^2 - 1)/(q) X0⊗X0 + 2 1⊗1"
    assert qsl2.x_tensor_str({("X+", "X0"): -one}) == "-X+⊗X0"
    assert qsl2.x_tensor_str({}) == "0"
    cop = CoPoissonElem({((0, 1, 0), (0, 0, 1)): 1, ((1, 0, 0), (0, 0, 1)): -1,
                         ((0, 0, 1), (1, 0, 0)): Q(-3, 2), ((0, 0, 0), (0, 0, 0)): 2,
                         ((0, 2, 1), (0, 1, 0)): Q(1, 2)})
    assert cop.pretty() == "-F∧X+ + 1/2 H^2 E∧X0 + H∧X+ - 3/2 E∧X- + 2 1∧1"
    assert CoPoissonElem({((0, 1, 0), (0, 0, 1)): -1}).pretty() == "-H∧X+"
    assert CoPoissonElem().pretty() == "0"


# classical straightening for the co-Leibniz check: [E, F] = 2h, [h, E] = E,
# [h, F] = -F, monomials F^a h^b E^c over Fractions

def classical_limit(x):
    """The q = 1 image of x as {(F, h, E) exponents: Fraction}.

    Rewrites K powers through the lattice generator h = (K - 1)/(q - 1) and
    keeps the constant layer; raises NotInLattice when a pole survives.
    """
    layers = qsl2._collapse({(k, (0, 0, 0)): v for k, v in x.terms.items()}, 0)
    for order in sorted(layers):
        if order < 0 and layers[order]:
            raise NotInLattice("element has a pole at q = 1")
    return {k1: v for (k1, _), v in layers.get(0, {}).items()}


def skew_tensor(elem):
    """A CoPoissonElem as a full skew dict over h-normalized classical keys."""
    out = {}
    for (left, right), v in elem.terms.items():
        vv = v * Q(2) ** left[1]  # F^a H^b E^c = 2^b F^a h^b E^c
        _vadd_into(out, {(left, right): vv})
        _vadd_into(out, {(right, left): -vv})
    return out


def cl_lmul_E(terms):
    out = {}
    for (a, b, c), v in terms.items():
        if a == 0:
            # E h^b = (h - 1)^b E
            _vadd_into(out, {(0, i, c + 1): _binom(b, i) * Q(-1) ** (b - i)
                             for i in range(b + 1)}, v)
        else:
            _vadd_into(out, {(k[0] + 1, k[1], k[2]): w
                             for k, w in cl_lmul_E({(a - 1, b, c): Q(1)}).items()}, v)
            _vadd_into(out, {(a - 1, b + 1, c): Q(2), (a - 1, b, c): Q(-2 * (a - 1))}, v)
    return out


def cl_mul(t1, t2):
    out = {}
    for (a, b, c), v1 in t1.items():
        t = t2
        for _ in range(c):
            t = cl_lmul_E(t)
        for (a2, b2, c2), v in t.items():
            # h^b past F^a2: h F = F (h - 1)
            _vadd_into(out, {(a + a2, b2 + i, c2): _binom(b, i) * Q(-a2) ** (b - i)
                             for i in range(b + 1)}, v1 * v)
    return out


def cl_coproduct(terms):
    out = {}
    for (a, b, c), v in terms.items():
        _vadd_into(out, {((i, j, k), (a - i, b - j, c - k)):
                         _binom(a, i) * _binom(b, j) * _binom(c, k)
                         for i in range(a + 1) for j in range(b + 1) for k in range(c + 1)}, v)
    return out


def cl_tensor_mul(s, t):
    out = {}
    for (l1, r1), v1 in s.items():
        for (l2, r2), v2 in t.items():
            right = cl_mul({r1: Q(1)}, {r2: Q(1)})
            for lk, lv in cl_mul({l1: Q(1)}, {l2: Q(1)}).items():
                _vadd_into(out, {(lk, rk): rv for rk, rv in right.items()}, v1 * v2 * lv)
    return out


def test_copoisson_is_skew():
    gens, _ = qsl2.locally_finite_generators()
    for name in ("X+", "X-", "X0"):
        t = skew_tensor(qsl2.copoisson_limit(gens[name]))
        for (m1, m2), v in t.items():
            assert t.get((m2, m1)) == -v


def test_copoisson_co_leibniz():
    """delta(ab) = delta(a) D(b) + D(a) delta(b) at the classical level."""
    gens, _ = qsl2.locally_finite_generators()
    names = ("X+", "X-", "X0")
    for na in names:
        for nb in names:
            a, b = gens[na], gens[nb]
            lhs = skew_tensor(qsl2.copoisson_limit(a * b))
            da = skew_tensor(qsl2.copoisson_limit(a))
            db = skew_tensor(qsl2.copoisson_limit(b))
            ca = cl_coproduct(classical_limit(a))
            cb = cl_coproduct(classical_limit(b))
            assert lhs == _vadd_into(cl_tensor_mul(da, cb), cl_tensor_mul(ca, db))


def test_copoisson_lattice_and_nonlinearity():
    from qsym.scalars import q
    bad = PBWElement({(0, 0, 1): one / (q - one)})
    with pytest.raises(NotInLattice):
        qsl2.copoisson_limit(bad)
    # on degree-two elements the cobracket leaves the linear span: the legs
    # acquire degree-two monomials (observed, exploratory)
    gens, _ = qsl2.locally_finite_generators()
    d = qsl2.copoisson_limit(gens["X+"] * gens["X+"])
    assert any(sum(m1) >= 2 or sum(m2) >= 2 for (m1, m2) in d.terms)


def test_donin_graded_relations_and_poisson_table():
    relations, table = qsl2.donin_graded_relations()
    assert [rel["pair"] for rel in relations] == [("X+", "X-"), ("X+", "X0"), ("X-", "X0")]
    by_pair = {rel["pair"]: rel for rel in relations}
    qq = qpow(1) + qpow(-1)
    assert by_pair[("X+", "X-")]["lower"] == {"X0": qq}
    assert by_pair[("X+", "X0")]["lower"] == {"X+": -qpow(-1)}
    assert by_pair[("X-", "X0")]["lower"] == {"X-": qpow(1)}
    # basis order (X+, X-, X0); values are -2 times the classical brackets
    # {X+, X-} = 2 X0^2, {X+, X0} = -X+ X0, {X-, X0} = X- X0
    recorded = {(0, 1): {(2, 2): Q(2)}, (0, 2): {(0, 2): Q(-1)}, (1, 2): {(1, 2): Q(1)}}
    want = {pair: {m: Q(-2) * c for m, c in poly.items()} for pair, poly in recorded.items()}
    assert table.table == want
    assert jacobi_oracle(table) is True


def test_braided_flatness_dimensions():
    flat1 = qsl2.braided_flatness(1)
    assert (flat1["dim_S2"], flat1["dim_L2"], flat1["dim_S3"]) == (3, 1, 4)
    assert flat1["flat_through_degree"] == 3
    flat2 = qsl2.braided_flatness(2)
    assert (flat2["dim_S2"], flat2["dim_L2"], flat2["dim_S3"]) == (6, 3, 10)
    assert flat2["flat_through_degree"] == 3
    flat3 = qsl2.braided_flatness(3)
    assert (flat3["dim_S2"], flat3["dim_L2"]) == (10, 6)
    assert flat3["dim_S3"] == 16
    assert flat3["dim_S3"] != flat3["classical_dims"]["S3"]
    assert flat3["flat_through_degree"] == 2
    flat4 = qsl2.braided_flatness(4)
    assert (flat4["dim_S2"], flat4["dim_L2"], flat4["dim_S3"]) == (15, 10, 28)
    assert flat4["flat_through_degree"] == 2
    flat5 = qsl2.braided_flatness(5)
    assert (flat5["dim_S2"], flat5["dim_L2"], flat5["dim_S3"]) == (21, 15, 36)
    assert flat5["flat_through_degree"] == 2
    with pytest.raises(ValueError):
        qsl2.braided_flatness(0)
    with pytest.raises(ValueError):
        qsl2.braided_flatness(1, max_degree=4)
    # l and max_degree are ints: True ran l = 1, 2.0 raised a bare TypeError
    # and max_degree=2.0 was accepted
    for args, kwargs in [((True,), {}), ((2.0,), {}), ((2,), {"max_degree": 2.0}),
                         ((2,), {"max_degree": True})]:
        with pytest.raises(ValueError, match="must be ints"):
            qsl2.braided_flatness(*args, **kwargs)


def test_exponents_are_ascii_integers():
    """An exponent of a PBW word is read by the one int reader: E^٢ read E^2
    and E^ leaked int()'s own message."""
    assert qsl2.normal_form("E^+2") == qsl2.normal_form("E^2")
    for word in ["E^\u0662", "E^", "E^ 2", "F^1_0", "K^-\u0661"]:
        with pytest.raises(ValueError, match="exponent must be an integer"):
            qsl2.normal_form(word)


def test_braided_eigenvalue_structure():
    """The square decomposes into components of dims 2n+1 with alternating
    signs, so dim S2 and dim L2 match the classical sign bookkeeping."""
    for l in (1, 2, 3, 4):
        flat = qsl2.braided_flatness(l, max_degree=2)
        s2 = sum(2 * n + 1 for n in range(l, -1, -1) if (l - n) % 2 == 0)
        l2 = sum(2 * n + 1 for n in range(l, -1, -1) if (l - n) % 2 == 1)
        assert flat["dim_S2"] == s2
        assert flat["dim_L2"] == l2


def test_commutor_involution_equivariance_and_classical_limit():
    for l in (1, 2, 3):
        s = qsl2.commutor_matrix(l)
        n = l + 1
        assert _mcompose(s, s) == identity(n * n)
        for m in qsl2._pair_action(l):
            assert _mcompose(s, m) == _mcompose(m, s)
        for j in range(n * n):
            for i in range(n * n):
                want = Q(1) if (j // n, j % n) == (i % n, i // n) else Q(0)
                assert s.get(j, {}).get(i, zero).eval(1) == want


def test_pair_and_leg_embeddings_coerce_no_scalar(monkeypatch):
    """_pair_matrix on Delta(E) and leg_embed on the commutor, both at l = 3,
    multiply and add QRat by QRat only: no int or Fraction is coerced."""
    sigma = qsl2.commutor_matrix(3)
    original = QRat.of
    coerced = []

    def counting(value):
        if not isinstance(value, QRat):
            coerced.append(value)
        return original(value)

    monkeypatch.setattr(QRat, "of", staticmethod(counting))
    delta_e = qsl2._pair_action(3)[0]
    cubes = [leg_embed(sigma, 4, legs) for legs in ((0, 1), (1, 2))]
    assert coerced == []
    assert delta_e and all(len(c) == 4 * len(sigma) for c in cubes)
    for m in [delta_e] + cubes:
        assert all(type(v) is QRat for col in m.values() for v in col.values())


# -- the weight-block routes that the highest-weight ones replaced ------------

def _shifted(m, c, idxs):
    """m - c * identity on the basis vectors idxs."""
    return _mscaled_sum([(None, m), (-c, {j: {j: one} for j in idxs})])


def _ref_commutor(l):
    """The commutor by one projector per component: on each weight block,
    sign_n times the product over the other components k of
    (C - c_k) / (c_n - c_k), c_n the scalar of C on V_n; m(m - 1) block
    products on a block of size m."""
    gens, _ = qsl2.locally_finite_generators()
    cmat = qsl2._matrix_of_element(gens["C"], qsl2._pair_action(l))

    def casimir(n):
        return (qpow(2 * (n + 1)) + qpow(-2 * (n + 1))) / (qpow(2) + qpow(-2))

    pairs = []
    for s, idxs in enumerate(qsl2._weight_blocks(l, 2)):
        block = {j: cmat[j] for j in idxs if j in cmat}
        comps = list(range(2 * l, abs(2 * l - 2 * s) - 1, -2))
        for idx, n in enumerate(comps):
            proj = {j: {j: one} for j in idxs}
            scale = one
            for k in comps:
                if k != n:
                    proj = _mcompose(proj, _shifted(block, casimir(k), idxs))
                    scale = scale * (casimir(n) - casimir(k))
            pairs.append(((one if idx % 2 == 0 else -one) / scale, proj))
    return _mscaled_sum(pairs)


def _ref_kernel_dim(ops, blocks):
    """dim of the joint kernel of column-form operators that each map the
    span of every block into itself, by one elimination per whole block."""
    total = 0
    for idxs in blocks:
        pos = {j: p for p, j in enumerate(idxs)}
        rows = []
        for op in ops:
            block_rows = {}
            for j in idxs:
                for i, v in op.get(j, {}).items():
                    block_rows.setdefault(i, [zero] * len(idxs))[pos[j]] = v
            rows.extend(block_rows[i] for i in sorted(block_rows))
        total += len(idxs) - len(echelon(rows, len(idxs)))
    return total


def _ref_braided_dims(l):
    """(dim S2, dim L2, dim S3) on whole weight blocks, from _ref_commutor."""
    sigma = _ref_commutor(l)
    n = l + 1
    square = qsl2._weight_blocks(l, 2)
    cube_ops = [_shifted(leg_embed(sigma, n, legs), one, range(n ** 3))
                for legs in ((0, 1), (1, 2))]
    return (_ref_kernel_dim([_shifted(sigma, one, range(n * n))], square),
            _ref_kernel_dim([_shifted(sigma, -one, range(n * n))], square),
            _ref_kernel_dim(cube_ops, qsl2._weight_blocks(l, 3)))


def test_commutor_and_dimensions_match_the_weight_block_routes():
    """The commutor as one polynomial in the Casimir equals the sum of signed
    projectors entry for entry, and the dimensions counted on highest weight
    vectors equal the joint kernels on whole weight blocks, for l <= 4."""
    for l in (1, 2, 3, 4):
        assert qsl2.commutor_matrix(l) == _ref_commutor(l), l
        flat = qsl2.braided_flatness(l)
        assert (flat["dim_S2"], flat["dim_L2"], flat["dim_S3"]) == _ref_braided_dims(l), l


def test_cube_action_and_the_braidings_commute():
    """The premise of the highest-weight count: Delta^(2) of E, F, K and K^-1,
    read off coproduct_cube, satisfy [E, F] = (K^2 - K^-2)/(q - q^-1) and
    K K^-1 = 1 on V^(x)3, and sigma_12 and sigma_23 commute with all four,
    for l <= 3."""
    for l in (1, 2, 3):
        n = l + 1
        e, f, k, kinv = (qsl2._cube_action(l, key) for key in qsl2._GENERATOR_KEYS)
        ef = _mscaled_sum([(None, _mcompose(e, f)), (-one, _mcompose(f, e))])
        ksq = _mscaled_sum([(None, _mcompose(k, k)), (-one, _mcompose(kinv, kinv))])
        # q = v^2 in the module scalars
        assert ef == _mscaled_sum([(one / (qpow(2) - qpow(-2)), ksq)]), l
        assert _mcompose(k, kinv) == identity(n ** 3), l
        sigma = qsl2.commutor_matrix(l)
        for legs in ((0, 1), (1, 2)):
            braid = leg_embed(sigma, n, legs)
            for op in (e, f, k, kinv):
                assert _mcompose(braid, op) == _mcompose(op, braid), (l, legs)


def test_highest_weight_bases():
    """Each basis of H_w = ker Delta^(d-1)(E) on a weight block of V^(x)d,
    d = 2, 3, is killed by Delta^(d-1)(E), has |block(s)| - |block(s - 1)|
    vectors (the multiplicity of V_w), each 1 at its head and 0 at the other
    heads, for l <= 3."""
    for l in (1, 2, 3):
        for degree, e_op in ((2, qsl2._pair_action(l)[0]), (3, qsl2._cube_action(l, (0, 0, 1)))):
            blocks = qsl2._weight_blocks(l, degree)
            for s in range(degree * l // 2 + 1):
                heads, basis = qsl2._highest_weight_basis(e_op, blocks, s)
                below = len(blocks[s - 1]) if s else 0
                assert len(heads) == len(basis) == len(blocks[s]) - below, (l, degree, s)
                for head, vec in zip(heads, basis):
                    assert set(vec) <= set(blocks[s])
                    assert [vec.get(h, zero) for h in heads] == [
                        one if h == head else zero for h in heads]
                    assert _mapply(e_op, vec) == {}, (l, degree, s)


def test_braided_work_is_bounded_by_the_highest_weight_spaces(monkeypatch):
    """A work count with no timing in it, at l = 5. Every rank elimination of
    braided_flatness has at most l + 1 columns: per weight w >= 0, one
    kernel echelon on the block and one rank echelon per system on the
    m = |block(s)| - |block(s - 1)| highest weight vectors (two on the square,
    S2 and L2, one on the cube). commutor_matrix makes exactly sum (m - 1)
    block _mcompose calls over the blocks of the square beyond those of
    _matrix_of_element."""
    l = 5
    qsl2.locally_finite_generators()
    widths, composed, inside = [], [], []
    real_echelon, real_compose = qsl2.echelon, qsl2._mcompose
    real_element = qsl2._matrix_of_element

    def counting_echelon(rows, ncols):
        widths.append(ncols)
        return real_echelon(rows, ncols)

    def counting_compose(a, b):
        composed.append(1)
        return real_compose(a, b)

    def counting_element(elem, mats):
        start = len(composed)
        out = real_element(elem, mats)
        inside.append(len(composed) - start)
        return out

    monkeypatch.setattr(qsl2, "echelon", counting_echelon)
    monkeypatch.setattr(qsl2, "_mcompose", counting_compose)
    monkeypatch.setattr(qsl2, "_matrix_of_element", counting_element)
    qsl2.commutor_matrix(l)
    square = qsl2._weight_blocks(l, 2)
    assert len(composed) - sum(inside) == sum(len(b) - 1 for b in square) == 25
    assert widths == []

    qsl2.braided_flatness(l)
    want = []
    for degree, systems in ((2, 2), (3, 1)):
        blocks = qsl2._weight_blocks(l, degree)
        for s in range(degree * l // 2 + 1):
            m = len(blocks[s]) - (len(blocks[s - 1]) if s else 0)
            assert m <= l + 1
            want += [len(blocks[s])] + [m] * systems
    assert widths == want


# -- the route braided_flatness takes: shifts of D = (q + q^-1) Delta(C) -------

def _casimir_square(l):
    """D = (q + q^-1) Delta(C) on V (x) V, as braided_flatness builds it."""
    c_elem, _, _ = qsl2._central_element()
    return qsl2._matrix_of_element(c_elem * (qpow(1) + qpow(-1)), qsl2._pair_action(l))


def test_casimir_commutes_with_the_square_and_cube_actions():
    """D commutes with Delta(E), Delta(F), Delta(K) and Delta(K^-1) on the
    square, and D_12 = D (x) 1 and D_23 = 1 (x) D commute with the four
    operators of _cube_action, for l <= 3."""
    for l in (1, 2, 3):
        dmat = _casimir_square(l)
        for op in qsl2._pair_action(l):
            assert _mcompose(dmat, op) == _mcompose(op, dmat), l
        cube = [qsl2._cube_action(l, key) for key in qsl2._GENERATOR_KEYS]
        for legs in ((0, 1), (1, 2)):
            d_legs = leg_embed(dmat, l + 1, legs)
            for op in cube:
                assert _mcompose(d_legs, op) == _mcompose(op, d_legs), (l, legs)


def test_casimir_is_d_w_on_each_highest_weight_space_of_the_square():
    """V_l (x) V_l holds each V_w once, so H_w is a line, and D h = d_w h
    there with d_w = v^(2w+2) + v^-(2w+2), for l <= 4."""
    for l in (1, 2, 3, 4):
        dmat = _casimir_square(l)
        e_op = qsl2._pair_action(l)[0]
        blocks = qsl2._weight_blocks(l, 2)
        for s in range(l + 1):
            w = 2 * l - 2 * s
            d_w = qpow(2 * w + 2) + qpow(-2 * w - 2)
            _, basis = qsl2._highest_weight_basis(e_op, blocks, s)
            assert len(basis) == 1, (l, w)
            assert _mapply(dmat, basis[0]) == {j: d_w * x for j, x in basis[0].items()}, (l, w)


def test_cube_casimirs_on_heads_take_only_the_clebsch_gordan_eigenvalues():
    """On each H_w of the cube, D_12 and D_23 map every basis vector to the
    combination of the basis that _on_heads reads at the heads, and that
    m x m block is killed by the product of x - d_n over the n with
    |n - l| <= w <= n + l, which are m in number: the shifts braided_flatness
    drops are invertible on H_w. For l <= 4."""
    for l in (1, 2, 3, 4):
        dmat = _casimir_square(l)
        ops = [leg_embed(dmat, l + 1, legs) for legs in ((0, 1), (1, 2))]
        e_op = qsl2._cube_action(l, (0, 0, 1))
        blocks = qsl2._weight_blocks(l, 3)
        for s in range(3 * l // 2 + 1):
            w = 3 * l - 2 * s
            heads, basis = qsl2._highest_weight_basis(e_op, blocks, s)
            comps = [n for n in range(0, 2 * l + 1, 2) if abs(n - l) <= w <= n + l]
            assert len(comps) == len(basis), (l, w)
            shifts = [qpow(2 * n + 2) + qpow(-2 * n - 2) for n in comps]
            for op in ops:
                block = qsl2._on_heads(op, heads, basis)
                for b, h in enumerate(basis):
                    image = {}
                    for a, v in block.get(b, {}).items():
                        _vadd_into(image, basis[a], v)
                    assert _mapply(op, h) == image, (l, w, b)
                assert qsl2._shifted_product(block, shifts, len(basis)) == {}, (l, w)


def test_braided_flatness_reads_neither_the_commutor_nor_the_report(monkeypatch):
    """braided_flatness takes C from _central_element and forms no braiding:
    with _compute_locally_finite and commutor_matrix patched to raise, it
    gives the recorded dimensions for l <= 3."""
    def refused(*args):
        raise AssertionError("braided_flatness read the commutor or the report")

    monkeypatch.setattr(qsl2, "_compute_locally_finite", refused)
    monkeypatch.setattr(qsl2, "commutor_matrix", refused)
    got = [(f["dim_S2"], f["dim_L2"], f["dim_S3"], f["flat_through_degree"])
           for f in map(qsl2.braided_flatness, (1, 2, 3))]
    assert got == [(3, 1, 4, 3), (6, 3, 10, 3), (10, 6, 16, 2)]


def test_dimensions_match_the_weight_block_route_at_l5():
    """At l = 5, where the cube's H_w reach m = 6, the count on shifts of D
    equals the joint kernels of the commutor's legs on whole weight blocks."""
    flat = qsl2.braided_flatness(5)
    assert (flat["dim_S2"], flat["dim_L2"], flat["dim_S3"]) == _ref_braided_dims(5)
