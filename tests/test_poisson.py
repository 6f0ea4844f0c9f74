"""Schouten criterion, Poisson bracket tables, and the Jacobi oracle."""

from fractions import Fraction as Q
from itertools import product

import pytest

from qsym import poisson
from qsym.rootsys import build_root_system, weyl_dim
from qsym.liealg import (chevalley_basis, highest_weight_module, shared_type, tt_skew,
                         _mcompose, _mscaled_sum, _vadd_into)
from qsym.scalars import den_lcm
from qsym.bialg import (
    BDTriple,
    _cybe_tensor,
    _is_invariant,
    bd_r_matrix,
    enumerate_bd_triples,
    standard_r,
    tt_op,
)
from qsym.poisson import (
    BracketTable,
    _check_flip_skew,
    _pair_matrix,
    generator_brackets,
    jacobi_oracle,
    leg_embed,
    r_minus_operator,
    schouten_criterion,
    schouten_promoted,
    schouten_square,
)


def _comm(a, b):
    return _mscaled_sum([(Q(1), _mcompose(a, b)), (Q(-1), _mcompose(b, a))])


def _promoted(alg, r, mod):
    """The sweep's verdict for r on a built module, as classify_pair calls it."""
    return schouten_promoted(_cybe_tensor(alg, tt_skew(r))[1], mod)


def test_r_minus_operator_natural_module():
    """On C^2 the only action is v1(x)v2 <-> v2(x)v1 with weight -+1/2."""
    sl2 = chevalley_basis(build_root_system("A1"))
    op = r_minus_operator(standard_r(sl2), highest_weight_module(sl2, (1,)))
    assert op == {1: {2: Q(-1, 2)}, 2: {1: Q(1, 2)}}


def test_r_minus_operator_symmetric_part_drops(monkeypatch):
    """A symmetric r gives the zero operator; a matrix that is not flip-skew
    fails the check, which r_minus_operator runs on its own result."""
    sl2 = chevalley_basis(build_root_system("A1"))
    e, h, f = sl2.e_idx[(1,)], sl2.h_idx[0], sl2.f_idx[(1,)]
    sym = {(e, f): Q(1), (f, e): Q(1), (h, h): Q(2)}
    assert r_minus_operator(sym, highest_weight_module(sl2, (2,))) == {}
    with pytest.raises(ValueError):
        _check_flip_skew({1: {1: Q(1)}}, 2)
    # with the skew part bypassed, rho(E) (x) rho(H) reaches the check
    monkeypatch.setattr(poisson, "tt_skew", dict)
    with pytest.raises(ValueError, match="flip-skew"):
        r_minus_operator({(e, h): Q(1)}, highest_weight_module(sl2, (1,)))


def test_r_minus_operator_dim4_matches_direct_expansion():
    """The 16x16 operator equals the hand expansion (E(x)F - F(x)E)/2."""
    sl2 = chevalley_basis(build_root_system("A1"))
    mod = highest_weight_module(sl2, (3,))
    op = r_minus_operator(standard_r(sl2), mod)
    mats = mod.fractions()
    e_mat, f_mat = mats[sl2.e_idx[(1,)]], mats[sl2.f_idx[(1,)]]
    # expand the two terms explicitly over the 4-dim basis
    expect = {}
    dim = 4
    for a in range(dim):
        for b in range(dim):
            acc = {}
            for ra, va in e_mat.get(a, {}).items():
                for rb, vb in f_mat.get(b, {}).items():
                    acc[ra * dim + rb] = acc.get(ra * dim + rb, Q(0)) + va * vb / 2
            for ra, va in f_mat.get(a, {}).items():
                for rb, vb in e_mat.get(b, {}).items():
                    acc[ra * dim + rb] = acc.get(ra * dim + rb, Q(0)) - va * vb / 2
            acc = {k: v for k, v in acc.items() if v}
            if acc:
                expect[a * dim + b] = acc
    assert op == expect


def test_schouten_square_examples():
    """Zero in, zero out; dim 2 is vacuous; dim 4 fails on Lambda^3."""
    sl2 = chevalley_basis(build_root_system("A1"))
    r = standard_r(sl2)
    assert schouten_square({}, 3) == {}
    assert schouten_criterion({}, 3) is True
    for lam, want in [((1,), True), ((3,), False)]:
        mod = highest_weight_module(sl2, lam)
        assert schouten_criterion(r_minus_operator(r, mod), mod.dim) is want


def test_schouten_modes_match_jacobi_oracle():
    """The int verdict on [[r-, r-]], the operator commutators on V^(x)3 and
    the Leibniz Jacobi oracle agree, on passing and failing modules."""
    cases = [("A1", (1,)), ("A1", (2,)), ("A1", (3,)), ("A1", (4,)),
             ("A2", (1, 0)), ("A2", (1, 1)), ("A2", (0, 2))]
    seen = set()
    for label, lam in cases:
        alg = chevalley_basis(build_root_system(label))
        r = standard_r(alg)
        mod = highest_weight_module(alg, lam)
        promoted = _promoted(alg, r, mod)
        matrix = schouten_criterion(r_minus_operator(r, mod), mod.dim)
        jac = jacobi_oracle(generator_brackets(r, mod))
        assert promoted == matrix == jac, (label, lam)
        seen.add(promoted)
    assert seen == {True, False}


def test_generator_brackets_quantum_plane():
    """{v1, v2} = -(1/2) v1 v2 on the natural sl2 module."""
    sl2 = chevalley_basis(build_root_system("A1"))
    B = generator_brackets(standard_r(sl2), highest_weight_module(sl2, (1,)))
    assert {k: Q(v, B.den) for k, v in B.bracket_idx(1, 0).items()} == {(0, 1): Q(1, 2)}
    assert B.fractions() == {(0, 1): {(0, 1): Q(-1, 2)}}


def test_generator_brackets_2x2_matrix_entries():
    """sl2 x sl2 on C^2 (x) C^2 gives the semiclassical 2x2 matrix brackets."""
    alg = chevalley_basis(build_root_system("A1xA1"))
    mod = highest_weight_module(alg, (1, 1))
    B = generator_brackets(standard_r(alg), mod)
    by_weight = {mod.weights[k]: k for k in range(mod.dim)}
    x11 = by_weight[(1, 1)]
    x21 = by_weight[(-1, 1)]
    x12 = by_weight[(1, -1)]
    x22 = by_weight[(-1, -1)]

    def bracket(i, j):
        return {k: Q(v, B.den) for k, v in B.bracket_idx(i, j).items()}

    assert bracket(x11, x12) == {tuple(sorted((x11, x12))): Q(-1, 2)}
    assert bracket(x11, x21) == {tuple(sorted((x11, x21))): Q(-1, 2)}
    assert bracket(x11, x22) == {tuple(sorted((x12, x21))): Q(-1)}
    assert bracket(x12, x21) == {}


def test_generator_brackets_symmetric_r_all_zero():
    sl2 = chevalley_basis(build_root_system("A1"))
    e, f = sl2.e_idx[(1,)], sl2.f_idx[(1,)]
    B = generator_brackets({(e, f): Q(1), (f, e): Q(1)}, highest_weight_module(sl2, (2,)))
    assert B.table == {}
    assert jacobi_oracle(B)


def test_jacobi_oracle_examples():
    """Adjoint-module brackets satisfy Jacobi; the dim-4 module breaks it."""
    sl2 = chevalley_basis(build_root_system("A1"))
    r = standard_r(sl2)
    assert jacobi_oracle(generator_brackets(r, highest_weight_module(sl2, (2,))))
    assert not jacobi_oracle(generator_brackets(r, highest_weight_module(sl2, (3,))))
    assert jacobi_oracle(BracketTable(3, {}))


def test_generator_brackets_are_built_on_first_read():
    """The table starts empty, is over ints with a positive den, and a
    failing Jacobi verdict reads fewer pairs than there are."""
    sl2 = chevalley_basis(build_root_system("A1"))
    B = generator_brackets(standard_r(sl2), highest_weight_module(sl2, (3,)))
    assert B.table == {} and B.den > 0
    assert jacobi_oracle(B) is False
    assert 0 < len(B.table) < B.dim * (B.dim - 1) // 2
    assert all(type(v) is int for poly in B.table.values() for v in poly.values())


def test_half_casimir_commutators_equal_schouten_square():
    """[c12,c23] = [c23,c13] = [c13,c12] = [[r-,r-]] with c = (r+r^op)/2."""
    for label, lams in [("A1", [(1,), (2,), (3,)]), ("A2", [(1, 0), (1, 1)])]:
        alg = chevalley_basis(build_root_system(label))
        r = standard_r(alg)
        c = {k: v / 2 for k, v in _vadd_into(_vadd_into({}, r), tt_op(r)).items()}
        for lam in lams:
            mod = highest_weight_module(alg, lam)
            d = mod.dim
            cop = _pair_matrix(mod.fractions(), d, c)
            c12 = leg_embed(cop, d, (0, 1))
            c13 = leg_embed(cop, d, (0, 2))
            c23 = leg_embed(cop, d, (1, 2))
            sq = schouten_square(r_minus_operator(r, mod), d)
            assert _comm(c12, c23) == sq, (label, lam)
            assert _comm(c23, c13) == sq, (label, lam)
            assert _comm(c13, c12) == sq, (label, lam)


def test_schouten_square_is_flip_skew_and_equivariant():
    """[[r-,r-]] changes sign under leg flips and commutes with the diagonal
    action, abstractly and on a module."""
    for label in ["A1", "A2"]:
        alg = chevalley_basis(build_root_system(label))
        t = _cybe_tensor(alg, tt_skew(standard_r(alg)))[1]
        assert t
        assert {(y, x, z): v for (x, y, z), v in t.items()} == \
            {k: -v for k, v in t.items()}
        assert {(x, z, y): v for (x, y, z), v in t.items()} == \
            {k: -v for k, v in t.items()}
        for w in range(alg.dim):
            acc = {}
            for (x, y, z), v in t.items():
                for k, c in alg.bracket_idx(w, x).items():
                    acc[(k, y, z)] = acc.get((k, y, z), Q(0)) + v * c
                for k, c in alg.bracket_idx(w, y).items():
                    acc[(x, k, z)] = acc.get((x, k, z), Q(0)) + v * c
                for k, c in alg.bracket_idx(w, z).items():
                    acc[(x, y, k)] = acc.get((x, y, k), Q(0)) + v * c
            assert not any(acc.values()), (label, alg.names[w])

    sl2 = chevalley_basis(build_root_system("A1"))
    mod = highest_weight_module(sl2, (2,))
    d, mats = mod.dim, mod.fractions()
    sq = schouten_square(r_minus_operator(standard_r(sl2), mod), d)
    for x in range(sl2.dim):
        diag = {}
        for a in range(d):
            for b in range(d):
                for c in range(d):
                    col = (a * d + b) * d + c
                    acc = {}
                    for ra, v in mats[x].get(a, {}).items():
                        acc[(ra * d + b) * d + c] = acc.get((ra * d + b) * d + c, Q(0)) + v
                    for rb, v in mats[x].get(b, {}).items():
                        acc[(a * d + rb) * d + c] = acc.get((a * d + rb) * d + c, Q(0)) + v
                    for rc, v in mats[x].get(c, {}).items():
                        acc[(a * d + b) * d + rc] = acc.get((a * d + b) * d + rc, Q(0)) + v
                    acc = {k: v for k, v in acc.items() if v}
                    if acc:
                        diag[col] = acc
        assert _comm(diag, sq) == {}, sl2.names[x]


def _denominators(values):
    return {v.denominator for v in values}


def test_promoted_verdict_matches_full_report():
    """The int kernel of schouten_promoted agrees with the Fraction reference,
    on passing and failing rows, half-integer module matrices, a BD r-matrix
    with denominators up to 8, and zero operators."""
    cases = [
        ("A1", (1,), True),
        ("A1", (2,), True),
        ("A1", (3,), False),
        ("A2", (1, 0), True),
        ("A2", (1, 1), False),
        ("C2", (0, 1), True),
        ("G2", (1, 0), False),
        ("B3", (0, 0, 1), False),
        ("C3", (0, 1, 0), False),
    ]
    halves = set()
    for label, lam, want in cases:
        alg = chevalley_basis(build_root_system(label))
        mod = highest_weight_module(alg, lam)
        if 2 in _denominators(v for m in mod.fractions() for col in m.values()
                              for v in col.values()):
            halves.add(label)
        r = standard_r(alg)
        fast = _promoted(alg, r, mod)
        assert fast == schouten_criterion(r_minus_operator(r, mod), mod.dim) == want, \
            (label, lam)
    # the scaling is exercised: these modules act with halves
    assert {"C2", "G2"} <= halves

    a3 = chevalley_basis(build_root_system("A3"))
    r_bd, _ = bd_r_matrix(a3, BDTriple((1, 2), (2, 3), {1: 2, 2: 3}))
    assert 8 in _denominators(r_bd.values())
    for lam, want in [((2, 0, 0), True), ((1, 0, 1), False)]:
        mod = highest_weight_module(a3, lam)
        op = r_minus_operator(r_bd, mod)
        assert _promoted(a3, r_bd, mod) == schouten_criterion(op, mod.dim) == want, lam

    sl2 = chevalley_basis(build_root_system("A1"))
    e, h, f = sl2.e_idx[(1,)], sl2.h_idx[0], sl2.f_idx[(1,)]
    sym = {(e, f): Q(1), (f, e): Q(1), (h, h): Q(2)}
    assert schouten_criterion({}, 3) is True
    for r, lam in [(sym, (3,)), ({}, (2,))]:
        mod = highest_weight_module(sl2, lam)
        op = r_minus_operator(r, mod)
        assert op == {}
        assert _promoted(sl2, r, mod) is True
        assert schouten_criterion(op, mod.dim) is True


# (type, weight) pairs of rank <= 3 with Weyl dimension <= 15; B2 is C2
_SMALL_TYPES = ["A1", "A2", "A3", "B3", "C2", "C3", "G2"]


def _small_weights(label):
    rs = build_root_system(label)
    return [lam for lam in product(range(4), repeat=rs.rank)
            if any(lam) and weyl_dim(rs, lam) <= 15]


def test_schouten_equals_jacobi_property():
    """For random small (type, weight, r): the int-kernel verdict, the Jacobi
    oracle on the bracket table and the Fraction Schouten criterion agree.
    r is the standard r-matrix (None below) or the r-matrix of a BD triple
    drawn from enumerate_bd_triples of the drawn type."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    weights = {label: _small_weights(label) for label in _SMALL_TYPES}
    triples = {label: [None] + enumerate_bd_triples(build_root_system(label))
               for label in _SMALL_TYPES}
    cases = st.sampled_from(_SMALL_TYPES).flatmap(
        lambda label: st.tuples(st.just(label), st.sampled_from(weights[label]),
                                st.sampled_from(triples[label])))
    seen = set()

    @hypothesis.settings(max_examples=25, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(cases)
    def check(case):
        label, lam, triple = case
        alg = chevalley_basis(build_root_system(label))
        mod = highest_weight_module(alg, lam)
        r = standard_r(alg) if triple is None else bd_r_matrix(alg, triple)[0]
        fast = _promoted(alg, r, mod)
        assert fast == jacobi_oracle(generator_brackets(r, mod)), case
        assert fast == schouten_criterion(r_minus_operator(r, mod), mod.dim), case
        seen.add(-1 if triple is None else len(triple.delta1))

    check()
    # the draws include the standard r and a triple with a non-empty delta1
    assert -1 in seen and max(seen) > 0


def test_jacobi_on_the_int_table_equals_jacobi_on_fractions_property():
    """Jacobi on the scaled int table equals Jacobi on the plain Fraction
    table of every pair divided by its den: the sum is quadratic in the
    bracket, and the oracle runs over either ring. Random small (type,
    weight, r), r the standard r-matrix (None) or a BD triple's."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    weights = {label: _small_weights(label) for label in _SMALL_TYPES}
    triples = {label: [None] + enumerate_bd_triples(build_root_system(label))
               for label in _SMALL_TYPES}
    cases = st.sampled_from(_SMALL_TYPES).flatmap(
        lambda label: st.tuples(st.just(label), st.sampled_from(weights[label]),
                                st.sampled_from(triples[label])))
    seen = set()

    @hypothesis.settings(max_examples=25, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(cases)
    def check(case):
        label, lam, triple = case
        alg = chevalley_basis(build_root_system(label))
        mod = highest_weight_module(alg, lam)
        r = standard_r(alg) if triple is None else bd_r_matrix(alg, triple)[0]
        B = generator_brackets(r, mod)
        plain = {}
        for i in range(mod.dim):
            for j in range(i + 1, mod.dim):
                poly = {k: Q(v, B.den) for k, v in B.bracket_idx(i, j).items()}
                if poly:
                    plain[(i, j)] = poly
        verdict = jacobi_oracle(generator_brackets(r, mod))
        assert verdict == jacobi_oracle(BracketTable(mod.dim, plain)), case
        seen.add(verdict)

    check()
    assert seen == {True, False}


def _brackets_off_operator(op, dim):
    """{v_i, v_j} for every i != j, read off column (i, j) of a pair operator
    into sorted monomials of S^2 V: the reference for generator_brackets,
    written out here on the whole operator, both orders of every pair."""
    out = {}
    for i in range(dim):
        for j in range(dim):
            if i != j:
                poly = {}
                for row, v in op.get(i * dim + j, {}).items():
                    a, b = divmod(row, dim)
                    key = (min(a, b), max(a, b))
                    poly[key] = poly.get(key, Q(0)) + v
                out[(i, j)] = {k: v for k, v in poly.items() if v}
    return out


def test_generator_brackets_equal_the_flip_skew_operator():
    """The bracket table summed from the columns i < j equals the one read
    off the flip-skew-verified r_minus_operator, in both orders of every
    pair: on every small (type, weight), under the standard r and, where the
    type has one, the r-matrix of a BD triple with a non-empty delta1."""
    bd_types = set()
    for label in _SMALL_TYPES:
        alg = chevalley_basis(build_root_system(label))
        r_matrices = [standard_r(alg)]
        triple = next((t for t in enumerate_bd_triples(alg.rs) if t.delta1), None)
        if triple is not None:
            r_matrices.append(bd_r_matrix(alg, triple)[0])
            bd_types.add(label)
        for lam in _small_weights(label):
            mod = highest_weight_module(alg, lam)
            for r in r_matrices:
                B = generator_brackets(r, mod)
                ref = _brackets_off_operator(r_minus_operator(r, mod), mod.dim)
                for (i, j), poly in ref.items():
                    got = {k: Q(v, B.den) for k, v in B.bracket_idx(i, j).items()}
                    assert got == poly, (label, lam, i, j)
                # every pair is read now, so the table is whole, over its den
                assert B.fractions() == {(i, j): poly for (i, j), poly in ref.items()
                                         if i < j}, (label, lam)
    assert {"A2", "A3", "B3", "C3"} <= bd_types


_S3 = [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
       ((1, 0, 2), -1), ((2, 1, 0), -1), ((0, 2, 1), -1)]


def _totally_antisymmetric(t):
    """Every ordering of every term carries the sign of its permutation."""
    return all(t.get(tuple(key[p] for p in perm), Q(0)) == sign * v
               for key, v in t.items() for perm, sign in _S3)


def test_schouten_tensor_is_totally_antisymmetric_property():
    """[[r-, r-]] of a skew r- lies in Lambda^3 g, the premise of the one
    ordering schouten_promoted applies: for the standard r on random rank <= 3
    types, and for every BD triple of A3."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=10, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.sampled_from(_SMALL_TYPES + ["A2xA1", "A1xA1xA1"]))
    def check(label):
        alg = chevalley_basis(build_root_system(label))
        t = _cybe_tensor(alg, tt_skew(standard_r(alg)))[1]
        assert t and _totally_antisymmetric(t), label

    check()
    a3 = chevalley_basis(build_root_system("A3"))
    triples = enumerate_bd_triples(a3.rs)
    assert len(triples) == 9
    for triple in triples:
        r, _ = bd_r_matrix(a3, triple)
        t = _cybe_tensor(a3, tt_skew(r))[1]
        assert t and _totally_antisymmetric(t), triple


def test_schouten_promoted_refuses_a_source_that_is_not_skew():
    """E (x) H on sl2 is not skew and its [[r, r]] is not antisymmetric:
    the one-ordering kernel would not be sound, so it raises."""
    sl2 = chevalley_basis(build_root_system("A1"))
    e, h = sl2.e_idx[(1,)], sl2.h_idx[0]
    tensor = _cybe_tensor(sl2, {(e, h): Q(1)})[1]
    assert not _totally_antisymmetric(tensor)
    for lam in [(1,), (2,), (3,)]:
        with pytest.raises(ValueError, match="not totally antisymmetric"):
            schouten_promoted(tensor, highest_weight_module(sl2, lam))


def _ref_schouten_promoted(tensor, module):
    """schouten_promoted's verdict by the pair loop: for each pair i < j,
    every (x, y) group of the tensor is scanned for columns i and j, and the
    first two legs are summed into S^2 V (x) g for every k > j. It clears
    the tensor's own denominators (D = 1 on _cybe_tensor's int t), so it
    sums the kernel's terms at the kernel's scale, in another order."""
    poisson._check_antisymmetric(tensor)
    dim, mats = module.dim, module.ints
    big_d = den_lcm(tensor.values())
    groups = {}
    for (x, y, z), v in tensor.items():
        groups.setdefault((x, y), []).append((z, v.numerator * (big_d // v.denominator)))
    for i in range(dim):
        for j in range(i + 1, dim):
            u = {}
            for (x, y), lst in groups.items():
                colx = mats[x].get(i)
                if not colx:
                    continue
                coly = mats[y].get(j)
                if not coly:
                    continue
                for ra, va in colx.items():
                    for rb, vb in coly.items():
                        pair = (ra, rb) if ra <= rb else (rb, ra)
                        w = va * vb
                        for z, v in lst:
                            d = u.setdefault(z, {})
                            d[pair] = d.get(pair, 0) + w * v
            for k in range(j + 1, dim):
                acc = {}
                for z, d in u.items():
                    colz = mats[z].get(k)
                    if not colz:
                        continue
                    for (lo, hi), w in d.items():
                        for rc, vc in colz.items():
                            key = tuple(sorted((lo, hi, rc)))
                            acc[key] = acc.get(key, 0) + w * vc
                if any(acc.values()):
                    return False
    return True


def test_schouten_kernel_matches_the_pair_loop_reference():
    """schouten_promoted, which contracts the first leg once per i, agrees
    with the pair-loop reference on every row of rank <= 4 and budget 20,
    and on D4 w1 and E6 w1 once one antisymmetric orbit of the int tensor's
    entries (all six orderings of one term, each with its sign) is moved by
    a unit, which makes both rows fail."""
    from qsym.classify import _dominant_weights_within, _simple_types

    verdicts = []
    for rank in range(1, 5):
        for label in _simple_types(rank, ()):
            alg = shared_type(label).algebra
            tensor = _cybe_tensor(alg, tt_skew(standard_r(alg)))[1]
            for lam in _dominant_weights_within(alg.rs, 20):
                mod = highest_weight_module(alg, lam)
                got = schouten_promoted(tensor, mod)
                assert got == _ref_schouten_promoted(tensor, mod), (label, lam)
                verdicts.append(got)
    assert len(verdicts) == 66 and True in verdicts and False in verdicts
    for label, lam in [("D4", (1, 0, 0, 0)), ("E6", (1, 0, 0, 0, 0, 0))]:
        alg = shared_type(label).algebra
        tensor = _cybe_tensor(alg, tt_skew(standard_r(alg)))[1]
        mod = highest_weight_module(alg, lam)
        assert schouten_promoted(tensor, mod) is True
        term = min(tensor)
        for perm, sign in _S3:
            key = tuple(term[p] for p in perm)
            tensor[key] = tensor.get(key, 0) + sign
        assert _totally_antisymmetric(tensor), label
        assert schouten_promoted(tensor, mod) is _ref_schouten_promoted(tensor, mod) is False, \
            label


def test_dominant_wedges_match_the_pair_loop_reference():
    """With [[r-, r-]] certified invariant (bialg._is_invariant) the verdict
    reads only the wedges of dominant weight (poisson._wedges) and agrees
    with the all-wedge pair-loop reference on the 66 rows of rank <= 4 and
    budget 20 (40 of them False), on E6 w1 and w6, A8 w2 and D5 w5. E6 w1
    reads 65 of its 2,925 wedges. The unit-orbit mutation of the D4 and E6
    tensors breaks invariance; the check then sends the verdict through
    every wedge, and both routes say False; on D4 the dominant wedges alone
    would say True, so the check is what makes the shortcut exact. The
    tensors are _cybe_tensor's int t, and the mutations units of it."""
    from qsym.classify import _dominant_weights_within, _simple_types

    def tensor_of(alg):
        tensor = _cybe_tensor(alg, tt_skew(standard_r(alg)))[1]
        assert _is_invariant(alg, tensor), alg.rs.label
        return tensor

    verdicts = []
    for rank in range(1, 5):
        for label in _simple_types(rank, ()):
            alg = shared_type(label).algebra
            tensor = tensor_of(alg)
            for lam in _dominant_weights_within(alg.rs, 20):
                mod = highest_weight_module(alg, lam)
                got = schouten_promoted(tensor, mod, invariant=True)
                assert got == _ref_schouten_promoted(tensor, mod), (label, lam)
                verdicts.append(got)
    assert len(verdicts) == 66 and verdicts.count(False) == 40
    for label, lam in [("E6", (1, 0, 0, 0, 0, 0)), ("E6", (0, 0, 0, 0, 0, 1)),
                       ("A8", (0, 1, 0, 0, 0, 0, 0, 0)), ("D5", (0, 0, 0, 0, 1))]:
        alg = shared_type(label).algebra
        mod = highest_weight_module(alg, lam)
        tensor = tensor_of(alg)
        assert schouten_promoted(tensor, mod, invariant=True) is True, (label, lam)
        assert _ref_schouten_promoted(tensor, mod) is True, (label, lam)
    e6 = highest_weight_module(shared_type("E6").algebra, (1, 0, 0, 0, 0, 0))
    assert sum(len(ks) for *_, ks in poisson._wedges(e6.weights, True)) == 65
    assert sum(len(ks) for *_, ks in poisson._wedges(e6.weights, False)) == 2925
    for label, lam in [("D4", (1, 0, 0, 0)), ("E6", (1, 0, 0, 0, 0, 0))]:
        alg = shared_type(label).algebra
        tensor = tensor_of(alg)
        mod = highest_weight_module(alg, lam)
        term = min(tensor)
        for perm, sign in _S3:
            key = tuple(term[p] for p in perm)
            tensor[key] = tensor.get(key, 0) + sign
        assert _totally_antisymmetric(tensor) and not _is_invariant(alg, tensor), label
        assert schouten_promoted(tensor, mod, invariant=False) is False, label
        assert _ref_schouten_promoted(tensor, mod) is False, label
        # the dominant wedges alone would pass the mutated D4 tensor
        assert schouten_promoted(tensor, mod, invariant=True) is (label == "D4"), label
