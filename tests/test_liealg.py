"""Module construction and Chevalley structure constants."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction as Q
from itertools import combinations, permutations, product
from types import SimpleNamespace

import pytest

from qsym import liealg
from qsym.bialg import (cobracket_from_r, drinfeld_double, parabolic_semidirect,
                        semidirect_algebra, standard_r)
from qsym.liealg import (
    BracketTable,
    abelian_radical_module,
    casimir,
    chevalley_basis,
    highest_weight_module,
    module_matrices,
    shared_type,
    _mcomm,
    _mcompose,
    _match_subdiagram,
    _mscaled_sum,
    _vadd_into,
    int_columns,
)
from qsym.poisson import generator_brackets
from qsym.rootsys import (_SERIES, InvalidType, _rank_ok, build_root_system,
                         cominuscule_nodes, weight_multiplicities, weyl_dim)
from qsym.scalars import QRat, den_lcm, echelon


def test_module_dimension_and_weights_match_oracles():
    cases = [
        ("A1", (3,)),
        ("A2", (1, 0)),
        ("A2", (1, 1)),
        ("A2", (2, 0)),
        ("B2", (1, 0)),
        ("B2", (0, 1)),
        ("C3", (0, 1, 0)),
        ("G2", (1, 0)),
        ("A3", (0, 1, 0)),
        ("D4", (0, 0, 0, 1)),
        ("A1xA1", (1, 1)),
    ]
    for label, lam in cases:
        rs = build_root_system(label)
        weights, _, _ = module_matrices(rs, lam)
        assert len(weights) == weyl_dim(rs, lam), (label, lam)
        counted = {}
        for w in weights:
            counted[w] = counted.get(w, 0) + 1
        assert counted == weight_multiplicities(rs, lam), (label, lam)


def test_module_int_form_is_its_matrices_times_one_lcm():
    """A built module carries its int form: den is the lcm of the
    denominators of every entry of the Fraction replay's matrices
    (_replay_module, with H_i the weights' diagonal), ints[k] is the
    replay's matrix scaled by it, with no zero entry and no empty column,
    and fractions() gives the replay's matrices back."""
    cases = [("A1", (3,)), ("A2", (1, 1)), ("B2", (1, 0)), ("B2", (0, 1)),
             ("C2", (0, 1)), ("G2", (1, 0)), ("G2", (0, 1)), ("B3", (0, 0, 1)),
             ("B4", (1, 0, 0, 1)), ("E6", (1, 0, 0, 0, 0, 0))]
    dens = set()
    for label, lam in cases:
        alg = shared_type(label).algebra
        mod = highest_weight_module(alg, lam)
        ref = [None] * alg.dim
        for gamma, (e_gamma, f_gamma) in _replay_module(alg.rs, lam).items():
            ref[alg.e_idx[gamma]], ref[alg.f_idx[gamma]] = e_gamma, f_gamma
        for i in range(alg.rank):
            ref[alg.h_idx[i]] = {j: {j: Q(w[i])} for j, w in enumerate(mod.weights) if w[i]}
        assert mod.den == den_lcm(v for m in ref for col in m.values()
                                  for v in col.values()), (label, lam)
        dens.add(mod.den)
        assert len(mod.ints) == alg.dim, (label, lam)
        for k, (m, mi) in enumerate(zip(ref, mod.ints)):
            assert mi == int_columns(m, mod.den), (label, lam, k)
            assert all(type(v) is int and v for col in mi.values() for v in col.values())
        assert mod.fractions() == ref, (label, lam)
    # the scaling is exercised: some of these modules act with fractions,
    # G2 (0, 1) over 12 and B4 (1, 0, 0, 1) over 8
    assert dens - {1}, dens
    assert {12, 8} <= dens, dens


def test_generator_relations_on_modules():
    # [e_i, f_j] = delta_ij h_i, and e_i shifts weights up by alpha_i
    for label, lam in [("A2", (1, 1)), ("B2", (0, 1)), ("G2", (1, 0))]:
        rs = build_root_system(label)
        weights, e, f = module_matrices(rs, lam)
        for i in range(rs.rank):
            for j in range(rs.rank):
                comm = _mcomm(e[i], f[j])
                if i != j:
                    assert not comm, (label, i, j)
                    continue
                h = {k: {k: Q(w[i])} for k, w in enumerate(weights) if w[i]}
                assert not _mscaled_sum([(Q(1), comm), (Q(-1), h)]), (label, i)
        for i in range(rs.rank):
            for src, col in e[i].items():
                for dst in col:
                    shift = tuple(a - b for a, b in
                                  zip(weights[dst], weights[src]))
                    assert shift == tuple(rs.cartan[i]), (label, i, src, dst)


def test_cartan_pairing_of_root_vectors():
    # [E_gamma, F_gamma] = H_gamma with integer coroot coordinates
    for label in ["A2", "B2", "B3", "C3", "G2", "D4"]:
        alg = chevalley_basis(build_root_system(label))
        rs = alg.rs
        for g in alg.pos_roots:
            got = alg.bracket_idx(alg.e_idx[g], alg.f_idx[g])
            gnorm = rs.inner(g, g)
            want = {alg.h_idx[j]: Q(g[j]) * rs.norms[j] / gnorm
                    for j in range(rs.rank) if g[j]}
            assert got == want, (label, g)
            assert all(v.denominator == 1 for v in got.values()), (label, g)


def test_root_vector_brackets_are_chevalley_integers():
    for label in ["A2", "B3", "G2"]:
        alg = chevalley_basis(build_root_system(label))
        n = len(alg.pos_roots)
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                out = alg.bracket_idx(a, b)
                for k, v in out.items():
                    assert v.denominator == 1, (label, a, b, v)
                ga, gb = alg.pos_roots[a], alg.pos_roots[b]
                s = tuple(x + y for x, y in zip(ga, gb))
                if out:
                    assert list(out) == [alg.e_idx[s]], (label, ga, gb)
                else:
                    assert not alg.rs.is_root(s), (label, ga, gb)


def test_jacobi_identity_sampled():
    rng = random.Random(8261)
    for label in ["A2", "B2", "G2", "A1xA1"]:
        alg = chevalley_basis(build_root_system(label))
        idxs = list(range(alg.dim))
        for _ in range(60):
            x, y, z = ({rng.choice(idxs): Q(1)} for _ in range(3))
            total = {}
            for a, b, c in [(x, y, z), (y, z, x), (z, x, y)]:
                for k, v in alg.bracket(a, alg.bracket(b, c)).items():
                    total[k] = total.get(k, Q(0)) + v
            assert not any(total.values()), label


def test_invariant_form_normalization():
    for label in ["A2", "B3", "C3", "G2"]:
        alg = chevalley_basis(build_root_system(label))
        rs = alg.rs
        theta = rs.highest_root
        h_theta = alg.bracket_idx(alg.e_idx[theta], alg.f_idx[theta])
        val = Q(0)
        for i, ci in h_theta.items():
            for j, cj in h_theta.items():
                val += ci * cj * alg.form(i, j)
        assert val == 2, label
        for g in alg.pos_roots:
            assert alg.form(alg.e_idx[g], alg.f_idx[g]) == 2 / rs.inner(g, g)


def test_form_is_invariant_under_brackets():
    # <[x,y],z> + <y,[x,z]> = 0 on sampled triples
    rng = random.Random(515)
    for label in ["B2", "A3"]:
        alg = chevalley_basis(build_root_system(label))
        for _ in range(40):
            a, b, c = (rng.randrange(alg.dim) for _ in range(3))
            lhs = sum((alg.form(k, c) * v
                       for k, v in alg.bracket_idx(a, b).items()), Q(0))
            rhs = sum((alg.form(b, k) * v
                       for k, v in alg.bracket_idx(a, c).items()), Q(0))
            assert lhs + rhs == 0, (label, a, b, c)


def test_trace_form_is_proportional():
    alg = chevalley_basis(build_root_system("A2"))
    ad = alg.adjoint_rep()

    def tr(i, j):
        total = Q(0)
        for k in range(alg.dim):
            v = ad[j].get(k)
            if not v:
                continue
            acc = Q(0)
            for mid, c in v.items():
                acc += ad[i].get(mid, {}).get(k, Q(0)) * c
            total += acc
        return total

    ratios = set()
    for g in alg.pos_roots:
        i, j = alg.e_idx[g], alg.f_idx[g]
        ratios.add(tr(i, j) / alg.form(i, j))
    for i in range(alg.rank):
        for j in range(alg.rank):
            if alg.form(alg.h_idx[i], alg.h_idx[j]):
                ratios.add(tr(alg.h_idx[i], alg.h_idx[j])
                           / alg.form(alg.h_idx[i], alg.h_idx[j]))
    assert len(ratios) == 1
    assert ratios.pop() == 6  # twice the dual Coxeter number of sl3


def test_casimir_acts_by_scalar():
    cases = [
        ("A1", (1,)),
        ("A1", (2,)),
        ("A1", (4,)),
        ("A2", (1, 0)),
        ("A2", (1, 1)),
        ("B2", (0, 1)),
        ("G2", (1, 0)),
    ]
    for label, lam in cases:
        alg = chevalley_basis(build_root_system(label))
        rs = alg.rs
        mod = highest_weight_module(alg, lam)
        cas, _ = casimir(alg)
        mats = mod.fractions()
        action = _mscaled_sum([(v, _mcompose(mats[i], mats[j]))
                               for (i, j), v in cas.items()])
        lam_root = rs.fund_to_root(lam)
        rho = rs.fund_to_root([1] * rs.rank)
        shifted = tuple(a + 2 * b for a, b in zip(lam_root, rho))
        expected = rs.inner(lam_root, shifted)
        for col in range(mod.dim):
            assert action.get(col, {}) == {col: expected}, (label, lam)


def test_casimir_cartan_part_inverts_the_coroot_gram_matrix():
    """c0 is B^-1 on the Cartan basis, B the coroot Gram matrix
    4 (alpha_i, alpha_j) / ((alpha_i, alpha_i)(alpha_j, alpha_j)), here
    inverted by elimination of [B | I] rather than read off the fundamental
    weights as casimir does. c0 needs only the root system and the Cartan
    indices, so a carrier with no root vectors stands in for the algebra and
    no Chevalley basis is built."""
    labels = ["%s%d" % (letter, n) for n in range(1, 8) for letter in _SERIES
              if _rank_ok(letter, n)] + ["A2xA1", "B2xG2"]
    for label in labels:
        rs = build_root_system(label)
        n = rs.rank
        carrier = SimpleNamespace(rs=rs, pos_roots=[], e_idx={}, f_idx={},
                                  h_idx=[2 * i + 1 for i in range(n)])
        aug = [[4 * rs.bform[i][j] / (rs.norms[i] * rs.norms[j]) for j in range(n)]
               + [Q(int(i == j)) for j in range(n)] for i in range(n)]
        assert len(echelon(aug, n)) == n, label
        want = {(2 * i + 1, 2 * j + 1): aug[i][n + j]
                for i in range(n) for j in range(n) if aug[i][n + j]}
        assert casimir(carrier) == (want, want), label


def test_shared_type_has_one_entry_per_type():
    """Every spelling of a type reaches the entry keyed on its canonical
    label, in either order of first use; B2 and C2 stay apart."""
    shared_type.cache_clear()
    assert shared_type("so10") is shared_type("D5") is shared_type("d5")
    assert shared_type("A3") is shared_type("sl4")
    assert shared_type("so5").rs.label == "B2"
    assert shared_type("so5") is not shared_type("sp4")


def test_casimir_eigenvalue_sl3_vector():
    alg = chevalley_basis(build_root_system("A2"))
    mod = highest_weight_module(alg, (1, 0))
    cas, c0 = casimir(alg)
    assert all(k in {(alg.h_idx[0], alg.h_idx[0]), (alg.h_idx[0], alg.h_idx[1]),
                     (alg.h_idx[1], alg.h_idx[0]), (alg.h_idx[1], alg.h_idx[1])}
               for k in c0)
    action, mats = {}, mod.fractions()
    for (i, j), v in cas.items():
        for col, vec in _mcompose(mats[i], mats[j]).items():
            acc = action.setdefault(col, {})
            for row, x in vec.items():
                acc[row] = acc.get(row, Q(0)) + v * x
    assert action[0][0] == Q(8, 3)


def test_nonsimple_root_matrices_shift_weights():
    alg = chevalley_basis(build_root_system("B2"))
    mod = highest_weight_module(alg, (1, 0))
    mats = mod.fractions()
    for g in alg.pos_roots:
        mat = mats[alg.e_idx[g]]
        gf = [sum(Q(g[k]) * alg.rs.cartan[k][j] for k in range(alg.rs.rank))
              for j in range(alg.rs.rank)]
        for src, col in mat.items():
            for dst in col:
                shift = [a - b for a, b in zip(mod.weights[dst], mod.weights[src])]
                assert shift == gf, (g, src, dst)


def test_adjoint_rep_is_a_homomorphism():
    alg = chevalley_basis(build_root_system("A2"))
    ad = alg.adjoint_rep()
    rng = random.Random(99)
    for _ in range(25):
        a, b = rng.randrange(alg.dim), rng.randrange(alg.dim)
        lhs = _mcomm(ad[a], ad[b])
        rhs = {}
        for k, v in alg.bracket_idx(a, b).items():
            for colk, colv in ad[k].items():
                acc = rhs.setdefault(colk, {})
                for rowk, rowv in colv.items():
                    s = acc.get(rowk, Q(0)) + v * rowv
                    if s:
                        acc[rowk] = s
                    elif rowk in acc:
                        del acc[rowk]
        rhs = {k: v for k, v in rhs.items() if v}
        assert lhs == rhs, (a, b)


def test_abelian_radical_levi_data():
    cases = [
        ("A3", 2, (("A", 1), ("A", 1)), (1, 1), True),
        ("C2", 1, (("A", 1),), None, False),
        ("C2", 2, (("A", 1),), (2,), True),
        ("B3", 1, (("B", 2),), None, True),
        ("C3", 3, (("A", 2),), None, True),
        ("D5", 5, (("A", 4),), None, True),
    ]
    for label, node, want_type, want_lam, want_ab in cases:
        rs = build_root_system(label)
        levi_type, lam, abelian = abelian_radical_module(rs, node)
        assert levi_type == want_type, (label, node)
        assert abelian == want_ab, (label, node)
        if want_lam is not None:
            assert lam == want_lam, (label, node, lam)


def test_abelian_radical_matches_cominuscule_nodes():
    from qsym.rootsys import cominuscule_nodes
    for label in ["A3", "B3", "C3", "D4", "G2", "F4"]:
        rs = build_root_system(label)
        marked = set(cominuscule_nodes(rs))
        for node in range(1, rs.rank + 1):
            _, _, abelian = abelian_radical_module(rs, node)
            assert abelian == (node in marked), (label, node)


def _match_by_permutations(nodes, cartan):
    """The first (series, node order) whose Cartan matrix the diagram on
    nodes reproduces, over every order of permutations(nodes): the
    brute-force reference for _match_subdiagram. Series are tried A to G,
    so the coincidences D3 = A3 and B2 = C2 (transposed) resolve to A and B."""
    for letter in "ABCDEFG":
        try:
            ref = build_root_system("%s%d" % (letter, len(nodes))).cartan
        except InvalidType:
            continue
        for perm in permutations(nodes):
            if [[cartan[a][b] for b in perm] for a in perm] == ref:
                return letter, list(perm)
    return None


def test_match_subdiagram_names_every_simple_type():
    """On the full diagram of each simple type of rank <= 8, the matched type
    and node mapping reproduce that type's Cartan matrix (D3 is named A3).
    On each of their diagrams of at most 7 nodes, the full one and every
    connected Levi component of a maximal parabolic, the match is the first
    one in permutation order."""
    labels = (["A%d" % n for n in range(1, 9)]
              + ["%s%d" % (x, n) for x in "BC" for n in range(2, 9)]
              + ["D%d" % n for n in range(3, 9)]
              + ["E6", "E7", "E8", "F4", "G2"])
    compared = 0
    for label in labels:
        rs = build_root_system(label)
        letter, n, mapping = _match_subdiagram(range(rs.rank), rs.cartan)
        assert n == rs.rank and sorted(mapping) == list(range(n)), label
        ref = build_root_system("%s%d" % (letter, n))
        assert [[rs.cartan[a][b] for b in mapping] for a in mapping] == ref.cartan, label
        subdiagrams = [list(range(rs.rank))]
        for k in range(rs.rank):
            levi = [i for i in range(rs.rank) if i != k]
            while levi:
                comp = [levi[0]]
                for a in comp:
                    comp += [b for b in levi if b not in comp and rs.cartan[a][b]]
                levi = [i for i in levi if i not in comp]
                subdiagrams.append(sorted(comp))
        for nodes in subdiagrams:
            if len(nodes) <= 7:
                letter, n, mapping = _match_subdiagram(nodes, rs.cartan)
                assert (letter, mapping) == _match_by_permutations(nodes, rs.cartan), \
                    (label, nodes)
                compared += 1
    assert compared > 250


def test_weyl_dimension_and_weights_wrapper():
    """The Weyl-dimension and Freudenthal oracles that classify_pair calls
    agree on the E6 minuscule module."""
    rs = build_root_system("E6")
    lam = (1, 0, 0, 0, 0, 0)
    assert weyl_dim(rs, lam) == 27
    assert sum(weight_multiplicities(rs, lam).values()) == 27


def test_one_bracket_table_for_every_carrier():
    """A Chevalley algebra, a parabolic semidirect carrier, a Drinfeld double
    and a Poisson bracket table are one skew table: negated on swap, empty on
    the diagonal, and bracket of basis vectors equal to bracket_idx."""
    sl2 = chevalley_basis(build_root_system("A1"))
    S, _ = parabolic_semidirect("A2", 1)
    D, _, _ = drinfeld_double(sl2, cobracket_from_r(sl2, standard_r(sl2)))
    B = generator_brackets(standard_r(sl2), highest_weight_module(sl2, (2,)))
    for table in [chevalley_basis(build_root_system("C2")), S, D, B]:
        assert isinstance(table, BracketTable)
        nonzero = 0
        for i in range(table.dim):
            assert table.bracket_idx(i, i) == {}
            for j in range(table.dim):
                bij = table.bracket_idx(i, j)
                assert table.bracket_idx(j, i) == {k: -v for k, v in bij.items()}
                assert table.bracket({i: Q(1)}, {j: Q(1)}) == bij
                nonzero += bool(bij)
        assert nonzero


# types of rank <= 3 (B2 is C2) and their dominant weights of Weyl dimension <= 15
_SMALL_TYPES = ["A1", "A2", "A3", "B3", "C2", "C3", "G2"]


def test_module_dimension_property():
    """For random small (type, weight): the Freudenthal multiplicities sum to
    the Weyl dimension, the built module has that dimension, and the
    semidirect algebra builds, so the module is a representation."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    weights = {}
    for label in _SMALL_TYPES:
        rs = shared_type(label).rs
        weights[label] = [lam for lam in product(range(4), repeat=rs.rank)
                          if weyl_dim(rs, lam) <= 15]
    pairs = st.sampled_from(_SMALL_TYPES).flatmap(
        lambda label: st.tuples(st.just(label), st.sampled_from(weights[label])))

    @hypothesis.settings(max_examples=25, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(pairs)
    def check(pair):
        label, lam = pair
        shared = shared_type(label)
        dim = weyl_dim(shared.rs, lam)
        assert sum(weight_multiplicities(shared.rs, lam).values()) == dim, pair
        assert highest_weight_module(shared.algebra, lam).dim == dim, pair
        S = semidirect_algebra(shared.algebra, lam)
        assert len(S.v_indices) == dim, pair

    check()


def _ref_compose(a, b):
    """Column-form product a * b, written out here and not taken from liealg."""
    out = {}
    for j, col in b.items():
        acc = {}
        for k, c in col.items():
            for i, v in a.get(k, {}).items():
                acc[i] = acc.get(i, 0) + c * v
        acc = {i: v for i, v in acc.items() if v}
        if acc:
            out[j] = acc
    return out


def _ref_combination(pairs):
    """sum of scale * matrix over (scale, matrix) pairs, written out here."""
    out = {}
    for scale, m in pairs:
        for j, col in m.items():
            acc = out.setdefault(j, {})
            for i, v in col.items():
                acc[i] = acc.get(i, 0) + scale * v
    out = {j: {i: v for i, v in col.items() if v} for j, col in out.items()}
    return {j: col for j, col in out.items() if col}


def _ref_comm(a, b):
    return _ref_combination([(1, _ref_compose(a, b)), (-1, _ref_compose(b, a))])


def _check_table_over_fraction(label):
    alg = chevalley_basis(build_root_system(label))
    rs = alg.rs
    ad = alg.adjoint_rep()
    for a in range(alg.dim):
        for b in range(a + 1, alg.dim):
            want = _ref_combination([(v, ad[k])
                                     for k, v in alg.bracket_idx(a, b).items()])
            assert _ref_comm(ad[a], ad[b]) == want, (label, a, b)
    for g in alg.pos_roots:
        gnorm = rs.inner(g, g)
        coroot = {alg.h_idx[j]: Q(g[j]) * rs.norms[j] / gnorm
                  for j in range(rs.rank) if g[j]}
        assert alg.bracket_idx(alg.e_idx[g], alg.f_idx[g]) == coroot, (label, g)


def test_bootstrapped_table_over_fraction():
    """The int-kernel bootstrap, checked on Fraction matrices with products
    written out in this file: ad of the table is a representation,
    [ad x_a, ad x_b] = ad [x_a, x_b] for every pair, and
    [E_gamma, F_gamma] = H_gamma in coroot coordinates."""
    for label in ["A1", "A2", "A3", "A4", "B3", "C3", "D4", "G2", "F4"]:
        _check_table_over_fraction(label)


def test_bootstrapped_rank_five_tables_over_fraction():
    """The same check on the sweep's rank-5 ambients, whose bootstrap
    modules (6, 11, 10 and 10) are far smaller than their adjoints."""
    for label in ["A5", "B5", "C5", "D5"]:
        _check_table_over_fraction(label)


def _coroot_diag(rs, weights, gamma):
    """H_gamma on a module with these weights, as {index: eigenvalue}."""
    gnorm = rs.inner(gamma, gamma)
    h = {k: sum(Q(gamma[j]) * rs.norms[j] / gnorm * w[j] for j in range(rs.rank))
         for k, w in enumerate(weights)}
    return {k: v for k, v in h.items() if v}


def _replay_module(rs, lam):
    return _replay_ops(rs, *module_matrices(rs, lam))


def _replay_ops(rs, weights, e, f):
    """V(lam)'s root-vector matrices by a Fraction replay written out here,
    as {root: (E, F)}: along the descent of the smallest simple i with
    gamma - alpha_i = parent a positive root, E_gamma = [e_i, E_parent]/(p+1)
    and F~_gamma = [f_i, F~_parent]/(p+1) with _ref_comm, and F_gamma =
    F~_gamma / t with t measured on this module from [E_gamma, F~_gamma] =
    t H_gamma, which must hold with t != 0 (AssertionError otherwise)."""
    rank = rs.rank

    def minus(root, i, times=1):
        return tuple(c - times * (k == i) for k, c in enumerate(root))

    ops, tilde = {}, {}
    for gamma in rs.positive_roots:  # by height: each parent comes first
        if sum(gamma) == 1:
            i = gamma.index(1)
            ops[gamma] = tilde[gamma] = e[i], f[i]
        else:
            i = next(i for i in range(rank) if minus(gamma, i) in ops)
            parent = minus(gamma, i)
            p = 0
            while rs.is_root(minus(parent, i, p + 1)):
                p += 1
            coef = Q(1, p + 1)
            e_gamma = _ref_combination([(coef, _ref_comm(e[i], ops[parent][0]))])
            tilde[gamma] = e_gamma, _ref_combination([(coef, _ref_comm(f[i], tilde[parent][1]))])
        e_gamma, ft_gamma = tilde[gamma]
        h = _coroot_diag(rs, weights, gamma)
        comm = _ref_comm(e_gamma, ft_gamma)
        k0 = min(h)
        t = comm.get(k0, {}).get(k0, 0) / h[k0]
        assert t and comm == {k: {k: t * v} for k, v in h.items()}, (rs.label, gamma)
        ops[gamma] = e_gamma, _ref_combination([(1 / t, ft_gamma)])
    return ops


def test_module_root_vectors_match_a_fraction_replay():
    """highest_weight_module's matrices equal the Fraction replay written out
    in this file, on omega_1 and one more module of every simple type of
    rank at most 4 (G2 and F4 among them): the one recurrence on the scaled
    form, with F_gamma divided by the bootstrap's scale, builds the same
    operators as nested Fraction commutators normalised on the module
    itself."""
    for letter in _SERIES:
        for n in range(1, 5):
            if not _rank_ok(letter, n):
                continue
            alg = shared_type("%s%d" % (letter, n)).algebra
            other = (2,) if n == 1 else tuple(int(k == n - 1) for k in range(n))
            for lam in [tuple(int(k == 0) for k in range(n)), other]:
                mats = highest_weight_module(alg, lam).fractions()
                for gamma, (e_gamma, f_gamma) in _replay_module(alg.rs, lam).items():
                    assert mats[alg.e_idx[gamma]] == e_gamma, (alg.rs.label, lam, gamma)
                    assert mats[alg.f_idx[gamma]] == f_gamma, (alg.rs.label, lam, gamma)


def test_abelian_radical_refuses_a_node_that_is_not_an_int():
    """abelian_radical_module refuses True, 1.0 and 2.0 with ValueError before
    its cache: True and 1.0 were served node 1's cached data and 2.0 raised a
    bare TypeError."""
    rs = shared_type("E6").rs
    abelian_radical_module(rs, 1)
    for node in [True, 1.0, 2.0, "1", None]:
        with pytest.raises(ValueError, match="node must be an int"):
            abelian_radical_module(rs, node)


# sha256 of the normalized bracket table: E6 and E7 recorded from the
# bootstrap on the adjoint module, the products from the bootstrap on one
# module per simple component assembled block-diagonally
_TABLE_SHA256 = {
    "E6": "08725c4f42df8a67c9fdb83a22a9736cb1904ad438106965d1252f8b4177deb8",
    "E7": "b5130dc7a94513cde3a5b7c9f34deae3bd80a50d1262d42231218622a831e9f3",
    "A1xA1": "e14dac0cf14546e39c64fb2acc81d7d770f73aa21ebf08c4e84efd0b179f73d2",
    "A2xA1": "759096c82d87e1a697c43480702f41cc7f3c84bbe6884379f16bac58a8085177",
    "A1xA1xA1": "09c12d65558a92f5b881b2d462fc9c961626d02e85177c8b8236619dd3bf9854",
    "B2xG2": "a429357856d6042bdc816c291b5a605636f92a67de56ae1688de0fc2d7a6d736",
}


def test_bootstrapped_table_golden_e6_e7():
    """The E6 and E7 structure constants are those of the adjoint bootstrap,
    and a product type's are those of its components' blocks: the
    tensor-product module gives the same table. Every value is an int, and
    is hashed as the Fraction it was recorded as."""
    for label, want in _TABLE_SHA256.items():
        alg = chevalley_basis(build_root_system(label))
        assert all(type(v) is int for out in alg.table.values() for v in out.values()), label
        normalized = repr([(k, sorted((i, Q(v)) for i, v in out.items()))
                           for k, out in sorted(alg.table.items())])
        assert hashlib.sha256(normalized.encode()).hexdigest() == want, label


def test_chevalley_and_parabolic_tables_are_ints_over_den_one():
    """Every structure constant of a Chevalley basis is an int and den is 1,
    for each simple type of rank <= 8 (E8 included) and for A2xA1, and so is
    every bracket of the parabolic at each cominuscule node of the simple
    types: cut from the ambient's int table, with nothing to clear."""
    labels = ["%s%d" % (letter, n) for n in range(1, 9) for letter in _SERIES
              if _rank_ok(letter, n) and (letter, n) not in (("B", 2), ("D", 3))]
    assert len(labels) == 31
    for label in labels + ["A2xA1"]:
        typ = shared_type(label)
        nodes = cominuscule_nodes(typ.rs) if typ.rs.is_simple else ()
        tables = [typ.algebra] + [parabolic_semidirect(label, node)[0] for node in nodes]
        for t in tables:
            assert t.den == 1 and t.table, label
            assert all(type(v) is int for out in t.table.values() for v in out.values()), label


def test_bootstrap_asserts_every_constant_is_an_int(monkeypatch):
    """The bootstrap divides each root-vector constant as one int quotient
    and asserts it exact: with E_(1,1) of A2 doubled off Chevalley's
    normalisation, [E_1, E_2] = E_(1,1) / 2 and the assertion fires."""
    real = liealg.root_vector_ops

    def doubled(alg, e, f):
        e_ops, ft_ops = real(alg, e, f)
        if (1, 1) in e_ops:
            s, m = e_ops[(1, 1)]
            e_ops[(1, 1)] = 2 * s, m
        return e_ops, ft_ops

    monkeypatch.setattr(liealg, "root_vector_ops", doubled)
    with pytest.raises(AssertionError, match=r"structure constant -?\d+/-?\d+ is not an integer"):
        liealg.ChevalleyAlgebra(build_root_system("A2"))
    assert liealg.ChevalleyAlgebra(build_root_system("A1")).table


def test_bootstrap_builds_the_smallest_fundamental_module(monkeypatch):
    """One module per algebra, of its own root system: on each simple
    component the fundamental weight of smallest dimension, so E7 on 56, B5
    on 11, C5 on 10, G2 on 7, A2xA1 on 3 x 2 and A1xA1xA1 on 2 x 2 x 2."""
    built = []

    def recorded(rs, lam):
        built_module = real(rs, lam)
        built.append(len(built_module[0]))
        return built_module

    real = liealg.module_matrices
    monkeypatch.setattr(liealg, "module_matrices", recorded)
    for label, dims in [("E7", [56]), ("B5", [11]), ("C5", [10]), ("G2", [7]),
                        ("A2xA1", [6]), ("A1xA1xA1", [8])]:
        built.clear()
        chevalley_basis(build_root_system(label))
        assert built == dims, label


def test_matrix_kernel_property():
    """_mcompose and _mcomm (with and without a scale) over ints, Fractions
    and QRat equal the products written out above; they store no zero and no
    empty column, and int matrices give int matrices."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ints = st.integers(-2, 2)
    fractions = st.builds(Q, st.integers(-3, 3), st.integers(1, 3))
    qrats = st.builds(lambda num, den: QRat(num, den if any(den) else [1]),
                      st.lists(st.integers(-2, 2), min_size=1, max_size=3),
                      st.lists(st.integers(-2, 2), min_size=1, max_size=2))

    def cases(values):
        col = st.dictionaries(st.integers(0, 3), values, max_size=4).map(
            lambda c: {i: v for i, v in c.items() if v})
        mat = st.dictionaries(st.integers(0, 3), col, max_size=4).map(
            lambda m: {j: c for j, c in m.items() if c})
        return st.tuples(mat, mat, st.none() | values)

    @hypothesis.settings(max_examples=120, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(cases(ints) | cases(fractions) | cases(qrats))
    def check(case):
        a, b, scale = case
        factor = 1 if scale is None else scale
        got = [_mcompose(a, b), _mcomm(a, b), _mcomm(a, b, scale)]
        want = [_ref_compose(a, b), _ref_comm(a, b),
                _ref_combination([(factor, _ref_comm(a, b))])]
        assert got == want
        for m in got:
            assert all(col and all(col.values()) for col in m.values())
        entries = [v for m in [a, b] for col in m.values() for v in col.values()]
        if all(type(v) is int for v in entries) and type(factor) is int:
            assert all(type(v) is int
                       for m in got for col in m.values() for v in col.values())

    check()


def test_vadd_into_property():
    """acc += scale * vec over Fraction and over QRat: the result is the dense
    sum, no zero is stored, and acc itself is returned."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fractions = st.builds(Q, st.integers(-3, 3), st.integers(1, 3))
    qrats = st.builds(lambda num, den: QRat(num, den if any(den) else [1]),
                      st.lists(st.integers(-2, 2), min_size=1, max_size=3),
                      st.lists(st.integers(-2, 2), min_size=1, max_size=2))
    keys = range(5)

    def cases(values):
        vec = st.dictionaries(st.sampled_from(keys), values, max_size=5)
        return st.tuples(vec, vec, st.none() | values)

    @hypothesis.settings(max_examples=80, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(cases(fractions) | cases(qrats))
    def check(case):
        acc, vec, scale = case
        acc = {k: v for k, v in acc.items() if v}
        factor = 1 if scale is None else scale
        want = [acc.get(k, 0) + vec.get(k, 0) * factor for k in keys]
        got = _vadd_into(acc, vec, scale)
        assert got is acc
        assert all(got.values())
        assert [got.get(k, 0) for k in keys] == want

    check()


def test_weights_are_int_tuples():
    """Weights of the Freudenthal oracle, of the Chevalley basis and of the
    abelian nilradicals are tuples of Python ints, with no Fraction."""
    def ints(w):
        return isinstance(w, tuple) and all(type(c) is int for c in w)

    for label, lam in [("G2", (1, 1)), ("B3", (0, 0, 1)), ("C3", (0, 1, 0)),
                       ("E6", (1, 0, 0, 0, 0, 0))]:
        rs = build_root_system(label)
        assert all(ints(mu) for mu in weight_multiplicities(rs, lam)), label
        assert all(ints(w) for w in shared_type(label).algebra.weight), label
    for label in ["A3", "C3", "D5", "E6", "E7"]:
        rs = build_root_system(label)
        for node in range(1, rs.rank + 1):
            _, lam_levi, _ = abelian_radical_module(rs, node)
            assert ints(lam_levi), (label, node)


def _bootstrap_module(monkeypatch, label):
    """(rs, weights, e, f, e_ops, ft_ops): the module a fresh bootstrap of
    label reads, and the root-vector operators it builds on it."""
    seen = {}
    real_module, real_ops = liealg.module_matrices, liealg.root_vector_ops

    def module(rs, lam):
        seen["module"] = real_module(rs, lam)
        return seen["module"]

    def ops(alg, e, f):
        seen["ops"] = real_ops(alg, e, f)
        return seen["ops"]

    with monkeypatch.context() as m:
        m.setattr(liealg, "module_matrices", module)
        m.setattr(liealg, "root_vector_ops", ops)
        rs = shared_type(label).rs
        chevalley_basis(rs)
    return (rs,) + seen["module"] + seen["ops"]


def test_bootstrap_skips_only_vanishing_commutators(monkeypatch):
    """The commutators the bootstrap no longer computes, those of two root
    vectors whose weight is neither a root nor 0, are computed here with
    _ref_comm on the bootstrap's own operators and vanish, on every simple
    type of rank <= 4 and on A2xA1."""
    labels = ["A2xA1"] + ["%s%d" % (letter, n) for letter in _SERIES for n in range(1, 5)
                          if _rank_ok(letter, n)]
    for label in labels:
        *_, e_ops, ft_ops = _bootstrap_module(monkeypatch, label)
        alg = shared_type(label).algebra
        ops = [(g, e_ops[g][1]) for g in alg.pos_roots]
        ops += [(tuple(-x for x in g), ft_ops[g][1]) for g in alg.pos_roots]
        skipped = 0
        for (wa, ma), (wb, mb) in combinations(ops, 2):
            target = tuple(x + y for x, y in zip(wa, wb))
            neg = tuple(-x for x in target)
            if any(target) and target not in alg.e_idx and neg not in alg.e_idx:
                assert not _ref_comm(ma, mb), (label, wa, wb)
                skipped += 1
        assert skipped or len(alg.pos_roots) == 1, label


def _all_commutator_table(alg, weights, e, f):
    """The bootstrap's root-vector brackets with every commutator computed
    and no Serre check, on the Fraction replay: a
    commutator of weight 0 must be H_gamma, one of a root's weight a multiple
    of that root vector, and any other must vanish ("unexpected bracket
    weight"). Returns the table's root-vector entries or raises
    AssertionError where that route refused."""
    rs = alg.rs
    vecs = {}
    for g, (e_gamma, f_gamma) in _replay_ops(rs, weights, e, f).items():
        vecs[alg.e_idx[g]], vecs[alg.f_idx[g]] = e_gamma, f_gamma
    table = {}
    for a, b in combinations(sorted(vecs), 2):
        comm = _ref_comm(vecs[a], vecs[b])
        if not comm:
            continue
        target = tuple(x + y for x, y in zip(alg.weight[a], alg.weight[b]))
        neg = tuple(-x for x in target)
        if not any(target):
            g = alg.weight[a]
            assert comm == {k: {k: v} for k, v in _coroot_diag(rs, weights, g).items()}
            gnorm = rs.inner(g, g)
            table[(a, b)] = {alg.h_idx[j]: Q(g[j]) * rs.norms[j] / gnorm
                             for j in range(rs.rank) if g[j]}
            continue
        tgt = alg.e_idx.get(target, alg.f_idx.get(neg))
        assert tgt is not None, "unexpected bracket weight %s" % (target,)
        j0 = min(vecs[tgt])
        i0 = min(vecs[tgt][j0])
        ratio = comm.get(j0, {}).get(i0, 0) / vecs[tgt][j0][i0]
        assert ratio and comm == _ref_combination([(ratio, vecs[tgt])])
        table[(a, b)] = {tgt: ratio}
    return table


def test_serre_route_refuses_what_the_all_commutator_route_refuses(monkeypatch):
    """Mutations of the A2, B2 and G2 bootstrap modules: a unit added to
    each nonzero entry of each e_i and f_i, and a unit placed at each zero
    entry. The bootstrap (Serre relations, then only root and zero weights)
    and the route computing every commutator refuse exactly the same ones;
    each mutation both pass leaves the table unchanged (a torus rescaling)."""
    counts = {}
    for label in ["A2", "B2", "G2"]:
        rs, weights, e, f, _, _ = _bootstrap_module(monkeypatch, label)
        alg = shared_type(label).algebra
        cartan = set(alg.h_idx.values())
        root_part = {k: v for k, v in alg.table.items() if not cartan & set(k)}
        assert _all_commutator_table(alg, weights, e, f) == root_part, label
        for side, i in product((0, 1), range(rs.rank)):
            for col, row in product(range(len(weights)), repeat=2):
                mats = [[{j: dict(c) for j, c in m.items()} for m in ms] for ms in (e, f)]
                m = mats[side][i]
                was = m.get(col, {}).get(row, 0)
                m.setdefault(col, {})[row] = was + 1
                if not m[col][row]:
                    del m[col][row]
                try:
                    ref = _all_commutator_table(alg, weights, *mats)
                except AssertionError:
                    ref = None
                with monkeypatch.context() as patched:
                    patched.setattr(liealg, "module_matrices",
                                    lambda rs, lam: (weights, mats[0], mats[1]))
                    try:
                        got = liealg.ChevalleyAlgebra(rs).table
                    except AssertionError:
                        got = None
                where = (label, side, i, col, row)
                assert (got is None) == (ref is None), where
                if got is not None:
                    assert got == alg.table and ref == root_part, where
                key = (label, bool(was), got is None)
                counts[key] = counts.get(key, 0) + 1
    nonzero = sum(v for (_, was, _), v in counts.items() if was)
    zero = sum(v for (_, was, _), v in counts.items() if not was)
    passed = {label: v for (label, _, refused), v in counts.items() if not refused}
    assert (nonzero, zero) == (22, 274), counts
    assert passed == {"A2": 4, "B2": 2}, counts
    # the weight shifts are part of Serre's presentation ([h_i, e_j] =
    # A[j][i] e_j): weights that disagree with the e_i are refused first
    rs, weights, e, f, _, _ = _bootstrap_module(monkeypatch, "A2")
    bad = [tuple(x + 1 for x in weights[0])] + list(weights[1:])
    monkeypatch.setattr(liealg, "module_matrices", lambda rs, lam: (bad, e, f))
    with pytest.raises(AssertionError, match="off weight"):
        liealg.ChevalleyAlgebra(rs)


def test_e7_bootstrap_computes_no_off_root_commutator(monkeypatch):
    """A work count with no timing in it: of E7's bootstrap commutators
    (_mcomm calls, each weighed by one entry of each argument on the
    56-dimensional module), the only ones whose weight is neither a root
    nor 0 are the 42 + 2 * (12 + 15) = 96 Serre relations: [e_i, f_j],
    i != j, and the last step of each (ad e_i)^(1 - A[j][i]) e_j and its f
    twin, where the one [e_i, e_j] of a pair of non-adjacent nodes (15
    pairs) serves both orders. All 283 are: 2 * 56 along the descent
    (root_vector_ops), 42 [e_i, f_j], 2 * (6 * 3 + 15) Serre steps (a pair
    of adjacent nodes shares its first step [e_i, e_j] = -[e_j, e_i]), 7
    [e_i, f_i] and 56 [E_gamma, F~_gamma] at the non-simple roots (f_norm);
    no root-vector pair takes a whole commutator."""
    rs = shared_type("E7").rs
    weights, _, _ = module_matrices(rs, (0,) * 6 + (1,))
    fund = {tuple(sum(g[k] * rs.cartan[k][m] for k in range(rs.rank)) for m in range(7))
            for g in rs.positive_roots}
    fund |= {tuple(-x for x in w) for w in fund} | {(0,) * 7}
    calls = []
    real = liealg._mcomm

    def shift(m):
        j = min(m)
        i = min(m[j])
        return tuple(x - y for x, y in zip(weights[i], weights[j]))

    def counting(a, b, scale=None):
        calls.append(tuple(x + y for x, y in zip(shift(a), shift(b))))
        return real(a, b, scale)

    monkeypatch.setattr(liealg, "_mcomm", counting)
    chevalley_basis(rs)
    off_root = [w for w in calls if w not in fund]
    assert len(weights) == 56 and len(calls) == 2 * 56 + 42 + 2 * (6 * 3 + 15) + 7 + 56 == 283
    assert len(off_root) == 42 + 2 * (12 + 15), len(off_root)


def _ref_bootstrap(alg, weights, e_ops, ft_ops):
    """(f_norm, root-vector table) of the bootstrap by whole commutators, the
    route the one-entry reading replaced: t_gamma from [E_gamma, F~_gamma] =
    t_gamma H_gamma, the commutator of each root-vector pair of weight 0
    equal to H_gamma ("Cartan bracket mismatch"), and that of each pair of
    weight a root a multiple of its root vector ("bracket not a multiple"),
    compared over the whole int matrix by scaled_ratio. Pairs of any other
    weight are skipped, as test_bootstrap_skips_only_vanishing_commutators
    shows they vanish."""
    rs = alg.rs

    def coroot_op(gamma):
        return liealg.scaled({k: {k: v} for k, v in _coroot_diag(rs, weights, gamma).items()})

    f_norm, ops = {}, {}
    for g in alg.pos_roots:
        t = liealg.scaled_ratio(liealg.scaled_comm(e_ops[g], ft_ops[g]), coroot_op(g))
        assert t, "bad Cartan scale at %s" % (g,)
        f_norm[g] = t
        ops[alg.e_idx[g]] = e_ops[g]
        ops[alg.f_idx[g]] = ft_ops[g][0] / t, ft_ops[g][1]
    table = {}
    for a, b in combinations(sorted(ops), 2):
        wa = alg.weight[a]
        target = tuple(x + y for x, y in zip(wa, alg.weight[b]))
        tgt = alg.e_idx.get(target, alg.f_idx.get(tuple(-x for x in target)))
        if tgt is None and any(target):
            continue
        comm = liealg.scaled_comm(ops[a], ops[b])
        if not comm[1]:
            continue
        if tgt is None:
            assert liealg.scaled_ratio(comm, coroot_op(wa)) == 1, \
                "Cartan bracket mismatch at %s" % (wa,)
            gnorm = rs.inner(wa, wa)
            table[(a, b)] = {alg.h_idx[j]: Q(wa[j]) * rs.norms[j] / gnorm
                             for j in range(rs.rank) if wa[j]}
            continue
        ratio = liealg.scaled_ratio(comm, ops[tgt])
        assert ratio is not None, "bracket not a multiple at %s,%s" % (a, b)
        table[(a, b)] = {tgt: ratio}
    return f_norm, table


def test_bootstrap_constants_match_the_whole_commutator_reference(monkeypatch):
    """The bootstrap reads each root-vector structure constant off one entry
    of one int commutator and sets [E_gamma, F_gamma] = H_gamma without a
    commutator; the whole-commutator route (_ref_bootstrap) gives the same
    f_norm and the same root-vector table, and refuses nothing, on every
    simple type of rank <= 4 (F4 among them), E6, E7 and A2xA1."""
    labels = ["%s%d" % (letter, n) for letter in _SERIES for n in range(1, 5)
              if _rank_ok(letter, n)] + ["E6", "E7", "A2xA1"]
    for label in labels:
        rs, weights, _, _, e_ops, ft_ops = _bootstrap_module(monkeypatch, label)
        alg = shared_type(label).algebra
        cartan = set(alg.h_idx.values())
        root_part = {k: v for k, v in alg.table.items() if not cartan & set(k)}
        assert _ref_bootstrap(alg, weights, e_ops, ft_ops) == (alg.f_norm, root_part), label


def test_module_relation_check_refuses_every_unit_change(monkeypatch):
    """highest_weight_module runs the bootstrap's relation check
    (_check_relations) on its own e_i and f_i and asks [E_i, F_i] = H_i
    exactly: a unit added to any entry of any e_i or f_i of A2 (1, 0),
    A2 (1, 1), B2 (1, 0) or B2 (0, 1), or placed at any zero entry, is
    refused, where the bootstrap, which measures f_norm, lets torus
    rescalings through."""
    refused = 0
    for label, lam in [("A2", (1, 0)), ("A2", (1, 1)), ("B2", (1, 0)), ("B2", (0, 1))]:
        alg = shared_type(label).algebra
        weights, e, f = module_matrices(alg.rs, lam)
        highest_weight_module(alg, lam)
        for side, i in product((0, 1), range(alg.rank)):
            for col, row in product(range(len(weights)), repeat=2):
                mats = [[{j: dict(c) for j, c in m.items()} for m in ms] for ms in (e, f)]
                m = mats[side][i]
                m.setdefault(col, {})[row] = m.get(col, {}).get(row, 0) + 1
                if not m[col][row]:
                    del m[col][row]
                with monkeypatch.context() as patched:
                    patched.setattr(liealg, "module_matrices",
                                    lambda rs, lam: (weights, mats[0], mats[1]))
                    with pytest.raises(AssertionError):
                        highest_weight_module(alg, lam)
                refused += 1
    assert refused == 2 * 2 * (3 ** 2 + 8 ** 2) + 2 * 2 * (4 ** 2 + 5 ** 2)
