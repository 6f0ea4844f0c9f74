from fractions import Fraction as Q
from itertools import product

import pytest

from qsym.classify import _simple_types
from qsym.rootsys import (
    InvalidType,
    NotDominant,
    NotSimple,
    RootSystem,
    build_root_system,
    cominuscule_nodes,
    normalize_type,
    type_label,
    weight_multiplicities,
    weyl_dim,
)


def test_positive_root_counts():
    """Closure by reflections reproduces the classical counts."""
    cases = {
        ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10, ("A", 5): 15,
        ("B", 2): 4, ("B", 3): 9, ("B", 4): 16, ("B", 5): 25,
        ("C", 2): 4, ("C", 3): 9, ("C", 4): 16,
        ("D", 3): 6, ("D", 4): 12, ("D", 5): 20,
        ("G", 2): 6, ("F", 4): 24, ("E", 6): 36,
    }
    for (letter, n), count in cases.items():
        rs = build_root_system(type_label(letter, n))
        assert len(rs.positive_roots) == count, rs.label


def test_highest_roots():
    cases = {
        ("A", 2): (1, 1),
        ("B", 3): (1, 2, 2),
        ("C", 3): (2, 2, 1),
        ("D", 4): (1, 2, 1, 1),
        ("G", 2): (3, 2),
        ("F", 4): (2, 3, 4, 2),
        ("E", 6): (1, 2, 2, 3, 2, 1),
    }
    for (letter, n), theta in cases.items():
        assert build_root_system(type_label(letter, n)).highest_root == theta


def test_cominuscule_nodes():
    cases = {
        ("A", 3): [1, 2, 3],
        ("B", 3): [1],
        ("C", 2): [2],
        ("C", 3): [3],
        ("D", 4): [1, 3, 4],
        ("D", 5): [1, 4, 5],
        ("E", 6): [1, 6],
        ("E", 7): [7],
        ("G", 2): [],
        ("F", 4): [],
        ("E", 8): [],
    }
    for (letter, n), nodes in cases.items():
        assert cominuscule_nodes(build_root_system(type_label(letter, n))) == nodes


def test_cartan_matches_form():
    """A[i][j] = 2(a_i,a_j)/(a_j,a_j) and long roots have squared length 2."""
    for label in ("A3", "B3", "C3", "D4", "G2", "F4", "E6"):
        rs = build_root_system(label)
        n = rs.rank
        for i in range(n):
            for j in range(n):
                assert rs.cartan[i][j] == 2 * rs.bform[i][j] / rs.bform[j][j]
        assert max(rs.inner(g, g) for g in rs.positive_roots) == 2


def test_short_root_norms():
    assert build_root_system("B3").norms == [Q(2), Q(2), Q(1)]
    assert build_root_system("G2").norms == [Q(2, 3), Q(2)]
    assert build_root_system("C3").norms == [Q(1), Q(1), Q(2)]


def test_fundamental_weight_duality():
    for label in ("A2", "B3", "C2", "D4", "G2", "F4"):
        rs = build_root_system(label)
        for i in range(rs.rank):
            w = rs.fundamental_weights[i]
            for j in range(rs.rank):
                alpha_j = tuple(1 if k == j else 0 for k in range(rs.rank))
                expected = 1 if i == j else 0
                assert 2 * rs.inner(w, alpha_j) / rs.norms[j] == expected
                assert rs.copair(w, j) == expected
    assert build_root_system("A2").fundamental_weights[0] == (Q(2, 3), Q(1, 3))


def test_is_root_membership():
    rs = build_root_system("B2")
    assert rs.is_root((1, 1))
    assert rs.is_root((-1, -2))
    assert not rs.is_root((2, 1))
    assert not rs.is_root((0, 0))


def test_products_are_block_diagonal():
    for label in ("sl3xA1", " A2 x A1 ", "a2xsl2"):
        assert build_root_system(label).label == "A2xA1"
    rs = build_root_system("A2xA1")
    assert rs.rank == 3
    assert len(rs.positive_roots) == 4
    assert rs.cartan[0][2] == rs.cartan[2][0] == 0
    assert not rs.is_simple
    with pytest.raises(NotSimple):
        cominuscule_nodes(rs)


def test_type_aliases():
    assert normalize_type("so10") == ("D", 5)
    assert normalize_type("so9") == ("B", 4)
    assert normalize_type("sp4") == ("C", 2)
    assert normalize_type("sl4") == ("A", 3)
    assert normalize_type("e6") == ("E", 6)
    assert normalize_type("G2") == ("G", 2)
    # a rank is unsigned ASCII digits: e٦ read E6 and A² raised int()'s ValueError
    for bad in ("so4", "so3", "sp3", "sp2", "h3", "B1", "D2", "E9", ("A", 2), None, 2,
                "e\u0666", "A\u00b2", "so1\u0660", "sl\u0663", "a1_0", "d 4", "a+2", "e-6"):
        with pytest.raises(InvalidType):
            normalize_type(bad)


def test_invalid_builds():
    for letter, n in (("D", 2), ("B", 1), ("E", 5), ("F", 3), ("G", 3)):
        with pytest.raises(InvalidType):
            build_root_system(type_label(letter, n))
    with pytest.raises(InvalidType):
        RootSystem([])
    # a rank that is not an int is refused, never read as the int it equals
    for n in (True, 2.0):
        with pytest.raises(InvalidType):
            RootSystem([("A", n)])
    for bad in (("A", 2), None):
        with pytest.raises(InvalidType):
            build_root_system(bad)
    with pytest.raises(InvalidType, match=r"no simple type E9 \(from 'E9'\)"):
        build_root_system("E9")
    # D3 is a legal alias of A3 for construction
    assert len(build_root_system("D3").positive_roots) == 6


def test_components_are_read_once():
    """A generator of components builds the same system as a list."""
    comps = [("A", 2), ("B", 3)]
    ref = RootSystem(comps)
    rs = RootSystem(c for c in comps)
    assert (rs.label, rs.rank, rs.cartan) == (ref.label, ref.rank, ref.cartan)
    assert rs.label == "A2xB3" and rs.rank == 5


def test_weyl_dimensions():
    cases = [
        ("A2", (1, 0), 3), ("A2", (1, 1), 8), ("A2", (2, 0), 6),
        ("B2", (0, 1), 4), ("B2", (1, 0), 5),
        ("C3", (0, 1, 0), 14), ("C3", (1, 0, 0), 6),
        ("G2", (1, 0), 7), ("G2", (0, 1), 14),
        ("D5", (0, 0, 0, 0, 1), 16),
        ("E6", (1, 0, 0, 0, 0, 0), 27),
        ("D3", (1, 0, 0), 6),
    ]
    for label, lam, dim in cases:
        assert weyl_dim(build_root_system(label), lam) == dim, (label, lam)


def test_weight_multiplicities_small():
    rs = build_root_system("A2")
    adj = weight_multiplicities(rs, (1, 1))
    assert sum(adj.values()) == 8
    assert adj[(0, 0)] == 2
    assert adj[(1, 1)] == 1 and adj[(-1, -1)] == 1

    nat = weight_multiplicities(rs, (1, 0))
    assert sorted(nat.values()) == [1, 1, 1]

    sl2 = build_root_system("A1")
    assert weight_multiplicities(sl2, (2,)) == {(2,): 1, (0,): 1, (-2,): 1}

    g2 = weight_multiplicities(build_root_system("G2"), (1, 0))
    assert sum(g2.values()) == 7
    assert g2[(0, 0)] == 1

    b3_spin = weight_multiplicities(build_root_system("B3"), (0, 0, 1))
    assert sum(b3_spin.values()) == 8
    assert set(b3_spin.values()) == {1}


def test_multiplicity_sums_match_weyl_dim():
    cases = [("B2", (1, 1)), ("C3", (0, 0, 1)), ("A3", (0, 1, 0)), ("G2", (0, 1)),
             ("E6", (1, 0, 0, 0, 0, 0))]
    for label, lam in cases:
        rs = build_root_system(label)
        assert sum(weight_multiplicities(rs, lam).values()) == weyl_dim(rs, lam)


def test_not_dominant():
    rs = build_root_system("A2")
    with pytest.raises(NotDominant):
        weyl_dim(rs, (-1, 0))
    with pytest.raises(NotDominant):
        weight_multiplicities(rs, (1,))


def test_adjoint_multiplicities_every_simple_type():
    """On the adjoint module the zero weight has multiplicity rank and the
    multiplicities sum to dim g, for every simple type of rank <= 8."""
    for label in [t for r in range(1, 9) for t in _simple_types(r, (6, 7, 8))]:
        rs = build_root_system(label)
        theta = rs.root_to_fund(rs.highest_root)
        mults = weight_multiplicities(rs, theta)
        dim_g = 2 * len(rs.positive_roots) + rs.rank
        assert mults[(0,) * rs.rank] == rs.rank, rs.label
        assert sum(mults.values()) == dim_g == weyl_dim(rs, theta), rs.label


def test_multiplicities_are_weyl_invariant_property():
    """mult(mu) = mult(s_j mu) on random weights of rank <= 4, with s_j taken
    in root coordinates on the Fraction form: s_j x = x - 2(x, a_j)/(a_j, a_j) a_j."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    labels = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2",
              "A1xA1", "A2xB2"]
    weights = {}
    for label in labels:
        rs = build_root_system(label)
        weights[label] = [lam for lam in product(range(3), repeat=rs.rank)
                          if weyl_dim(rs, lam) <= 300]
    pairs = st.sampled_from(labels).flatmap(
        lambda label: st.tuples(st.just(label), st.sampled_from(weights[label])))

    @hypothesis.settings(max_examples=30, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(pairs)
    def check(pair):
        label, lam = pair
        rs = build_root_system(label)
        simple = [tuple(int(k == j) for k in range(rs.rank)) for j in range(rs.rank)]
        mults = weight_multiplicities(rs, lam)
        for mu, m in mults.items():
            x = rs.fund_to_root(mu)
            for j, a in enumerate(simple):
                c = 2 * rs.inner(x, a) / rs.norms[j]
                y = tuple(xk - c * ak for xk, ak in zip(x, a))
                nu = tuple(2 * rs.inner(y, b) / rs.norms[k] for k, b in enumerate(simple))
                assert mults.get(nu) == m, (pair, mu, j)

    check()
