"""Classification rows, the weight filter, ambient search, and table sweeps."""

from collections import Counter
from fractions import Fraction as Q
from itertools import product

import pytest

from qsym import classify, liealg, poisson
from qsym.bialg import _cybe_tensor, _is_invariant, bd_r_matrix, enumerate_bd_triples, standard_r
from qsym.liealg import highest_weight_module, shared_type, tt_skew
from qsym.rootsys import (_SERIES, InvalidType, NotDominant, _rank_ok, build_root_system, cartan_matrix,
                          cominuscule_nodes, normalize_type, weight_multiplicities, weyl_dim)
from qsym.classify import (
    BudgetExceeded,
    classification_table,
    classify_pair,
    geometric_ambients,
    in_classification_list,
    paper_diff,
    weight_filter,
)


def test_weight_filter_examples():
    cases = [
        ("A1", (1,), True),
        ("A1", (2,), True),
        ("A1", (3,), False),
        ("B3", (0, 0, 1), True),
        ("G2", (1, 0), True),
        ("A2", (1, 1), False),
    ]
    for label, lam, expected in cases:
        rs = build_root_system(label)
        mults = weight_multiplicities(rs, lam)
        assert weight_filter(rs, lam, mults) is expected, (label, lam)


def test_weight_filter_rejects_bad_weights():
    """A bad weight raises before the filter reads any weight of V."""
    class Unread:
        def __iter__(self):
            raise AssertionError("weights read before the dominance check")

    rs = build_root_system("A1")
    for lam in [(0,), (-1,), (1, 0)]:
        with pytest.raises(NotDominant):
            weight_filter(rs, lam, Unread())


def test_weights_that_are_not_ints_are_refused():
    """A weight coordinate that is not an int raises NotDominant everywhere
    a weight enters, and is never read as the int it rounds to; a weight of
    the wrong length is reported by its length."""
    alg = shared_type("A2").algebra
    rs = alg.rs
    for lam in [(1.5, 0), (1.0, 0), (True, 0), (Q(1), 0)]:
        for call in [lambda: classify_pair("A2", lam),
                     lambda: highest_weight_module(alg, lam),
                     lambda: weyl_dim(rs, lam),
                     lambda: weight_multiplicities(rs, lam),
                     lambda: weight_filter(rs, lam, {})]:
            with pytest.raises(NotDominant):
                call()
    with pytest.raises(NotDominant, match="weight has 3 coordinates, rank is 2"):
        weyl_dim(rs, (1, 0, 0))
    with pytest.raises(NotDominant, match="weight has 1 coordinates, rank is 2"):
        weight_multiplicities(rs, (1,))


def test_types_that_are_not_labels_are_refused():
    """classify_pair takes a type label only: a (letter, rank) pair raises
    InvalidType, and a float rank is never read as the int it rounds to."""
    for g_type in [("a", 2.7), ("A", 2)]:
        with pytest.raises(InvalidType):
            classify_pair(g_type, (1, 0))


def test_classify_pair_sl3_natural_all_true():
    row = classify_pair("A2", (1, 0))
    assert row.dim_V == 3
    assert row.weight_filter and row.schouten and row.jacobi
    assert row.geometrically_decomposable and row.semidirect_constructed
    assert row.in_paper_list and row.oracle_ok
    assert ("A3", 1) in row.ambients


def test_classify_pair_sp4_natural_anomaly():
    # the symplectic natural module satisfies the criterion but has no
    # ambient parabolic realization one rank up
    for label, lam in [("C2", (1, 0)), ("C3", (1, 0, 0))]:
        row = classify_pair(label, lam)
        assert row.schouten and row.jacobi, (label, lam)
        assert not row.geometrically_decomposable, (label, lam)
        assert not row.semidirect_constructed, (label, lam)
        assert not row.in_paper_list, (label, lam)


def test_filter_weaker_than_criterion():
    for label, lam in [("B3", (0, 0, 1)), ("G2", (1, 0))]:
        row = classify_pair(label, lam)
        assert row.weight_filter, (label, lam)
        assert not row.schouten and not row.jacobi, (label, lam)
        assert not row.in_paper_list, (label, lam)


def test_coincident_spellings_land_on_one_row():
    a = classify_pair("so5", (1, 0))
    b = classify_pair("sp4", (0, 1))
    assert a.g_type == b.g_type == ("C", 2)
    assert a.lam == b.lam == (0, 1)
    assert a.in_paper_list and b.in_paper_list
    assert ("B2", (1, 0)) in a.aliases
    c = classify_pair("so6", (1, 0, 0))
    assert c.g_type == ("A", 3) and c.lam == (0, 1, 0)
    assert c.in_paper_list


def test_budget_gate():
    with pytest.raises(BudgetExceeded):
        classify_pair("A2", (3, 3), dim_budget=10)
    with pytest.raises(NotDominant):
        classify_pair("A1", (0,))


def test_geometric_ambients_examples():
    assert geometric_ambients("A", 1, (2,)) == [("C2", 2)]
    assert geometric_ambients("C", 3, (1, 0, 0)) == []
    assert geometric_ambients("D", 4, (0, 0, 0, 1)) == [("D5", 1)]
    assert geometric_ambients("D", 5, (0, 0, 0, 0, 1)) == [("E6", 1), ("E6", 6)]
    assert geometric_ambients("E", 6, (1, 0, 0, 0, 0, 0)) == []
    assert geometric_ambients("E", 6, (1, 0, 0, 0, 0, 0), extended=True) == [("E7", 7)]


def test_geometric_ambients_memoises_radicals():
    """A second search over the same ambients computes no nilradical again,
    and the kept nilradical data is immutable."""
    first = geometric_ambients("D", 5, (0, 0, 0, 0, 1))
    misses = liealg._abelian_radical.cache_info().misses
    assert geometric_ambients("D", 5, (0, 0, 0, 0, 1)) == first
    assert liealg._abelian_radical.cache_info().misses == misses
    rs = shared_type("E6").rs
    for node in cominuscule_nodes(rs):
        levi, lam_levi, abelian = classify.abelian_radical_module(rs, node)
        assert isinstance(levi, tuple) and isinstance(lam_levi, tuple), node


def test_geometric_ambients_asks_only_for_ambients_with_a_matching_levi(monkeypatch):
    """An ambient's type is built only when some node's Levi, read off its
    Dynkin diagram, is the pair's type: the E6 row asks for E7 and not for
    A7, B7, C7 or D7, and classifying a Levi diagram builds no type at all."""
    asked = []
    real = classify.shared_type

    def recording(label):
        asked.append(label)
        return real(label)

    def refused(label):
        raise AssertionError("type %s built behind the ambient search" % label)

    monkeypatch.setattr(classify, "shared_type", recording)
    monkeypatch.setattr(liealg, "shared_type", refused)
    liealg._abelian_radical.cache_clear()
    assert geometric_ambients("E", 6, (1, 0, 0, 0, 0, 0), extended=True) == [("E7", 7)]
    assert geometric_ambients("D", 5, (0, 0, 0, 0, 1)) == [("E6", 1), ("E6", 6)]
    assert geometric_ambients("A", 1, (2,)) == [("C2", 2)]
    assert asked == ["E7", "D6", "E6", "A2", "C2", "G2"]


def test_leaf_levi_types_are_the_simple_levis_of_each_ambient():
    """The one memo of an ambient's Levi types holds the (letter, rank) of
    each node whose Levi, read by levi_components, has a single component,
    for every simple type of rank 2..9, and a second read is a cache hit."""
    for rank in range(2, 10):
        for label in classify._simple_types(rank, (6, 7, 8)):
            cartan = cartan_matrix(*normalize_type(label))
            want = set()
            for k in range(rank):
                comps = liealg.levi_components(cartan, k)
                if len(comps) == 1:
                    want.add(comps[0][:2])
            assert classify._leaf_levi_types(label) == want, label
            hits = classify._leaf_levi_types.cache_info().hits
            classify._leaf_levi_types(label)
            assert classify._leaf_levi_types.cache_info().hits == hits + 1, label


def test_simple_types_written_out():
    """The sweep's and the ambient search's simple types per rank, in series
    order: B2 and D3 are left out (they land on C2 and A3), and E only at
    the ranks asked for."""
    by_rank = ["A1", "A2 C2 G2", "A3 B3 C3", "A4 B4 C4 D4 F4", "A5 B5 C5 D5",
               "A6 B6 C6 D6 E6", "A7 B7 C7 D7 E7", "A8 B8 C8 D8 E8", "A9 B9 C9 D9"]
    for e_ranks, dropped in [((6, 7, 8), ()), ((6, 8), ("E7",)),
                             ((), ("E6", "E7", "E8"))]:
        want = [[label for label in labels.split() if label not in dropped]
                for labels in by_rank]
        got = [classify._simple_types(rank, e_ranks) for rank in range(1, 10)]
        assert got == want, e_ranks


def test_hardcoded_list_spot_values():
    yes = [
        ("A", 1, (2,)),
        ("A", 4, (0, 0, 1, 0)),
        ("A", 5, (0, 0, 0, 0, 2)),
        ("B", 4, (1, 0, 0, 0)),
        ("C", 2, (0, 1)),
        ("D", 4, (0, 0, 1, 0)),
        ("D", 5, (0, 0, 0, 1, 0)),
        ("E", 6, (0, 0, 0, 0, 0, 1)),
    ]
    no = [
        ("A", 5, (0, 0, 1, 0, 0)),
        ("B", 3, (0, 0, 1)),
        ("C", 2, (1, 0)),
        ("C", 3, (0, 0, 1)),
        ("D", 6, (0, 0, 0, 0, 0, 1)),
        ("G", 2, (1, 0)),
        ("E", 7, (1, 0, 0, 0, 0, 0, 0)),
    ]
    for letter, rank, lam in yes:
        assert in_classification_list(letter, rank, lam), (letter, rank, lam)
    for letter, rank, lam in no:
        assert not in_classification_list(letter, rank, lam), (letter, rank, lam)


def _listed_by_hand(letter, rank, lam):
    """The classification list with every spelling written out: the A dual,
    the D4 triality orbit, the D5 spin swap and the E6 flip."""
    lam = tuple(lam)

    def e(i, m=1):
        return tuple(m if j == i else 0 for j in range(rank))

    if letter == "A":
        allowed = {e(0), e(0, 2), e(rank - 1), e(rank - 1, 2)}
        if rank >= 2:
            allowed.add(e(1))
            allowed.add(e(rank - 2))
        return lam in allowed
    if letter == "B":
        return lam == e(0)
    if letter == "C":
        return rank == 2 and lam == e(1)
    if letter == "D":
        if lam == e(0):
            return True
        if rank == 4:
            return lam in (e(2), e(3))
        if rank == 5:
            return lam in (e(3), e(4))
        return False
    if letter == "E":
        return rank == 6 and lam in (e(0), e(5))
    return False


def test_classification_list_equals_the_written_out_spellings():
    """The list read through _weight_spellings equals the hand-written one:
    every simple type of rank <= 8 with coordinates <= 1, rank <= 5 with
    coordinates <= 2, and the B2 and D3 spellings with coordinates <= 3."""
    cases = [(letter, rank, 1) for rank in range(1, 9) for letter in _SERIES]
    cases += [(letter, rank, 2) for rank in range(1, 6) for letter in _SERIES]
    cases += [("B", 2, 3), ("D", 3, 3)]
    for letter, rank, top in cases:
        if not _rank_ok(letter, rank):
            continue
        for lam in product(range(top + 1), repeat=rank):
            assert in_classification_list(letter, rank, lam) == \
                _listed_by_hand(letter, rank, lam), (letter, rank, lam)


def test_bd_verdicts_are_triple_independent(monkeypatch):
    """Every BD verdict equals the standard one, and a row builds one bracket
    table (through generator_brackets), not one per triple, and no pair
    operator."""
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    def refused(*args):
        raise AssertionError("a pair operator was built")

    real = classify.generator_brackets
    monkeypatch.setattr(classify, "generator_brackets", counted)
    monkeypatch.setattr(poisson, "_pair_matrix", refused)
    for label, lam in [("A2", (1, 0)), ("A2", (1, 1))]:
        calls.clear()
        row = classify_pair(label, lam, all_bd=True)
        assert len(row.bd_verdicts) == 3
        assert set(row.bd_verdicts.values()) == {row.schouten}, (label, lam)
        assert len(calls) == 1, (label, lam)


def test_bd_verdicts_run_one_schouten_per_distinct_tensor(monkeypatch):
    """Under all_bd a row calls schouten_promoted once, for the standard r,
    when every triple's [[r-, r-]] equals the standard one; a triple whose
    memoised tensor differs gets a call of its own, on that tensor."""
    calls = []

    def counted(tensor, mod, invariant=False):
        calls.append(tensor)
        assert invariant, "a [[r-, r-]] not certified invariant"
        return real(tensor, mod, invariant=invariant)

    real = classify.schouten_promoted
    monkeypatch.setattr(classify, "schouten_promoted", counted)
    for label, lam in [("A2", (1, 0)), ("A2", (1, 1)), ("A3", (1, 0, 0)), ("A3", (1, 0, 1))]:
        calls.clear()
        row = classify_pair(label, lam, all_bd=True)
        assert len(row.bd_verdicts) == len(enumerate_bd_triples(shared_type(label).rs))
        assert calls == [classify._r_tensor(shared_type(label).algebra, None)[1][1]], (label, lam)

    # the zero tensor differs from the standard one, and its verdict (True)
    # differs from the adjoint row's standard verdict (False)
    typ = shared_type("A2")
    triple = next(t for t in enumerate_bd_triples(typ.rs) if t.delta1)
    real_r_tensor = classify._r_tensor

    def zeroed(alg, *t):
        r, cybe, invariant = real_r_tensor(alg, *t)
        return (r, (Q(1), {}), True) if t == (triple,) else (r, cybe, invariant)

    monkeypatch.setattr(classify, "_r_tensor", zeroed)
    calls.clear()
    row = classify_pair("A2", (1, 1), all_bd=True)
    assert calls == [real_r_tensor(typ.algebra, None)[1][1], {}]
    assert row.schouten is False and row.bd_verdicts[triple.key()] is True
    assert [v for k, v in row.bd_verdicts.items() if k != triple.key()] == [False, False]


def test_r_tensor_memo_builds_once_per_type_and_triple(monkeypatch):
    """Over a whole --all-bd sweep, [[r-, r-]] is built once per type for
    the standard r and once per type and BD triple, not once per row."""
    classify._r_tensor.cache_clear()
    calls = []

    def counted(alg, r):
        calls.append(alg.rs.label)
        return real(alg, r)

    real = classify._cybe_tensor
    monkeypatch.setattr(classify, "_cybe_tensor", counted)
    rows = classification_table(3, 20, all_bd=True)
    labels = {r.label for r in rows}
    assert Counter(calls) == {label: 1 + len(enumerate_bd_triples(shared_type(label).rs))
                              for label in labels}
    assert len(rows) > len(labels)


def test_r_tensor_memo_holds_fresh_tensors():
    """The memoised r, [[r-, r-]] and invariance verdict equal freshly built
    ones, for the standard r and every BD triple, and every spelling shares
    one memo."""
    def fresh(alg, r):
        cybe = _cybe_tensor(alg, tt_skew(r))
        return r, cybe, _is_invariant(alg, cybe[1])

    for label, lam in [("A3", (1, 0, 0)), ("C2", (0, 1))]:
        classify_pair(label, lam, all_bd=True)
        typ = shared_type(label)
        alg = typ.algebra
        misses = classify._r_tensor.cache_info().misses
        assert classify._r_tensor(alg, None) == fresh(alg, standard_r(alg)), label
        for triple in enumerate_bd_triples(typ.rs):
            r_t, _ = bd_r_matrix(alg, triple)
            assert classify._r_tensor(alg, triple) == fresh(alg, r_t), (label, triple)
        assert classify._r_tensor.cache_info().misses == misses, label
    assert shared_type("so10").algebra is shared_type("D5").algebra


def test_sweep_builds_no_fraction_module_matrix(monkeypatch):
    """A sweep row reads only the module's int form: with Module.fractions
    made to raise, classify_pair still runs its every verdict, --all-bd and
    a parabolic ambient (A3 (1, 0, 0)) included."""
    def refuse(self):
        raise AssertionError("Fraction module matrices built")

    monkeypatch.setattr(liealg.Module, "fractions", refuse)
    with pytest.raises(AssertionError, match="Fraction module"):
        highest_weight_module(shared_type("A1").algebra, (1,)).fractions()
    rows = [classify_pair("A2", (1, 1), all_bd=True), classify_pair("C3", (0, 1, 0)),
            classify_pair("B3", (0, 0, 1)), classify_pair("A3", (1, 0, 0))]
    assert rows[0].bd_verdicts and all(row.oracle_ok for row in rows)
    assert rows[3].ambients and rows[3].semidirect_constructed


def test_sweep_reads_no_fraction_adjoint(monkeypatch):
    """The sweep's [[r-, r-]] tensors, the parabolic cobracket and its axiom
    check all read the int brackets (bialg.int_brackets): with the Fraction
    adjoint made to raise and the memos emptied, A3 (1, 0, 0), which has a
    parabolic ambient, and A2 (1, 1) under all_bd still classify. No
    Fraction cobracket (ad_two_tensor) is left in bialg."""
    from qsym import bialg

    def refuse(self):
        raise AssertionError("Fraction adjoint built")

    assert not hasattr(bialg, "ad_two_tensor")
    monkeypatch.setattr(liealg.BracketTable, "adjoint_rep", refuse)
    bialg._parabolic.cache_clear()
    classify._r_tensor.cache_clear()
    row = classify_pair("A3", (1, 0, 0))
    assert row.ambients and row.semidirect_constructed and row.passing
    row = classify_pair("A2", (1, 1), all_bd=True)
    assert len(row.bd_verdicts) == len(enumerate_bd_triples(shared_type("A2").rs))


def test_table_rank_two():
    rows = classification_table(2, 16)
    passing = {(r.label, r.lam) for r in rows if r.passing}
    assert passing == {
        ("A1", (1,)), ("A1", (2,)),
        ("A2", (1, 0)), ("A2", (2, 0)), ("A2", (0, 1)), ("A2", (0, 2)),
        ("C2", (0, 1)),
    }
    diff = paper_diff(rows)
    assert diff["missing"] == [] and diff["extra"] == []
    c2 = next(r for r in rows if r.label == "C2" and r.lam == (0, 1))
    assert ("B2", (1, 0)) in c2.aliases
    g2 = next(r for r in rows if r.label == "G2" and r.lam == (1, 0))
    assert not g2.passing
    # no B2 or D3 rows: coincident series are canonicalized away
    assert not any(r.label in ("B2", "D3") for r in rows)


def test_table_tiny_budget():
    rows = classification_table(1, 2)
    assert len(rows) == 1
    assert rows[0].label == "A1" and rows[0].lam == (1,) and rows[0].passing


def test_table_rank_five_invariants():
    rows = classification_table(5, 16)
    keyed = {(r.label, r.lam) for r in rows if r.passing}
    assert ("D5", (0, 0, 0, 1, 0)) in keyed
    assert ("D5", (0, 0, 0, 0, 1)) in keyed
    diff = paper_diff(rows)
    assert diff["missing"] == [] and diff["extra"] == []
    for r in rows:
        assert r.jacobi == r.schouten, (r.label, r.lam)
        assert r.oracle_ok, (r.label, r.lam)
        if r.in_paper_list:
            assert r.weight_filter, (r.label, r.lam)
        if r.semidirect_constructed:
            assert r.geometrically_decomposable and r.schouten, (r.label, r.lam)
        if r.passing:
            assert r.semidirect_constructed, (r.label, r.lam)
    anomalies = {(r.label, r.lam) for r in rows if r.schouten and not r.in_paper_list}
    assert anomalies == {
        ("C2", (1, 0)), ("C3", (1, 0, 0)),
        ("C4", (1, 0, 0, 0)), ("C5", (1, 0, 0, 0, 0)),
    }
    # deterministic ordering: series label, then weight lexicographically
    keys = [((r.g_type[0], r.g_type[1]), r.lam) for r in rows]
    assert keys == sorted(keys)
