"""Classification sweep: which pairs (g, V) admit a semidirect bialgebra.

Each row of the sweep records, for a simple type and a dominant weight, the
necessary weight filter, the Schouten-square criterion and its independent
Jacobi oracle, whether g acts on V as the Levi factor on the abelian
nilradical of some cominuscule parabolic one rank up, whether that parabolic
construction actually produces a bialgebra with all axioms checked, and
membership in the hard-coded list of pairs the sweep is expected to find.

Rows are emitted under canonical series labels: the rank-2 B/C coincidence
is reported as C2 (with the B2 spelling attached as an alias) and D3 input
is folded into A3, so coincident spellings like so5/sp4 land on one row.
"""

from collections import Counter
from functools import cache
from itertools import permutations

from .bialg import (
    _cybe_tensor,
    _is_invariant,
    bd_r_matrix,
    enumerate_bd_triples,
    parabolic_semidirect,
    standard_r,
)
from .liealg import (
    abelian_radical_module,
    highest_weight_module,
    levi_components,
    shared_type,
    tt_skew,
)
from .poisson import generator_brackets, jacobi_oracle, schouten_promoted
from .rootsys import (
    _SERIES,
    NotDominant,
    _check_dominant,
    _rank_ok,
    cartan_matrix,
    cominuscule_nodes,
    normalize_type,
    type_label,
    weight_multiplicities,
    weyl_dim,
)

DEFAULT_DIM_BUDGET = 128


class BudgetExceeded(ValueError):
    """The requested module is larger than the configured dimension budget."""


# ---------------------------------------------------------------------------
# the necessary weight filter
# ---------------------------------------------------------------------------

def weight_filter(rs, lam, mults):
    """Root-gap test: lowered weights must stay within one root of lam.

    For every weight mu of V(lam) and every simple i with (lam, alpha_i) > 0
    and (mu, alpha_i) < 0, either lam - mu is in R+ u {0} or lam - mu -
    alpha_i is in R+.  Necessary for the semidirect structure to exist, and
    strictly weaker than the Schouten criterion.

    mults holds the weights of V(lam) (the keys of
    rootsys.weight_multiplicities(rs, lam)); classify_pair passes the ones it
    already computed for the Weyl/Freudenthal oracle.
    """
    _check_dominant(rs, lam)
    if not any(lam):
        raise NotDominant("need a nonzero dominant weight, got %r" % (lam,))
    # lam - mu and alpha_i (row i of the Cartan matrix) in fundamental coordinates
    positive = {rs.root_to_fund(g) for g in rs.positive_roots}
    for mu in mults:
        diff = tuple(a - b for a, b in zip(lam, mu))
        if not any(diff):
            continue
        in_rplus = diff in positive
        for i in range(rs.rank):
            if lam[i] > 0 and mu[i] < 0 and not in_rplus:
                if tuple(a - b for a, b in zip(diff, rs.cartan[i])) not in positive:
                    return False
    return True


# ---------------------------------------------------------------------------
# the hard-coded verdict list and spelling bookkeeping
# ---------------------------------------------------------------------------

def in_classification_list(letter, rank, lam):
    """Membership of (letter rank, lam) in the expected passing list.

    The list holds one weight per listed pair: for A, omega1, 2 omega1 and
    (rank >= 2) omega2; for B, omega1; for C2, omega2; for D, omega1, and
    omega4 at D5; for E6, omega1. The other spellings (the A dual, the D spin
    swap and triality, the E6 flip) are the diagram automorphism images that
    _weight_spellings computes, so lam is listed when one of its spellings in
    the same series and rank is.
    """

    def e(i, m=1):
        return tuple(m if j == i else 0 for j in range(rank))

    listed = {"A": [e(0), e(0, 2)] + ([e(1)] if rank >= 2 else []),
              "B": [e(0)],
              "C": [e(1)] if rank == 2 else [],
              "D": [e(0)] + ([e(3)] if rank == 5 else []),
              "E": [e(0)] if rank == 6 else []}.get(letter, [])
    return any(s == letter and n == rank and v in listed
               for s, n, v in _weight_spellings(letter, rank, lam))


def _weight_spellings(letter, rank, lam):
    """All (series, rank, weight) spellings of one abstract pair.

    Closes lam under the diagram automorphisms of its type (A reversal, the
    D spin swap, the full triality orbit for D4, the order-2 flip for E6)
    and bridges the rank-2 B/C coincidence by swapping coordinates.
    """
    lam = tuple(lam)
    variants = {lam}
    if letter == "A":
        variants.add(lam[::-1])
    elif letter == "D":
        if rank == 4:
            a, b, c, d = lam
            variants.update((p, b, q, s) for p, q, s in permutations((a, c, d)))
        else:
            variants.add(lam[:-2] + (lam[-1], lam[-2]))
    elif letter == "E" and rank == 6:
        a1, a2, a3, a4, a5, a6 = lam
        variants.add((a6, a2, a5, a4, a3, a1))
    out = {(letter, rank, v) for v in variants}
    if (letter, rank) == ("C", 2):
        out.update(("B", 2, v[::-1]) for v in variants)
    elif (letter, rank) == ("B", 2):
        out.update(("C", 2, v[::-1]) for v in variants)
    return out


def _canonical_pair(label, lam):
    """Resolve a type label (any spelling normalize_type reads) and the
    coincidences B2 = C2, D3 = A3 to (letter, rank, lam, aliases)."""
    letter, rank = normalize_type(label)
    lam = tuple(lam)
    if len(lam) != rank:
        raise NotDominant("weight has %d coordinates, rank is %d"
                          % (len(lam), rank))
    if (letter, rank) == ("B", 2):
        letter, lam = "C", lam[::-1]
    elif (letter, rank) == ("D", 3):
        letter, lam = "A", (lam[1], lam[0], lam[2])
    aliases = []
    if (letter, rank) == ("C", 2):
        aliases.append(("B2", lam[::-1]))
    return letter, rank, lam, aliases


# ---------------------------------------------------------------------------
# geometric decomposability: ambient cominuscule parabolic subalgebras
# ---------------------------------------------------------------------------

def _simple_types(rank, e_ranks):
    """The labels of the simple types of one rank in series order, E only
    at e_ranks: what shared_type takes.

    B2 and D3 are left out: _canonical_pair folds them into C2 and A3.
    """
    return [type_label(letter, rank) for letter in _SERIES
            if _rank_ok(letter, rank) and (letter, rank) not in (("B", 2), ("D", 3))
            and (letter != "E" or rank in e_ranks)]


@cache
def _leaf_levi_types(label):
    """The (letter, rank) of the Levi at each leaf of label's Dynkin diagram,
    a node with one neighbour: the only nodes whose Levi is simple. Read off
    the diagram, so no root system is built."""
    cartan = cartan_matrix(*normalize_type(label))
    return frozenset(levi_components(cartan, k)[0][:2]
                     for k, row in enumerate(cartan) if sum(map(bool, row)) == 2)


def geometric_ambients(letter, rank, lam, extended=False):
    """Ambient (label, node) pairs whose cominuscule radical realizes (g, V).

    The Levi of a maximal parabolic has semisimple corank one, so only
    simple types of rank + 1 can put a simple g on an abelian nilradical.
    The E7 ambient is searched only when `extended` is set.
    """
    wanted = _weight_spellings(letter, rank, tuple(lam))
    found = []
    for label in _simple_types(rank + 1, (6, 7, 8) if extended else (6, 8)):
        # build a root system only where some leaf's Levi is the pair's type
        if _leaf_levi_types(label).isdisjoint(w[:2] for w in wanted):
            continue
        ambient = shared_type(label)
        for node in cominuscule_nodes(ambient.rs):
            levi, lam_levi, abelian = abelian_radical_module(ambient.rs, node)
            if not abelian or len(levi) != 1:
                continue
            l2, r2 = levi[0]
            if (l2, r2, lam_levi) in wanted:
                found.append((ambient.rs.label, node))
    return found


# ---------------------------------------------------------------------------
# rows and the sweep
# ---------------------------------------------------------------------------

class ClassificationRow:
    """Verdicts for one (simple type, dominant weight) pair."""

    def __init__(self, g_type, lam, dim_V, weight_filter, schouten, jacobi,
                 geometrically_decomposable, semidirect_constructed,
                 in_paper_list, aliases=(), ambients=(), bd_verdicts=None,
                 oracle_ok=True):
        self.g_type = g_type
        self.lam = tuple(lam)
        self.dim_V = dim_V
        self.weight_filter = weight_filter
        self.schouten = schouten
        self.jacobi = jacobi
        self.geometrically_decomposable = geometrically_decomposable
        self.semidirect_constructed = semidirect_constructed
        self.in_paper_list = in_paper_list
        self.aliases = list(aliases)
        self.ambients = list(ambients)
        self.bd_verdicts = bd_verdicts
        self.oracle_ok = oracle_ok

    @property
    def label(self):
        return type_label(*self.g_type)

    @property
    def passing(self):
        return self.schouten and self.geometrically_decomposable

    def as_dict(self):
        """The row as the command line prints it: every verdict, passing and
        oracle_ok, and bd_verdicts when they were computed."""
        d = {
            "type": self.label,
            "lam": list(self.lam),
            "dim": self.dim_V,
            "weight_filter": self.weight_filter,
            "schouten": self.schouten,
            "jacobi": self.jacobi,
            "geometrically_decomposable": self.geometrically_decomposable,
            "semidirect_constructed": self.semidirect_constructed,
            "in_paper_list": self.in_paper_list,
            "aliases": [[t, list(w)] for t, w in self.aliases],
            "ambients": ["%s:%d" % (label, node) for label, node in self.ambients],
            "passing": self.passing,
            "oracle_ok": self.oracle_ok,
        }
        if self.bd_verdicts is not None:
            d["bd_verdicts"] = {"%r" % (k,): v for k, v in sorted(self.bd_verdicts.items())}
        return d

    def __repr__(self):
        return "ClassificationRow(%s, %r, %s)" % (
            self.label, self.lam, "pass" if self.passing else "fail")


@cache
def _r_tensor(alg, triple):
    """(r, (c, t), invariant) for the standard r (triple None) or a BD
    triple's r-matrix: [[r-, r-]] = c * t (bialg._cybe_tensor) and whether t
    is g-invariant (bialg._is_invariant), on which schouten_promoted reads
    dominant wedges only. A triple with the standard pair shares its entry."""
    r = standard_r(alg) if triple is None else bd_r_matrix(alg, triple)[0]
    cybe = _cybe_tensor(alg, tt_skew(r))
    standard = triple is not None and _r_tensor(alg, None)
    if standard and cybe == standard[1]:
        return (r,) + standard[1:]
    return r, cybe, _is_invariant(alg, cybe[1])


def classify_pair(label, lam, dim_budget=DEFAULT_DIM_BUDGET, all_bd=False,
                  extended=False):
    """Evaluate every verdict for one pair; see ClassificationRow.

    No pair operator is built: the Schouten verdict is schouten_promoted on
    the standard r's [[r-, r-]] and the module, read on the dominant wedges
    once the tensor is checked invariant, and Jacobi reads the standard r's
    generator_brackets. Each r and its [[r-, r-]] are made once per type
    and triple, that check once per distinct tensor (_r_tensor). Under
    all_bd, a triple whose [[r-, r-]] equals the standard r's takes the
    standard verdict, exact as the verdict is a function of (tensor, module)
    alone; any other triple gets its own schouten_promoted call.
    """
    if dim_budget < 1:
        raise ValueError("dim_budget must be at least 1, got %d" % dim_budget)
    letter, rank, lam, aliases = _canonical_pair(label, lam)
    typ = shared_type(type_label(letter, rank))
    rs = typ.rs
    if not any(lam):
        raise NotDominant("the zero weight is out of scope")
    dim = weyl_dim(rs, lam)
    if dim > dim_budget:
        raise BudgetExceeded("dim V = %d exceeds the budget %d" % (dim, dim_budget))
    mults = weight_multiplicities(rs, lam)
    wf = weight_filter(rs, lam, mults)
    alg = typ.algebra
    mod = highest_weight_module(alg, lam)
    oracle_ok = mod.dim == dim and Counter(mod.weights) == dict(mults)
    r, cybe, invariant = _r_tensor(alg, None)
    schouten = schouten_promoted(cybe[1], mod, invariant=invariant)
    jacobi = jacobi_oracle(generator_brackets(r, mod))
    bd_verdicts = None
    if all_bd:
        bd_verdicts = {}
        for triple in enumerate_bd_triples(rs):
            _, cybe_t, invariant_t = _r_tensor(alg, triple)
            bd_verdicts[triple.key()] = schouten if cybe_t == cybe else schouten_promoted(
                cybe_t[1], mod, invariant=invariant_t)
    ambients = geometric_ambients(letter, rank, lam, extended=extended)
    semidirect = False
    if ambients:
        label2, node = ambients[0]
        _, report = parabolic_semidirect(label2, node)
        semidirect = all(report.values())
    return ClassificationRow(
        (letter, rank), lam, dim, wf, schouten, jacobi,
        bool(ambients), semidirect, in_classification_list(letter, rank, lam),
        aliases=aliases, ambients=ambients, bd_verdicts=bd_verdicts,
        oracle_ok=oracle_ok)


def _dominant_weights_within(rs, dim_budget):
    """Nonzero dominant weights with dim V <= budget, lexicographically.

    The Weyl dimension grows when any coordinate grows, so the search can
    stop expanding a weight as soon as it leaves the budget.
    """
    zero = (0,) * rs.rank
    seen = {zero}
    out = []
    frontier = [zero]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(rs.rank):
                w = tuple(c + (1 if k == i else 0) for k, c in enumerate(v))
                if w in seen:
                    continue
                seen.add(w)
                if weyl_dim(rs, w) <= dim_budget:
                    out.append(w)
                    nxt.append(w)
        frontier = nxt
    out.sort()
    return out


def classification_table(max_rank, dim_budget, all_bd=False, extended=False):
    """One row per simple type of rank <= max_rank and dominant weight in budget.

    Canonical series only: B2 and D3 rows are emitted under C2 and A3. The
    E series joins the sweep only under `extended` (its smallest faithful
    modules are already large). Ordering is deterministic: type label, then
    weight lexicographically.
    """
    if max_rank < 1:
        raise ValueError("max_rank must be at least 1, got %d" % max_rank)
    if dim_budget < 1:
        raise ValueError("dim_budget must be at least 1, got %d" % dim_budget)
    types = sorted((shared_type(label) for r in range(1, max_rank + 1)
                    for label in _simple_types(r, (6, 7, 8) if extended else ())),
                   key=lambda typ: typ.rs.components)
    rows = []
    for typ in types:
        for lam in _dominant_weights_within(typ.rs, dim_budget):
            rows.append(classify_pair(typ.rs.label, lam, dim_budget=dim_budget,
                                      all_bd=all_bd, extended=extended))
    return rows


def paper_diff(rows):
    """Rows whose computed passing verdict disagrees with the embedded list."""
    missing = [r for r in rows if r.in_paper_list and not r.passing]
    extra = [r for r in rows if r.passing and not r.in_paper_list]
    return {"missing": missing, "extra": extra}
