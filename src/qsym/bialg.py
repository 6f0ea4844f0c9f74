"""Classical r-matrices, Lie bialgebra axioms, doubles, semidirect cobrackets.

Two-tensors are sparse maps (basis index, basis index) -> Fraction over a
carrier algebra; a cobracket is one pair (E, {x: E * delta(x)}) of ints in
lowest terms (_int_cobracket), with no entry where delta(x) = 0. Carriers
are liealg.BracketTable with names: ChevalleyAlgebra, SemidirectAlgebra and
the Drinfeld double.

The CYBE tensor, the cobracket -ad r, check_cybe's invariance check and the
bialgebra axioms read a carrier's int table as it is stored (int_brackets:
C [a, p], C = carrier.den, cleared once where the table is built), and r
cleared by the lcm D of its own; the CYBE tensor stays in ints, over one
Fraction scale. check_cybe's tensor-cube route stays on adjoint_rep.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import cache
from itertools import combinations, permutations
from math import gcd, lcm

from .liealg import (
    BracketTable,
    casimir,
    highest_weight_module,
    shared_type,
    _mcomm,
    _mscaled_sum,
    _vadd_into,
    tt_op,
    tt_sym,
)
from .poisson import _check_antisymmetric, _pair_matrix, schouten_square
from .rootsys import cominuscule_nodes
from .scalars import cleared, echelon


class InconsistentConstraints(ValueError):
    """The Cartan-part linear system for a BD triple has no solution."""


class NotFaithful(ValueError):
    """The supplied module kills part of the semisimple algebra."""


class NotAntisymmetric(ValueError):
    """A cobracket value failed delta + delta^op = 0."""


class NotCominuscule(ValueError):
    """The marked node is not an int or has a non-abelian nilradical."""


class TripleTouchesNode(ValueError):
    """The BD triple uses the marked cominuscule node."""


# ---------------------------------------------------------------------------
# two-tensor helpers
# ---------------------------------------------------------------------------

def int_brackets(carrier):
    """(C, rows), rows[a] the column form of C ad_a, C = carrier.den: rows[a][p]
    is the table's own int vector for a < p, never changed, its negation for a > p.
    No memo: a functools.cache keeps every carrier's rows alive, and raised
    the rank-4 sweep's peak RSS by 5% (20.0 to 21.1 MB, CPython 3.11)."""
    rows = [{} for _ in range(carrier.dim)]
    for (a, p), col in carrier.table.items():
        rows[a][p] = col
        rows[p][a] = {k: -v for k, v in col.items()}
    return carrier.den, rows


def _int_cobracket(brackets, t, xs):
    """(E, {x: E * (-ad_x t)}) over ints in lowest terms at each x of xs:
    summed on int_brackets' (C, rows) and t cleared by D at scale C * D, then
    divided by its gcd with every entry. No zero entry, no zero -ad_x t."""
    big_c, rows = brackets
    big_d, ti = cleared(t)
    delta = {}
    for x in xs:
        if d := {key: v for key, v in _ad_into({}, rows[x], ti, -1).items() if v}:
            delta[x] = d
    g = gcd(big_c * big_d, *(v for d in delta.values() for v in d.values()))
    return big_c * big_d // g, {x: {k: v // g for k, v in d.items()} for x, d in delta.items()}


def _ad_into(acc, row, t, scale=1):
    """acc += scale * [x (x) 1 + 1 (x) x, t], where row maps p to [x, p].

    Hand-written, not _vadd_into, as the inner loop of the cobracket and the
    cocycle check: it may leave zero entries, which callers drop or test."""
    for (p, q), v in t.items():
        v *= scale
        out = row.get(p)
        if out:
            for k, c in out.items():
                acc[(k, q)] = acc.get((k, q), 0) + v * c
        out = row.get(q)
        if out:
            for k, c in out.items():
                acc[(p, k)] = acc.get((p, k), 0) + v * c
    return acc


# ---------------------------------------------------------------------------
# r-matrices
# ---------------------------------------------------------------------------

def standard_r(alg):
    """r = sum_(a>0) (a,a)/2 E_a (x) F_a + c0/2."""
    _, c0 = casimir(alg)
    r = {k: v / 2 for k, v in c0.items()}
    for g in alg.pos_roots:
        r[(alg.e_idx[g], alg.f_idx[g])] = alg.rs.inner(g, g) / 2
    return r


class BDTriple:
    """Belavin-Drinfeld triple: tau: delta1 -> delta2, 1-indexed nodes.

    A value: equal and hashed by key(), and never changed after it is built.
    """

    def __init__(self, delta1, delta2, tau):
        self.delta1 = tuple(sorted(delta1))
        self.delta2 = tuple(sorted(delta2))
        self.tau = dict(tau)

    def validate(self, rs):
        d1, d2 = set(self.delta1), set(self.delta2)
        if set(self.tau) != d1 or set(self.tau.values()) != d2 or len(d1) != len(d2):
            raise ValueError("tau is not a bijection delta1 -> delta2")
        for i in d1:
            for j in d1:
                a, b = i - 1, j - 1
                ta, tb = self.tau[i] - 1, self.tau[j] - 1
                if rs.bform[a][b] != rs.bform[ta][tb]:
                    raise ValueError("tau does not preserve the form at (%d, %d)" % (i, j))
        for i in d1:
            seen = set()
            cur = i
            while cur in d1:
                if cur in seen:
                    raise ValueError("tau orbit of node %d never leaves delta1" % i)
                seen.add(cur)
                cur = self.tau[cur]
        return self

    def key(self):
        return (len(self.delta1), self.delta1, self.delta2,
                tuple(sorted(self.tau.items())))

    def __eq__(self, other):
        return isinstance(other, BDTriple) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        items = ", ".join("%d->%d" % kv for kv in sorted(self.tau.items()))
        return "BDTriple(%s)" % (items or "empty")


def enumerate_bd_triples(rs):
    """All valid triples for a simple root system, deterministically ordered.

    A fresh list each call, over the memoised tuple of _bd_triples.
    """
    return list(_bd_triples(rs))


@cache
def _bd_triples(rs):
    """The triples of enumerate_bd_triples, found once per root system."""
    nodes = list(range(1, rs.rank + 1))
    found = []
    for size in range(rs.rank + 1):
        for d1 in combinations(nodes, size):
            for d2 in combinations(nodes, size):
                for image in permutations(d2):
                    t = BDTriple(d1, d2, dict(zip(d1, image)))
                    try:
                        t.validate(rs)
                    except ValueError:
                        continue
                    found.append(t)
    found.sort(key=BDTriple.key)
    return tuple(found)


def _transport_one(alg, vec, tau0):
    """Image of a single root vector under the subalgebra isomorphism
    E_i -> E_tau(i); vec is {e_index: coeff} with a single entry. E_gamma is
    rebuilt along alg.descent with each E_i replaced by E_tau(i)."""
    (idx, coeff), = vec.items()

    def theta(gamma):
        if gamma in alg.descent:
            i, parent, coef = alg.descent[gamma]
        else:
            i, parent = gamma.index(1), None
        gen = {alg.e_idx[tuple(1 if a == tau0[i] else 0 for a in range(alg.rank))]: Q(1)}
        if parent is None:
            return gen
        return {k: v * coef for k, v in alg.bracket(gen, theta(parent)).items()}

    (idx2, c2), = theta(alg.pos_roots[idx]).items()
    return {idx2: c2 * coeff}


def bd_r_matrix(alg, triple):
    """BD r-matrix and the skew freedom basis of its Cartan part.

    The Cartan part r0 solves r0 + r0^op = c0 and, for every alpha in
    delta1, ((tau alpha) (x) 1)(r0) + (1 (x) alpha)(r0) = 0. The returned
    solution zeroes all free variables in a fixed echelon ordering; the
    freedom basis spans the skew solutions of the homogeneous system.
    """
    rs = alg.rs
    triple.validate(rs)
    rank = alg.rank
    _, c0 = casimir(alg)
    nvar = rank * rank

    def var(i, j):
        return i * rank + j

    # augmented rows over the deterministic column order var(0,0), var(0,1),
    # ..., with the right-hand side last
    aug = []
    for i in range(rank):
        for j in range(i, rank):
            row = [Q(0)] * (nvar + 1)
            row[var(i, j)] += 1
            row[var(j, i)] += 1
            row[nvar] = c0.get((alg.h_idx[i], alg.h_idx[j]), Q(0))
            aug.append(row)
    for a1 in triple.delta1:
        a = a1 - 1
        ta = triple.tau[a1] - 1
        for j in range(rank):
            row = [Q(0)] * (nvar + 1)
            for i in range(rank):
                row[var(i, j)] += Q(rs.cartan[ta][i])
                row[var(j, i)] += Q(rs.cartan[a][i])
            aug.append(row)

    pivots = echelon(aug, nvar)
    if any(row[nvar] for row in aug[len(pivots):]):
        raise InconsistentConstraints("r0 system has no solution")

    free = [c for c in range(nvar) if c not in pivots]
    sol = [Q(0)] * nvar
    for k, col in enumerate(pivots):
        sol[col] = aug[k][nvar]
    freedom = []
    for fc in free:
        vec = [Q(0)] * nvar
        vec[fc] = Q(1)
        for k, col in enumerate(pivots):
            vec[col] = -aug[k][fc]
        t = {}
        for i in range(rank):
            for j in range(rank):
                if vec[var(i, j)]:
                    t[(alg.h_idx[i], alg.h_idx[j])] = vec[var(i, j)]
        freedom.append(t)

    r = {}
    for i in range(rank):
        for j in range(rank):
            if sol[var(i, j)]:
                r[(alg.h_idx[i], alg.h_idx[j])] = sol[var(i, j)]
    for g in alg.pos_roots:
        _vadd_into(r, {(alg.f_idx[g], alg.e_idx[g]): rs.inner(g, g) / 2})

    d1 = {a - 1 for a in triple.delta1}
    tau0 = {a - 1: triple.tau[a] - 1 for a in triple.delta1}
    sub_pos = [g for g in alg.pos_roots
               if all(g[i] == 0 for i in range(rank) if i not in d1)]
    for g in sub_pos:
        half = rs.inner(g, g) / 2
        vec = {alg.e_idx[g]: Q(1)}
        cur = g
        while all(cur[i] == 0 for i in range(rank) if i not in d1):
            vec = _transport_one(alg, vec, tau0)
            (idx2, c2), = vec.items()
            _vadd_into(r, {(alg.f_idx[g], idx2): half * c2,
                           (idx2, alg.f_idx[g]): -half * c2})
            cur = alg.pos_roots[idx2]
    return r, freedom


# ---------------------------------------------------------------------------
# CYBE and bialgebra axioms
# ---------------------------------------------------------------------------

def _cybe_tensor(carrier, r):
    """[r12, r13] + [r12, r23] + [r13, r23] in carrier^(x)3 as a pair (c, t):
    t the int sum over the gcd of its entries, c > 0 a Fraction, the sum
    c * t; (1, {}) for zero. Equal sums have equal pairs, and only they.

    This is also the Schouten square [[r, r]] expanded through the structure
    constants, which the Poisson criterion applies to modules. Summed on
    int_brackets (scale C) and r times D, each term carries D^2 * C; r is
    grouped by leg, so only pairs of terms with a nonzero bracket are read.
    """
    big_c, rows = int_brackets(carrier)
    big_d, rt = cleared(r)
    by_first, by_second = {}, {}
    for (c, d), w in rt.items():
        by_first.setdefault(c, []).append((d, w))
        by_second.setdefault(d, []).append((c, w))
    out = {}
    for (a, b), v in rt.items():
        for c, col in rows[a].items():  # [a, c] (x) b (x) d
            for d, w in by_first.get(c, ()):
                for k, x in col.items():
                    out[k, b, d] = out.get((k, b, d), 0) + v * w * x
        for c, col in rows[b].items():  # a (x) [b, c] (x) d
            for d, w in by_first.get(c, ()):
                for k, x in col.items():
                    out[a, k, d] = out.get((a, k, d), 0) + v * w * x
        for d, col in rows[b].items():  # a (x) c (x) [b, d]
            for c, w in by_second.get(d, ()):
                for k, x in col.items():
                    out[a, c, k] = out.get((a, c, k), 0) + v * w * x
    g = gcd(*out.values())
    if not g:
        return Q(1), {}
    return Q(g, big_d * big_d * big_c), {key: v // g for key, v in out.items() if v}


def _is_invariant(alg, t):
    """Whether a totally antisymmetric int three-tensor t over a
    ChevalleyAlgebra is g-invariant; a t that is not antisymmetric raises
    ValueError, as in schouten_promoted (poisson._check_antisymmetric).

    Every term must have weight 0, the sum of its legs' root weights, and
    ad e_i must kill t for every simple i. That is enough: a weight-0 vector
    of a finite-dimensional module that every e_i kills is a highest weight
    vector of weight 0, so it spans a trivial summand. ad e_i commutes with
    the permutations of the legs, so ad e_i t is antisymmetric too, and is
    zero exactly when its entries at increasing index triples are. Those
    are summed from the terms of t at increasing triples alone: the image
    of a leg is moved into place among the other two, with the sign of the
    move. Read on int_brackets (scale C), so every term carries C > 0.
    """
    weight = alg.weight
    if any(any(map(sum, zip(weight[x], weight[y], weight[z]))) for x, y, z in t):
        return False
    _check_antisymmetric(t)
    ti = [(key, v) for key, v in t.items() if key[0] < key[1] < key[2]]
    _, rows = int_brackets(alg)
    for g in alg.simple:
        row, acc = rows[alg.e_idx[g]], {}
        for key, v in ti:
            for p, (a, b) in enumerate(((key[1], key[2]), (key[0], key[2]), (key[0], key[1]))):
                for k, c in row.get(key[p], {}).items():
                    if k < a:
                        new, q = (k, a, b), 0
                    elif a < k < b:
                        new, q = (a, k, b), 1
                    elif k > b:
                        new, q = (a, b, k), 2
                    else:
                        continue
                    w = c * v if p % 2 == q % 2 else -c * v
                    acc[new] = acc.get(new, 0) + w
        if any(acc.values()):
            return False
    return True


def check_cybe(alg, r, module=None):
    """CYBE and invariance report for r, certified through a faithful module.

    module is a built liealg.Module of alg, read as its ints (a positive
    multiple of the action, so no verdict changes), or None for the adjoint.
    The brackets are expanded exactly in g^(x)3; with a faithful module the
    tensor cube of the representation is injective, so vanishing there is
    equivalent. For small modules (dim^3 <= 1000) the operators on V^(x)3
    are also built explicitly, as the Schouten square of the rho (x) rho
    image of r, and the two routes are required to agree.
    """
    if module is None:
        mats, dim = alg.adjoint_rep(), alg.dim
    else:
        mats, dim = module.ints, module.dim
    for i in range(alg.dim):
        if not mats[i]:
            raise NotFaithful("module kills %s" % alg.names[i])
    holds = not _cybe_tensor(alg, r)[1]
    if dim ** 3 <= 1000:
        cube = schouten_square(_pair_matrix(mats, dim, r), dim)
        assert (not cube) == holds, "tensor-cube route disagrees"
    invariant = not _int_cobracket(int_brackets(alg), tt_sym(r), range(alg.dim))[1]
    return {"cybe_holds": holds, "symmetric_part_invariant": invariant}


def cobracket_from_r(carrier, r):
    """delta(x) = [r, x (x) 1 + 1 (x) x] = -ad_x r, verified antisymmetric.

    Returns delta as _int_cobracket's pair (E, {x: E * delta(x)}) over basis
    indices, with no entry for an x whose delta(x) is zero; a delta(x) that
    is not antisymmetric raises NotAntisymmetric, tested on the ints.
    """
    g_indices = getattr(carrier, "g_indices", None)
    if g_indices is not None:
        gset = set(g_indices)
        for (a, b) in r:
            if a not in gset or b not in gset:
                raise ValueError("r must be supported on the g-part")
    delta = _int_cobracket(int_brackets(carrier), r, range(carrier.dim))
    for x, t in delta[1].items():
        if any(t.get((b, a)) != -v for (a, b), v in t.items()):
            raise NotAntisymmetric("delta(%s) is not antisymmetric" % carrier.names[x])
    return delta


def check_lie_bialgebra(carrier, delta):
    """Axiom report: antisym, co_jacobi, cocycle (+ shape fields for semidirect).

    The axioms are checked on the carrier's int_brackets (scale C) and on
    the ints of the cobracket pair delta (scale E) as stored. Every cocycle
    term then carries C * E, every co-Jacobi term E^2 and every antisymmetry
    term E; a uniform positive factor does not change whether one holds.

    Both are read on carrier.generators, which generate the Lie algebra
    carrier (all of it when absent). The cocycle on pairs (a, b), a a
    generator: the defect c = d delta has dc = 0, which at c(a, .) = c(b, .)
    = 0 leaves c([a, b], .) = 0, so {a : c(a, .) = 0} is a subalgebra.
    Co-Jacobi at the generators once antisym and the cocycle hold (at every
    x otherwise): delta then extends to a derivation D of the Schouten
    bracket, so is D^2, and ker D^2 on g, where co-Jacobi holds, is one.
    """
    n = carrier.dim
    gens = getattr(carrier, "generators", range(n))
    # rows[a][p] = [a, p] and dl[x] = delta(x), scaled to ints
    _, rows = int_brackets(carrier)
    _, dl = delta
    antisym = all(not _vadd_into(dict(t), tt_op(t)) for t in dl.values())

    def cyc_ok(x):
        # t = (1 (x) delta) delta(x); co-Jacobi asks t + its two cyclic shifts = 0
        t = {}
        for (i, j), v in dl.get(x, {}).items():
            _vadd_into(t, {(i, k, l): w for (k, l), w in dl.get(j, {}).items()}, v)
        acc = _vadd_into(dict(t), {(l, i, k): v for (i, k, l), v in t.items()})
        return not _vadd_into(acc, {(k, l, i): v for (i, k, l), v in t.items()})

    def cocycle_ok(a, b):
        # ad_a delta(b) - ad_b delta(a) - delta([a, b]) = 0
        acc = {}
        for k, c in rows[a].get(b, {}).items():
            _vadd_into(acc, dl.get(k, {}), -c)
        _ad_into(acc, rows[a], dl.get(b, {}))
        _ad_into(acc, rows[b], dl.get(a, {}), -1)
        return not any(acc.values())

    cocycle = all(cocycle_ok(a, b) for a in gens for b in range(n) if b > a or b not in gens)
    report = {"antisym": antisym,
              "co_jacobi": all(cyc_ok(x) for x in (gens if antisym and cocycle else range(n))),
              "cocycle": cocycle}
    g_indices = getattr(carrier, "g_indices", None)
    if g_indices is not None:
        gset = set(g_indices)
        vset = set(carrier.v_indices)
        report["g_subbialgebra"] = all(
            a in gset and b in gset
            for x in gset for (a, b) in dl.get(x, {}))
        report["v_shape"] = all(
            (a in gset) != (b in gset)
            for x in vset for (a, b) in dl.get(x, {}))
    return report


# ---------------------------------------------------------------------------
# Drinfeld double
# ---------------------------------------------------------------------------

def drinfeld_double(alg, delta):
    """D = L + L*, the canonical element, and a Jacobi/CYBE/Manin report.

    delta is a cobracket pair (E, ints) as cobracket_from_r returns it. With
    x_i the basis of L and xi_i = n + i its dual basis, the brackets of D are
    [x_i, x_j] of L, [xi_i, xi_j] = sum_k delta(x_k)_ij xi_k for i < j, and
    [x_i, xi_j] = -sum_k [x_i, x_k]_j xi_k + sum_k delta(x_i)_jk x_k.
    Returns (D, r_canonical, report).
    """
    n = alg.dim
    # one denominator C, the lcm of alg's and delta's E (4 at B3)
    (big_a, rows), (big_e, dl) = int_brackets(alg), delta
    big_c = lcm(big_a, big_e)
    up, up_delta = big_c // big_a, big_c // big_e
    table = {}
    for i in range(n):
        for k, out in rows[i].items():
            if i < k:
                table[(i, k)] = {j: c * up for j, c in out.items()}
            for j, c in out.items():
                _vadd_into(table.setdefault((i, n + j), {}), {n + k: -c * up})
        for (j, k), v in dl.get(i, {}).items():
            _vadd_into(table.setdefault((i, n + j), {}), {k: v * up_delta})
            if j < k:
                _vadd_into(table.setdefault((n + j, n + k), {}), {n + i: v * up_delta})
    table = {key: out for key, out in table.items() if out}
    D = BracketTable(2 * n, table, big_c)
    D.names = list(alg.names) + [s + "*" for s in alg.names]

    r_canonical = {(i, n + i): 1 for i in range(n)}

    def jacobiator(a, b, c):
        acc = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for k, v in D.bracket_idx(y, z).items():
                _vadd_into(acc, D.bracket_idx(x, k), v)
        return acc

    jacobi = not any(jacobiator(*abc) for abc in combinations(range(2 * n), 3))

    cybe = not _cybe_tensor(D, r_canonical)[1]

    # the pairing is <k, partner(k)> = 1, so invariance <[a, b], c> +
    # <b, [a, c]> = 0 reads [a, b]_k = -[a, partner(k)]_partner(b)
    def partner(k):
        return k + n if k < n else k - n

    manin = all(D.bracket_idx(a, partner(k)).get(partner(b), 0) == -v
                for a in range(2 * n) for b in range(2 * n)
                for k, v in D.bracket_idx(a, b).items())
    # halves are isotropic and closed by construction; record the checks
    closed = all((k < n) == (i < n) for (i, j), out in table.items()
                 if (i < n) == (j < n) for k in out)
    report = {"jacobi_holds": jacobi,
              "canonical_r_cybe": cybe,
              "manin_triple": manin and closed}
    return D, r_canonical, report


# ---------------------------------------------------------------------------
# semidirect carriers
# ---------------------------------------------------------------------------

class SemidirectAlgebra(BracketTable):
    """g acting on an abelian ideal V: [x + v, x' + v'] = [x,x'] + x.v' - x'.v."""

    def __init__(self, names, table, g_indices, v_indices, den=1):
        super().__init__(len(names), table, den)
        self.names = names
        self.g_indices = list(g_indices)
        self.v_indices = list(v_indices)


def semidirect_algebra(alg, lam):
    """g acting on V(lam) over den L = module.den; mixed Jacobi verified."""
    mod = highest_weight_module(alg, lam)
    mats, den = mod.ints, mod.den
    n = alg.dim
    names = list(alg.names) + ["v%d" % (k + 1) for k in range(mod.dim)]
    table = {ij: {k: v * den for k, v in out.items()} for ij, out in alg.table.items()}
    for i in range(n):
        for a, col in mats[i].items():
            table[(i, n + a)] = {n + b: v for b, v in col.items()}
    # mixed Jacobi <=> the action matrices represent the brackets (times L^2)
    for i in range(n):
        for j in range(i + 1, n):
            lhs = _mcomm(mats[i], mats[j])
            rhs = _mscaled_sum([(v * den, mats[k])
                                for k, v in alg.bracket_idx(i, j).items()])
            assert lhs == rhs, "module is not a representation at (%d, %d)" % (i, j)
    return SemidirectAlgebra(names, table, range(n), range(n, n + mod.dim), den)


def parabolic_semidirect(label, node, triple=None):
    """Restrict the ambient BD cobracket to the parabolic at a cominuscule node.

    Returns (S, report): S is the parabolic (levi + full Cartan) acting on its
    abelian nilradical of the ambient type `label`, with S.cobracket
    attached; report records closure of delta on the parabolic and the
    bialgebra axiom fields.

    The pair is built once per ambient type, node and triple (_parabolic).
    S is shared between callers and must not be changed; each call returns
    its own copy of the report.
    """
    ambient = shared_type(label)
    rs = ambient.rs
    if type(node) is not int:
        raise NotCominuscule("node must be an int, got %r" % (node,))
    if node not in cominuscule_nodes(rs):
        raise NotCominuscule("node %d has a non-abelian nilradical in %s"
                             % (node, rs.label))
    if triple is None:
        triple = BDTriple((), (), {})
    if node in triple.delta1 or node in triple.delta2:
        raise TripleTouchesNode("triple uses node %d" % node)
    S, report = _parabolic(ambient.algebra, node, triple)
    return S, dict(report)


@cache
def _parabolic(alg, node, triple):
    """The (S, report) pair of parabolic_semidirect, built once per algebra,
    node and triple."""
    r, _ = bd_r_matrix(alg, triple)
    k = node - 1
    levi = ([alg.e_idx[g] for g in alg.pos_roots if g[k] == 0]
            + [alg.h_idx[i] for i in range(alg.rank)]
            + [alg.f_idx[g] for g in alg.pos_roots if g[k] == 0])
    radical = [alg.e_idx[g] for g in alg.pos_roots if g[k] > 0]
    p_indices = levi + radical
    pos = {amb: loc for loc, amb in enumerate(p_indices)}
    names = [alg.names[i] for i in p_indices]
    # one int reading of the ambient (int_brackets) gives the table and delta
    brackets = big_c, rows = int_brackets(alg)
    table = {}
    for a_loc, a_amb in enumerate(p_indices):
        for b_amb, out in rows[a_amb].items():
            b_loc = pos.get(b_amb)
            if b_loc is not None and b_loc > a_loc:
                assert all(k2 in pos for k2 in out), "parabolic not closed"
                table[(a_loc, b_loc)] = {pos[k2]: v for k2, v in out.items()}
    S = SemidirectAlgebra(names, table,
                          range(len(levi)),
                          range(len(levi), len(p_indices)), big_c)
    # e_i for every i, f_i off the node and the Cartan generate p: E at the
    # node's simple root is the lowest weight vector of the irreducible
    # radical, so it generates the radical as a Levi module
    S.generators = sorted(pos[x] for x in [alg.e_idx[g] for g in alg.simple]
                          + [alg.f_idx[g] for g in alg.simple if not g[k]]
                          + list(alg.h_idx.values()))

    big_e, amb_delta = _int_cobracket(brackets, r, p_indices)
    closed = {x: t for x, t in amb_delta.items() if all(a in pos and b in pos for a, b in t)}
    S.cobracket = big_e, {pos[x]: {(pos[a], pos[b]): v for (a, b), v in t.items()}
                          for x, t in closed.items()}
    report = {"closure": len(closed) == len(amb_delta)}
    report.update(check_lie_bialgebra(S, S.cobracket))
    return S, report
