"""Exact semisimple Lie algebras: irreducible modules and Chevalley bases.

Modules are built level by level from the highest weight vector; candidate
vectors f_i(b) are kept or rejected by exact elimination of the contravariant
Gram matrix, which quotients the Verma module to the irreducible one. The
Chevalley basis is bootstrapped from one irreducible module of the type's
own root system, whose highest weight is on each simple component the
fundamental weight of smallest dimension (27 for E6, 56 for E7, 10 for D5;
the adjoint only for E8; the tensor product of these for a product type).
It is faithful, so every structure constant read off it is exact, and it
satisfies Serre's relations, checked first (_check_relations), so it is a
representation: no commutator whose weight is neither a root nor 0 is
computed, as it vanishes, and each root-vector constant is read off one
entry of one commutator, as the root space is a line. Every module runs the
same relation check (highest_weight_module). One recurrence (root_vector_ops)
builds its root-vector operators and every module's: commutators of the
generators along one descent table, each F_gamma rescaled by a factor
measured once so that [E_gamma, F_gamma] = H_gamma.

Sparse matrices are in column form, and one kernel (_vadd_into, _mapply,
_mcompose, _mscaled_sum, _mcomm) works over any exact ring: it builds no
Fraction or QRat of its own, so int matrices stay int, and Fraction and
QRat matrices keep their type; the two-tensor helpers (tt_op, tt_skew,
tt_sym) sum through the same _vadd_into. The scaled form sits on the
kernel: a Fraction scale times a matrix of Python ints (scaled,
scaled_comm, scaled_ratio). The bootstrap runs on it: commutators multiply
ints, and the rescaling factors and structure constants are exact Fraction
ratios found by integer cross-multiplication. A Module (highest_weight_module)
holds the int form of those scaled operators, Fractions on request, checked
against the Weyl/Freudenthal oracle; every function acting on one takes it built.

shared_type is the one cache of root systems and Chevalley algebras, one
entry per type whatever its spelling, and no root system is built outside
it. The Casimir's Cartan part c0 is read off the root system's inverse
Cartan matrix (its fundamental weights); no second inverse is computed here.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import cache, cached_property
from itertools import combinations
from math import gcd
from operator import add, sub

from .rootsys import (_SERIES, _check_dominant, _rank_ok, build_root_system, type_label,
                      weyl_dim)
from .scalars import cleared, den_lcm, echelon


# ---------------------------------------------------------------------------
# sparse matrices in column form: mat[j] = {i: value} means e_j -> sum value e_i
# ---------------------------------------------------------------------------

def _vadd_into(acc, vec, scale=None):
    """acc += scale * vec in place, with no zero stored; returns acc.

    scale None means 1. A new key takes the scaled value itself and a unit
    scale multiplies nothing, so no scalar is built for a zero or a one.
    """
    for i, v in vec.items():
        if scale is not None:
            v = v * scale
        s = acc.get(i)
        if s is not None:
            v = s + v
        if v:
            acc[i] = v
        elif s is not None:
            del acc[i]
    return acc


# two-tensors {(i, j): value} over an algebra's basis, summed by _vadd_into
def tt_op(t):
    return {(j, i): v for (i, j), v in t.items()}


def tt_skew(t):
    return _vadd_into(_vadd_into({}, t, Q(1, 2)), tt_op(t), Q(-1, 2))


def tt_sym(t):
    return _vadd_into(_vadd_into({}, t, Q(1, 2)), tt_op(t), Q(1, 2))


def _mapply(m, vec):
    out = {}
    for j, c in vec.items():
        col = m.get(j)
        if col:
            _vadd_into(out, col, c)
    return out


def _mcompose_into(out, a, b, scale=None):
    """out += scale * a * b in place, with no zero entry and no empty column
    stored; returns out. scale None means 1."""
    for j, col in b.items():
        acc = out.get(j)
        if acc is None:
            acc = {}
        for k, c in col.items():
            ak = a.get(k)
            if ak:
                _vadd_into(acc, ak, c if scale is None else c * scale)
        if acc:
            out[j] = acc
        elif j in out:
            del out[j]
    return out


def _mcompose(a, b):
    return _mcompose_into({}, a, b)


def _mscaled_sum(pairs):
    """Sparse sum of (scale, matrix) pairs; a scale of None is 1."""
    out = {}
    for scale, m in pairs:
        for j, col in m.items():
            acc = out.setdefault(j, {})
            _vadd_into(acc, col, scale)
            if not acc:
                del out[j]
    return out


def _mcomm(a, b, scale=None):
    """scale * (a * b - b * a) in one accumulator; scale None means 1."""
    out = _mcompose_into({}, a, b, scale)
    return _mcompose_into(out, b, a, -1 if scale is None else -scale)


# ---------------------------------------------------------------------------
# scaled matrices: s * M with a Fraction scale s and int entries
# ---------------------------------------------------------------------------
#
# The kernel above on Python ints. No zero entry and no empty column is
# stored, so two matrices with proportional values have equal supports.

def int_columns(m, big_l):
    """Column-form matrix m times big_l, a multiple of every denominator, as ints."""
    return {j: {i: v.numerator * (big_l // v.denominator) for i, v in col.items() if v}
            for j, col in m.items() if any(col.values())}


def scaled(m):
    """The scaled copy of a column-form Fraction matrix, over the lcm of its
    denominators."""
    big_l = den_lcm(v for col in m.values() for v in col.values())
    return Q(1, big_l), int_columns(m, big_l)


def scaled_comm(a, b):
    """The scaled commutator a * b - b * a."""
    (sa, ma), (sb, mb) = a, b
    return sa * sb, _mcomm(ma, mb)


def scaled_ratio(m, base):
    """The Fraction r with m == r * base exactly, or None; base must be nonzero.

    With y the first entry of base and x the entry of m at the same place,
    m == (x/y) * base holds exactly when the supports agree and every entry
    satisfies y * m_ij == x * base_ij, which compares ints only.
    """
    (sm, mm), (sb, mb) = m, base
    if not mm:
        return Q(0)
    if mm.keys() != mb.keys():
        return None
    j0 = min(mb)
    i0 = min(mb[j0])
    y = mb[j0][i0]
    x = mm[j0].get(i0)
    if x is None:
        return None
    for j, col in mb.items():
        mcol = mm[j]
        if mcol.keys() != col.keys():
            return None
        for i, v in col.items():
            if mcol[i] * y != v * x:
                return None
    return sm * x / (sb * y)


# ---------------------------------------------------------------------------
# irreducible highest-weight modules
# ---------------------------------------------------------------------------

def module_matrices(rs, lam):
    """V(lam), lam in fundamental coordinates, as (weights, e, f): the weight of
    each basis index and, per simple i, the Fraction matrices of e_i and f_i."""
    _check_dominant(rs, lam)
    rank = rs.rank
    alpha_fund = [tuple(rs.cartan[i]) for i in range(rank)]

    weights = [tuple(lam)]
    e = [{} for _ in range(rank)]
    f = [{} for _ in range(rank)]
    prev = [0]
    gram_prev = {(0, 0): Q(1)}

    while prev:
        cands = [(b, i) for b in prev for i in range(rank)]
        buckets = {}
        for b, i in cands:
            w = tuple(x - y for x, y in zip(weights[b], alpha_fund[i]))
            buckets.setdefault(w, []).append((b, i))

        new_indices = []
        gram_new = {}
        for w in sorted(buckets):
            group = buckets[w]
            m = len(group)
            # vector e_i f_j(b') = f_j(e_i b') + delta_ij <wt(b'), a_i^> b'
            efs = {}
            for b2, j in group:
                for i in {gi for _, gi in group}:
                    vec = _mapply(f[j], e[i].get(b2, {}))
                    if i == j:
                        _vadd_into(vec, {b2: Q(weights[b2][i])})
                    efs[(i, (b2, j))] = vec
            gram = [[Q(0)] * m for _ in range(m)]
            for a, (b1, i) in enumerate(group):
                for c, (b2, j) in enumerate(group):
                    total = Q(0)
                    for idx, val in efs[(i, (b2, j))].items():
                        g = gram_prev.get((b1, idx))
                        if g:
                            total += g * val
                    gram[a][c] = total
            # exact elimination of the Gram matrix picks the kept candidates
            red = [row[:] for row in gram]
            pivots = echelon(red, m)
            base = len(weights)
            local = {}
            for k, col in enumerate(pivots):
                b, i = group[col]
                idx = base + k
                local[col] = idx
                weights.append(w)
                new_indices.append(idx)
                f[i][b] = {idx: Q(1)}
                for j in range(rank):
                    vec = _mapply(f[i], e[j].get(b, {}))
                    if i == j:
                        _vadd_into(vec, {b: Q(weights[b][i])})
                    if vec:
                        e[j][idx] = vec
            # a rejected candidate is the combination of kept ones that its
            # reduced Gram column records (unique: the pivot block of a
            # symmetric matrix is nonsingular)
            for c in range(m):
                if c in local:
                    continue
                b, i = group[c]
                expansion = {local[col]: red[k][c]
                             for k, col in enumerate(pivots) if red[k][c]}
                if expansion:
                    f[i][b] = expansion
            for a, col_a in enumerate(pivots):
                for bl, col_b in enumerate(pivots):
                    gram_new[(local[col_a], local[col_b])] = gram[col_a][col_b]
        prev = new_indices
        gram_prev = gram_new

    return weights, e, f


# ---------------------------------------------------------------------------
# Chevalley basis via the bootstrap on the smallest faithful module
# ---------------------------------------------------------------------------

class BracketTable:
    """A skew bracket on the basis 0..dim-1, stored for i < j only.

    table[(i, j)] is the bracket of basis elements i < j as a sparse map;
    the other order is its negative and the diagonal is empty. The values
    are vectors over the basis for a Lie algebra, and polynomials keyed by
    sorted monomials for a Poisson bracket table on S(V).
    """

    def __init__(self, dim, table):
        self.dim = dim
        self.table = table

    def bracket_idx(self, i, j):
        """Bracket of basis elements i and j, with sign, for any index order."""
        if i == j:
            return {}
        if i < j:
            return self.table.get((i, j), {})
        return {k: -v for k, v in self.table.get((j, i), {}).items()}

    def bracket(self, x, y):
        """Bilinear extension of bracket_idx to sparse vectors x and y."""
        out = {}
        for i, xi in x.items():
            for j, yj in y.items():
                c = xi * yj
                if c:
                    _vadd_into(out, self.bracket_idx(i, j), c)
        return out

    def adjoint_rep(self):
        """Matrices of ad(basis element) on the carrier itself: column b of
        the matrix of a is [a, b]."""
        return [{b: out for b in range(self.dim) if (out := self.bracket_idx(a, b))}
                for a in range(self.dim)]


def root_vector_ops(alg, e, f):
    """Scaled E_gamma and F~_gamma per positive root gamma, from the Fraction
    generators e[i], f[i] of a module of alg: e_i and f_i on alg.simple,
    then E_gamma = coef [e_i, E_parent] and F~_gamma = coef [f_i, F~_parent]
    along alg.descent. F_gamma is F~_gamma / alg.f_norm[gamma]."""
    e, f = [scaled(m) for m in e], [scaled(m) for m in f]
    e_ops, ft_ops = dict(zip(alg.simple, e)), dict(zip(alg.simple, f))
    for gamma, (i, parent, coef) in alg.descent.items():
        s, m = scaled_comm(e[i], e_ops[parent])
        e_ops[gamma] = (s * coef, m)
        s, m = scaled_comm(f[i], ft_ops[parent])
        ft_ops[gamma] = (s * coef, m)
    return e_ops, ft_ops


def _check_relations(alg, weights, e_ops, ft_ops):
    """Serre's relations on the simple generators of a module of alg, whose
    basis vector k has weight weights[k]; returns {alpha_i: t_i} with
    [e_i, f_i] = t_i h_i, h_i the diagonal of weight coordinate i.

    e_i and f_i are e_ops and ft_ops at the simple roots, scaled as
    root_vector_ops returns them. Checked, AssertionError otherwise: e_i and
    f_i shift weights by +-alpha_i, which is [h_i, e_j] = A[j][i] e_j and its
    f twin; [e_i, f_j] = 0 for i != j; (ad e_i)^(1 - A[j][i]) e_j = 0 and its
    f twin; and [e_i, f_i] in Q h_i (t_i is 0 where both vanish). Once f_i is
    divided by t_i, these are Serre's presentation of g (Humphreys, section
    18): e_i, f_i and h_i define a representation of g on the module.
    """
    rs = alg.rs
    gens = [(e_ops[g], ft_ops[g]) for g in alg.simple]
    for i, ((_, ei), (_, fi)) in enumerate(gens):
        for m, step in ((ei, add), (fi, sub)):
            for j, col in m.items():
                want = tuple(map(step, weights[j], rs.cartan[i]))
                for k in col:
                    assert weights[k] == want, "e/f_%d off weight" % i
        for j, (_, (_, fj)) in enumerate(gens):
            if i != j:
                assert not _mcomm(ei, fj), "[e_%d, f_%d] != 0" % (i, j)
    # [x_j, x_i] = -[x_i, x_j], so one commutator starts both chains of a pair
    for i, j in combinations(range(len(gens)), 2):
        for side in (0, 1):
            xi, xj = gens[i][side][1], gens[j][side][1]
            first = _mcomm(xi, xj)
            for a, b, x in ((i, j, xi), (j, i, xj)):
                y = first
                for _ in range(-rs.cartan[b][a]):
                    y = _mcomm(x, y)
                assert not y, "Serre relation fails at %d, %d" % (a, b)
    norms = {}
    for i, (g, (e, f)) in enumerate(zip(alg.simple, gens)):
        h = 1, {k: {k: w[i]} for k, w in enumerate(weights) if w[i]}
        t = scaled_ratio(scaled_comm(e, f), h)
        assert t is not None, "[e_%d, f_%d] is not a multiple of h_%d" % (i, i, i)
        norms[g] = t
    return norms


class ChevalleyAlgebra(BracketTable):
    """Basis E_gamma, H_i, F_gamma, exact brackets.

    Signs of the non-simple root vectors are fixed by the deterministic
    convention of `descent`: E_gamma is the left-normed bracket
    [E_i, E_{gamma - alpha_i}] / (p+1) for the smallest simple i with
    gamma - alpha_i a positive root, F~_gamma the same bracket of the f_i,
    and F_gamma = F~_gamma / f_norm[gamma] (root_vector_ops). The structure
    constants are read off the operators of one faithful module of rs, the
    tensor product over the simple components of each one's fundamental
    module of smallest dimension; they do not depend on which faithful module.
    """

    def __init__(self, rs):
        self.rs = rs
        self.rank = rs.rank
        pos = list(rs.positive_roots)
        self.pos_roots = pos
        self.simple = [tuple(int(k == i) for k in range(rs.rank)) for i in range(rs.rank)]
        self.names = (["E%s" % (tuple(g),) for g in pos]
                      + ["H%d" % (i + 1) for i in range(rs.rank)]
                      + ["F%s" % (tuple(g),) for g in pos])
        self.dim = len(self.names)
        self.e_idx = {g: k for k, g in enumerate(pos)}
        self.h_idx = {i: len(pos) + i for i in range(rs.rank)}
        self.f_idx = {g: len(pos) + rs.rank + k for k, g in enumerate(pos)}
        zero = (0,) * rs.rank
        self.weight = pos + [zero] * rs.rank + [tuple(-x for x in g) for g in pos]
        # (i, parent, 1/(p+1)) per non-simple root, parents first
        self.descent = {g: self._descent(g) for g in pos if sum(g) > 1}
        self._bootstrap()
        self._form = self._build_form()

    # -- structure constants -------------------------------------------------

    def _descent(self, gamma):
        """Smallest simple i with gamma - alpha_i a positive root, that root and
        the Chevalley coefficient 1/(p+1) of the pair; gamma is not simple."""
        for i in range(self.rank):
            down = list(gamma)
            down[i] -= 1
            if tuple(down) in self.e_idx:
                lower = list(down)
                lower[i] -= 1
                p = 0
                while self.rs.is_root(tuple(lower)):
                    lower[i] -= 1
                    p += 1
                return i, tuple(down), Q(1, p + 1)
        raise AssertionError("no simple descent from %s" % (gamma,))

    def _bootstrap(self):
        rs = self.rs
        rank = self.rank
        ops = {}
        # one irreducible module of rs itself: on each simple component the
        # fundamental weight of smallest Weyl dimension (the first on ties).
        # It is the tensor product of one nonzero module per component, so it
        # is faithful, and every ratio read off below is the abstract
        # algebra's. Root-vector operators are scaled int matrices (scaled
        # above): the commutators run on ints and every ratio below is an
        # exact Fraction.
        lam = [0] * rank
        for off, (_, n) in zip(rs._offsets, rs.components):
            lam[min(range(off, off + n),
                    key=lambda i: weyl_dim(rs, [int(k == i) for k in range(rank)]))] = 1
        weights, e, f = module_matrices(rs, lam)
        # H_i is diagonal: {index: int eigenvalue}
        gen_h = [{j: w[i] for j, w in enumerate(weights) if w[i]} for i in range(rank)]

        # each root's coroot is read up to twice: built once
        @cache
        def coroot(gamma):
            # H_gamma in coroot coordinates: gamma^ = sum gamma_j (a_j,a_j)/(g,g) a_j^
            gnorm = rs.inner(gamma, gamma)
            return {j: gamma[j] * rs.norms[j] / gnorm for j in range(rank) if gamma[j]}

        def coroot_op(gamma):
            # H_gamma as a scaled diagonal matrix
            big_l, coords = cleared(coroot(gamma))
            diag = {}
            for j, cj in coords.items():
                for k, w in gen_h[j].items():
                    diag[k] = diag.get(k, 0) + cj * w
            return Q(1, big_l), {k: {k: v} for k, v in diag.items() if v}

        # Serre's relations (_check_relations) make V a g-module: E_gamma and
        # F~_gamma lie in rho(g_(+-gamma)), and f_norm absorbs [e_i, f_i] in Q^* h_i
        e_ops, ft_ops = root_vector_ops(self, e, f)
        simple_t = _check_relations(self, weights, e_ops, ft_ops)
        # F_gamma = F~_gamma / t_gamma with [E_gamma, F~_gamma] = t_gamma H_gamma
        self.f_norm = {}
        for gamma in self.pos_roots:
            t = simple_t[gamma] if gamma in simple_t else scaled_ratio(
                scaled_comm(e_ops[gamma], ft_ops[gamma]), coroot_op(gamma))
            assert t is not None and t != 0, "bad Cartan scale at %s" % (gamma,)
            self.f_norm[gamma] = t
            ops[self.e_idx[gamma]] = e_ops[gamma]
            ops[self.f_idx[gamma]] = (ft_ops[gamma][0] / t, ft_ops[gamma][1])

        # structure constants of the root vectors. V is a representation, so
        # rho [x_a, x_b] = [rho x_a, rho x_b]: a pair whose weight is neither a
        # root nor 0 (two simple components, say) brackets to 0 and is skipped;
        # [E_g, F_g] is H_g, as f_norm normalised it; and a pair of weight a
        # root gamma brackets to c E_gamma (or c F_gamma), as rho(g_gamma) is
        # the line of rho(E_gamma), which is nonzero since t_gamma != 0 above.
        # So c is read off one entry: the first nonzero entry y of E_gamma's
        # int matrix, in row i0 of column j0 (anchors), gives
        # c = sa sb x / (s_gamma y), x the entry of the int commutator there,
        # (M_a M_b - M_b M_a) e_j0 at i0. No commutator matrix is formed.
        table = {}
        n_basis = 2 * len(self.pos_roots) + rank
        anchors = {}
        for k, (s, m) in ops.items():
            j0 = min(m)
            i0 = min(m[j0])
            anchors[k] = j0, i0, s * m[j0][i0]

        def put(i, j, val):
            if val:
                table[(i, j)] = val

        hspace = {self.h_idx[i] for i in range(rank)}
        root_at = {w: k for k, w in enumerate(self.weight) if any(w)}  # E or F by weight
        for a in range(n_basis):
            for b in range(a + 1, n_basis):
                wa, wb = self.weight[a], self.weight[b]
                if a in hspace and b in hspace:
                    continue
                if a in hspace or b in hspace:
                    hi = (a if a in hspace else b) - self.h_idx[0]
                    other = b if a in hspace else a
                    scal = Q(rs.copair(self.weight[other], hi))
                    if b in hspace:
                        scal = -scal
                    put(a, b, {other: scal} if scal else {})
                    continue
                target = tuple(map(add, wa, wb))
                if not any(target):
                    put(a, b, {self.h_idx[j]: c for j, c in coroot(wa).items()})
                    continue
                tgt = root_at.get(target)
                if tgt is None:
                    continue
                j0, i0, y = anchors[tgt]
                (sa, ma), (sb, mb) = ops[a], ops[b]
                x = 0
                for k, c in mb.get(j0, {}).items():
                    x += c * ma.get(k, {}).get(i0, 0)
                for k, c in ma.get(j0, {}).items():
                    x -= c * mb.get(k, {}).get(i0, 0)
                if x:
                    put(a, b, {tgt: sa * sb * x / y})

        self.table = table

    def _build_form(self):
        rs = self.rs
        form = {}
        for g in self.pos_roots:
            val = 2 / rs.inner(g, g)
            form[(self.e_idx[g], self.f_idx[g])] = val
            form[(self.f_idx[g], self.e_idx[g])] = val
        for i in range(self.rank):
            for j in range(self.rank):
                val = 4 * rs.bform[i][j] / (rs.norms[i] * rs.norms[j])
                if val:
                    form[(self.h_idx[i], self.h_idx[j])] = val
        return form

    # -- public interface ----------------------------------------------------

    def form(self, i, j):
        return self._form.get((i, j), Q(0))


def chevalley_basis(rs):
    return ChevalleyAlgebra(rs)


class SharedType:
    """A root system and its Chevalley basis, built on first use."""

    def __init__(self, rs):
        self.rs = rs

    @cached_property
    def algebra(self):
        return chevalley_basis(self.rs)


@cache
def shared_type(label):
    """The memoised SharedType of a type label such as "C2", "so5" or "A2xA1".

    One entry per root system: any spelling of a type other than its
    canonical label rs.label ("so10" for "D5") returns the canonical
    label's entry, so both share one root system and one Chevalley basis.
    No caller mutates them.
    """
    rs = build_root_system(label)
    return SharedType(rs) if rs.label == label else shared_type(rs.label)


class Module:
    """V(lam): its weights and the action ints[k] / den of each basis element
    k, int columns over one denominator, built from scaled operators (s, M):
    the lcm of the denominators of s * M is (s * g).denominator, g the gcd
    of M's entries (0 for an empty M), so M times s * den is an int matrix."""

    def __init__(self, weights, ops):
        self.weights, self.dim = weights, len(weights)
        self.den = den_lcm(s * gcd(*(v for col in m.values() for v in col.values()))
                           for s, m in ops)
        self.ints = []  # aligned with alg basis indices
        for s, m in ops:
            c = s * self.den
            self.ints.append({j: {i: v // c.denominator * c.numerator for i, v in col.items()}
                              for j, col in m.items()})

    def fractions(self):
        """The Fraction matrices ints[k] / den, built anew on each call."""
        return [{j: {i: Q(v, self.den) for i, v in col.items()} for j, col in m.items()}
                for m in self.ints]


def highest_weight_module(alg, lam):
    """V(lam) on alg's basis, from scaled operators: root_vector_ops's E_gamma,
    F_gamma = F~_gamma / f_norm[gamma], and H_i, its int diagonal at scale 1.

    The bootstrap's relation check (_check_relations) runs on the module's
    own e_i and f_i, with [E_i, F_i] = H_i exactly (t_i = f_norm[alpha_i],
    or h_i = 0 on the module); AssertionError otherwise. By Serre's theorem
    the operators are then a representation of g on alg's basis: E_gamma and
    F_gamma follow the bootstrap's recurrence, so they are rho(E_gamma) and
    rho(F_gamma) of alg's own basis elements."""
    weights, e, f = module_matrices(alg.rs, lam)
    e_ops, ft_ops = root_vector_ops(alg, e, f)
    simple_t = _check_relations(alg, weights, e_ops, ft_ops)
    for i, g in enumerate(alg.simple):
        assert simple_t[g] == alg.f_norm[g] or not any(w[i] for w in weights), \
            "[E_%d, F_%d] != H_%d on the module" % (i, i, i)
    ops = [None] * alg.dim
    for gamma in alg.pos_roots:
        ops[alg.e_idx[gamma]] = e_ops[gamma]
        ops[alg.f_idx[gamma]] = ft_ops[gamma][0] / alg.f_norm[gamma], ft_ops[gamma][1]
    for i in range(alg.rank):
        ops[alg.h_idx[i]] = 1, {j: {j: w[i]} for j, w in enumerate(weights) if w[i]}
    return Module(weights, ops)


def casimir(alg):
    """Casimir c = sum x_i @ x^i over dual bases and its Cartan part c0.

    Returns (c, c0): c = sum_g (g,g)/2 (E@F + F@E) + sum B^{-1}_ij H_i@H_j
    with B the coroot Gram matrix, and c0 the H@H part alone. B is the Cartan
    matrix with row i scaled by 2/(alpha_i, alpha_i), so B^{-1}_ij is read off
    the root system's one inverse Cartan matrix, its fundamental weights:
    B^{-1}_ij = omega_i[j] (alpha_j, alpha_j)/2.
    """
    rs = alg.rs
    c = {}
    for g in alg.pos_roots:
        half = rs.inner(g, g) / 2
        c[(alg.e_idx[g], alg.f_idx[g])] = half
        c[(alg.f_idx[g], alg.e_idx[g])] = half
    c0 = {}
    for i, omega in enumerate(rs.fundamental_weights):
        for j, w in enumerate(omega):
            if w:
                key = (alg.h_idx[i], alg.h_idx[j])
                c0[key] = c[key] = w * rs.norms[j] / 2
    return c, c0


# ---------------------------------------------------------------------------
# parabolic nilradicals as Levi modules
# ---------------------------------------------------------------------------

def _match_subdiagram(nodes, cartan):
    """Classify the Dynkin diagram induced on `nodes` (indices into cartan).

    Returns (series, rank, mapping) where mapping[k] = the node playing the
    role of canonical simple root k+1 of shared_type(type_label(series, rank)).rs.
    """
    n = len(nodes)

    def extend(order, ref):
        # orders grow node by node, nodes tried in the order of `nodes`, so the
        # first match is the first of permutations(nodes) to match; a prefix
        # is dropped at its first Cartan entry that differs from ref
        m = len(order)
        if m == n:
            return order
        for a in nodes:
            if a not in order and all(cartan[a][b] == ref[m][k] and cartan[b][a] == ref[k][m]
                                      for k, b in enumerate(order)):
                found = extend(order + [a], ref)
                if found:
                    return found
        return None

    # at most one series matches, but for D3 = A3 and B2 = C2 (transposed),
    # where the first in series order wins
    for letter in (x for x in _SERIES if _rank_ok(x, n)):
        mapping = extend([], shared_type(type_label(letter, n)).rs.cartan)
        if mapping:
            return letter, n, mapping
    raise AssertionError("unclassifiable subdiagram %r" % (nodes,))


def abelian_radical_module(rs, node):
    """Levi type, Levi-highest weight of the nilradical, and abelianness.

    node is 1-indexed. The nilradical is spanned by the root spaces whose
    node coefficient is positive; it is abelian exactly when no two such
    roots sum to a root. The Levi type is a tuple of (series, rank) pairs
    and the weight an int tuple in the Levi's fundamental coordinates; the
    result, cached per root system and node (_abelian_radical), is shared
    between callers. A node that is not an int is refused before the cache.
    """
    if type(node) is not int:
        raise ValueError("node must be an int, got %r" % (node,))
    return _abelian_radical(rs, node)


@cache
def _abelian_radical(rs, node):
    """abelian_radical_module of an int node, computed once."""
    k = node - 1
    if not 0 <= k < rs.rank:
        raise ValueError("node out of range: %r" % (node,))
    radical = [g for g in rs.positive_roots if g[k] > 0]
    abelian = True
    for a in range(len(radical)):
        for b in range(a, len(radical)):
            s = tuple(x + y for x, y in zip(radical[a], radical[b]))
            if rs.is_root(s):
                abelian = False
                break
        if not abelian:
            break
    levi_nodes = [i for i in range(rs.rank) if i != k]
    levi_type = []
    lam_levi = []
    seen = set()
    for i in levi_nodes:
        if i in seen:
            continue
        comp = {i}
        frontier = [i]
        while frontier:
            a = frontier.pop()
            for b in levi_nodes:
                if b not in comp and rs.cartan[a][b]:
                    comp.add(b)
                    frontier.append(b)
        seen |= comp
        letter, n, mapping = _match_subdiagram(sorted(comp), rs.cartan)
        levi_type.append((letter, n))
        theta = max(radical, key=lambda g: (sum(g), g))
        for src in mapping:
            lam_levi.append(rs.copair(theta, src))
    return tuple(levi_type), tuple(lam_levi), abelian
