"""Schouten-square criterion and the induced Poisson bracket on S(V).

Operators on V (x) V and V^(x)3 are plain column-form dicts over packed
integer indices (a*dim + b, (a*dim + b)*dim + c), with dim V passed next to
them; a module is a liealg.Module, already built. Their products and sums
go through liealg's one kernel and its accumulator _vadd_into, which work
over any exact ring, so the same code serves the Fraction operators of the
classical layer and the QRat ones of qsl2.

The Schouten criterion asks whether [[P, P]] vanishes on Lambda^3 V. The
Jacobi oracle extends the degree-2 bracket table (a liealg.BracketTable
over monomials) by the Leibniz rule and is the independent ground truth
the criterion is checked against; generator_brackets reads that table off
r- and the module, lazily and over ints (GeneratorBrackets).

The sweep's Schouten verdict (schouten_promoted) is a function of the
int tensor t of [[r-, r-]] = c * t (bialg._cybe_tensor(alg, tt_skew(r)),
c > 0) and the module, so the sweep builds no pair operator; those
(_pair_matrix) serve the Fraction references, bialg.check_cybe and qsl2.
It applies one ordering per wedge, in hand-written int loops, and once its
caller has checked t g-invariant reads only the wedges of dominant weight
(_wedges): 65 of E6 w1's 2,925.

Both sides read the module's int form (Module.ints over Module.den). The
Jacobi side reads no [[r-, r-]] and shares no loop or helper with
schouten_promoted. Its table is the bracket scaled by a constant c > 0 that
clears every denominator (scalars.cleared), which is exact: the Jacobi sum
is quadratic in the bracket, so it is scaled by c^2 and vanishes exactly
when the unscaled one does. A pair is built on its first read, and the
oracle stops at its first nonzero triple, so a failing module builds few
of them. jacobi_oracle works over any exact ring: the qsl2 table it also
checks is over Fractions.

schouten_criterion and schouten_square stay on Fraction as the references
and read no [[r-, r-]] from _cybe_tensor. They share one expansion of
[[P, P]] (_square_images): the pair operator's legs are embedded once and
the commutators applied to one vector at a time, to each basis vector of
V^(x)3 for the square and to each wedge vector (all six orderings summed)
for the criterion.
"""

from __future__ import annotations

from .liealg import BracketTable, _mapply, _vadd_into, tt_skew
from .scalars import cleared


def _pair_matrix(mats, dim, t):
    """Sparse matrix of sum rho(a) (x) rho(b) over the terms a (x) b of t."""
    matrix = {}
    for (a, b), v in t.items():
        ma, mb = mats[a], mats[b]
        for ca, rows_a in ma.items():
            for cb, rows_b in mb.items():
                col = ca * dim + cb
                acc = matrix.setdefault(col, {})
                for ra, va in rows_a.items():
                    base = ra * dim
                    _vadd_into(acc, {base + rb: vb for rb, vb in rows_b.items()}, v * va)
                if not acc:
                    del matrix[col]
    return matrix


def _check_flip_skew(matrix, dim):
    """Raise ValueError unless an operator on V (x) V anticommutes with the flip."""
    for col, rows in matrix.items():
        a, b = divmod(col, dim)
        flip_col = b * dim + a
        for row, v in rows.items():
            c, d = divmod(row, dim)
            if matrix.get(flip_col, {}).get(d * dim + c, 0) != -v:
                raise ValueError("operator is not flip-skew")


def r_minus_operator(r, module):
    """rho (x) rho image of r- = (r - r^op)/2 on V (x) V, verified flip-skew."""
    matrix = _pair_matrix(module.fractions(), module.dim, tt_skew(r))
    _check_flip_skew(matrix, module.dim)
    return matrix


def leg_embed(op, dim, legs):
    """Embed an operator on V (x) V into V^(x)3 acting on the given legs.

    Placing the pair on the legs and the spare index on the third is a
    bijection, so every entry lands once and nothing is summed.
    """
    spare = next(leg for leg in range(3) if leg not in legs)

    def index(x, y, c):
        pos = [0, 0, 0]
        pos[legs[0]], pos[legs[1]], pos[spare] = x, y, c
        return (pos[0] * dim + pos[1]) * dim + pos[2]

    out = {}
    for col, rows in op.items():
        a, b = divmod(col, dim)
        for c in range(dim):
            out[index(a, b, c)] = {index(*divmod(row, dim), c): v for row, v in rows.items()}
    return out


def _square_images(P, dim, vectors):
    """Yield the image of each vector of V^(x)3 under [[P, P]], in order.

    [[P, P]] = [P12, P13] + [P12, P23] + [P13, P23], the legs embedded once
    and applied to one vector at a time with _mapply; the square itself is
    never formed.
    """
    legs = [leg_embed(P, dim, pair) for pair in [(0, 1), (0, 2), (1, 2)]]
    for vec in vectors:
        images = [_mapply(m, vec) for m in legs]
        acc = {}
        for a, b in [(0, 1), (0, 2), (1, 2)]:
            _vadd_into(acc, _mapply(legs[a], images[b]))
            _vadd_into(acc, _mapply(legs[b], images[a]), -1)
        yield acc


def schouten_square(P, dim):
    """[[P, P]] = [P12, P13] + [P12, P23] + [P13, P23] on V^(x)3, dim = dim V.

    Column form: the nonzero images of the basis vectors of V^(x)3.
    """
    cols = range(dim ** 3)
    images = _square_images(P, dim, ({c: 1} for c in cols))
    return {c: img for c, img in zip(cols, images) if img}


_WEDGE_PERMS = [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                ((1, 0, 2), -1), ((2, 1, 0), -1), ((0, 2, 1), -1)]


def schouten_criterion(P, dim):
    """Whether [[P, P]] vanishes on a basis of Lambda^3 V, over Fractions.

    The reference for schouten_promoted, sharing none of its code. Each
    wedge vector, the signed sum of the six orderings of e_i (x) e_j (x) e_k,
    goes through the same expansion as schouten_square (_square_images, one
    matrix-vector product at a time), and the search stops at the first
    wedge with a nonzero image: on a failing module the whole square would
    cost far more than the wedges tried before it.
    """

    def wedges():
        for i in range(dim):
            for j in range(i + 1, dim):
                for k in range(j + 1, dim):
                    wedge = {}
                    for perm, sign in _WEDGE_PERMS:
                        a, b, c = ((i, j, k)[p] for p in perm)
                        wedge[(a * dim + b) * dim + c] = sign
                    yield wedge

    return not any(_square_images(P, dim, wedges()))


def _check_antisymmetric(tensor):
    """Raise ValueError unless a three-tensor is totally antisymmetric.

    The transpositions of legs 1, 2 and of legs 2, 3 generate all six
    orderings, so it is enough that each term meets both of them negated.
    """
    for (x, y, z), v in tensor.items():
        if tensor.get((y, x, z)) != -v or tensor.get((x, z, y)) != -v:
            raise ValueError("[[r, r]] is not totally antisymmetric: "
                             "the source two-tensor is not skew")


def _wedges(weights, invariant):
    """Yield (i, j, ks) for i < j, ks the k > j of the wedges
    e_i ^ e_j ^ e_k that schouten_promoted reads, where ks is not empty.

    Without invariant every k > j. With it only the k whose weight makes
    weights[i] + weights[j] + weights[k] dominant, found through an index
    from (coordinate c, value v) to the basis indices k with
    weights[k][c] >= v, as the bits of one int, and not by testing each triple.
    """
    dim = len(weights)
    if not invariant:
        for i in range(dim):
            for j in range(i + 1, dim - 1):
                yield i, j, range(j + 1, dim)
        return
    at_least = []  # per coordinate: its least value, and {v: bits} above it
    for col in zip(*weights):
        lo = min(col)
        at_least.append((lo, {v: sum(1 << k for k, x in enumerate(col) if x >= v)
                              for v in range(lo + 1, max(col) + 1)}))
    full = (1 << dim) - 1
    for i, wi in enumerate(weights):
        for j in range(i + 1, dim - 1):
            bits = full >> (j + 1) << (j + 1)
            for a, b, (lo, above) in zip(wi, weights[j], at_least):
                need = -a - b  # the least weights[k][c] that keeps the sum dominant
                if need > lo:
                    bits &= above.get(need, 0)
                    if not bits:
                        break
            ks = []
            while bits:
                low = bits & -bits
                ks.append(low.bit_length() - 1)
                bits ^= low
            if ks:
                yield i, j, ks


def schouten_promoted(tensor, module, invariant=False):
    """The Schouten verdict, cheap enough for a classification sweep.

    tensor is the int t in g^(x)3 of [[r-, r-]] = c * t, c > 0, as
    bialg._cybe_tensor(alg, tt_skew(r)) returns it, and module a built
    liealg.Module of alg. The answer is schouten_criterion(r_minus_operator(
    r, module), module.dim), from one ordering per wedge, with no pair
    operator built.

    For a skew r- the tensor t is totally antisymmetric, and the operator
    T = sum t_xyz rho(x) (x) rho(y) (x) rho(z) satisfies T P_s = sgn(s) P_s T
    for every leg permutation P_s. The image of the wedge
    sum_s sgn(s) P_s (e_i (x) e_j (x) e_k) is then
    sum_s P_s T(e_i (x) e_j (x) e_k), the symmetrization of the image of one
    pure tensor, and that vanishes exactly when T(e_i (x) e_j (x) e_k) is zero
    in S^3 V. The antisymmetry of t is checked exactly before any wedge is
    tried; a tensor that is not antisymmetric raises ValueError.

    invariant says that t is g-invariant, which the caller has checked
    (bialg._is_invariant); then only the wedges of dominant weight are read
    (_wedges), and the verdict is the same. highest_weight_module has
    checked Serre's relations on the module, so rho is a representation of
    g on alg's basis, and with t invariant T commutes with g on V^(x)3: the
    map from Lambda^3 V to S^3 V is g-equivariant. By Weyl's complete
    reducibility each summand of Lambda^3 V is generated by a highest weight
    vector, of dominant weight, and an equivariant map vanishes on the
    summand exactly when it kills that vector. The module's basis is a
    weight basis (H_i acts diagonally), so the dominant weight spaces of
    Lambda^3 V are spanned by the wedges e_i ^ e_j ^ e_k with
    w_i + w_j + w_k dominant: the map vanishes iff it kills those. No
    kernel or elimination is needed. Without invariant every wedge is read.

    The kernel runs on ints, t and the module's matrices times L =
    module.den, so each term carries L^3 / c > 0 against [[r-, r-]]. The
    legs are contracted one at a time: for each i, first[y][(a, z)] =
    sum_x t_xyz rho(x)[a, i] over the x with a nonzero column i (ops_at[i]);
    for each j > i with a wedge to read only the y in ops_at[j], and for each
    of its k only the z with a nonzero column k, are read. The first nonzero
    wedge ends it.
    """
    dim, mats = module.dim, module.ints
    _check_antisymmetric(tensor)
    by_first = {}
    for (x, y, z), v in tensor.items():
        by_first.setdefault(x, []).append((y, z, v))
    ops_at = [[x for x, m in enumerate(mats) if k in m] for k in range(dim)]
    first_of = None
    for i, j, ks in _wedges(module.weights, invariant):
        if i != first_of:
            first_of, first = i, {}
            for x in ops_at[i]:
                colx = mats[x][i]
                for y, z, v in by_first.get(x, ()):
                    d = first.setdefault(y, {})
                    for ra, va in colx.items():
                        key = (ra, z)
                        d[key] = d.get(key, 0) + va * v
        # u[z][(lo, hi)]: the terms of T(e_i (x) e_j (x) .) by third leg z,
        # the first two legs as a sorted pair, a monomial of S^2 V
        u = {}
        for y in ops_at[j]:
            coly = mats[y][j]
            for (ra, z), w in first.get(y, {}).items():
                uz = u.setdefault(z, {})
                for rb, vb in coly.items():
                    pair = (ra, rb) if ra <= rb else (rb, ra)
                    uz[pair] = uz.get(pair, 0) + w * vb
        for k in ks:
            # the image of e_i (x) e_j (x) e_k in S^3 V, by sorted monomial
            acc = {}
            for z, d in u.items():
                colz = mats[z].get(k)
                if not colz:
                    continue
                for (lo, hi), w in d.items():
                    for rc, vc in colz.items():
                        if rc <= lo:
                            key = (rc, lo, hi)
                        elif rc <= hi:
                            key = (lo, rc, hi)
                        else:
                            key = (lo, hi, rc)
                        acc[key] = acc.get(key, 0) + w * vc
            if any(acc.values()):
                return False
    return True


# ---------------------------------------------------------------------------
# the Poisson bracket on S(V) and its Jacobi oracle
# ---------------------------------------------------------------------------

class GeneratorBrackets(BracketTable):
    """{v_i, v_j} = symmetrized r-(v_i (x) v_j) times scale, over ints, lazily.

    t = tt_skew(r) is kept scaled by the lcm D of its denominators
    (scalars.cleared), grouped by first leg, and the module is read in its
    int form, scaled by L = module.den, so every bracket times
    scale = D * L^2 is an int polynomial over sorted monomials of S^2 V. t
    is skew, so sum t_ab rho(a) (x) rho(b) is flip-skew and its column (i, j), i < j,
    determines the bracket; that column is summed on the first bracket_idx
    of the pair and memoised in table. So table holds only the pairs built
    so far, empty brackets included.
    """

    def __init__(self, r, module):
        super().__init__(module.dim, {})
        big_d, t = cleared(tt_skew(r))
        self.scale = big_d * module.den ** 2
        self._mats = module.ints
        self._by_first = {}
        for (a, b), v in t.items():
            self._by_first.setdefault(a, []).append((b, v))

    def bracket_idx(self, i, j):
        """Bracket of basis elements i and j, with sign, built on first read."""
        if i > j:
            return {k: -v for k, v in self.bracket_idx(j, i).items()}
        if i == j:
            return {}
        poly = self.table.get((i, j))
        if poly is None:
            poly = self.table[(i, j)] = self._build(i, j)
        return poly

    def _build(self, i, j):
        mats, poly = self._mats, {}
        for a, terms in self._by_first.items():
            col_a = mats[a].get(i)
            if not col_a:
                continue
            for b, v in terms:
                col_b = mats[b].get(j)
                if not col_b:
                    continue
                for ra, va in col_a.items():
                    w = v * va
                    for rb, vb in col_b.items():
                        key = (ra, rb) if ra <= rb else (rb, ra)
                        poly[key] = poly.get(key, 0) + w * vb
        return {key: v for key, v in poly.items() if v}


def generator_brackets(r, module):
    """The Poisson bracket table of r- on a built module: a GeneratorBrackets,
    whose pairs are built as they are read."""
    return GeneratorBrackets(r, module)


def jacobi_oracle(B):
    """Leibniz-extend B and test the cyclic Jacobi sum in S^3 V.

    B is any BracketTable over sorted monomials of S^2 V, read through
    bracket_idx only, with values in any exact ring; the search stops at
    the first triple whose sum is nonzero.
    """
    bracket_idx = B.bracket_idx
    for i in range(B.dim):
        for j in range(i + 1, B.dim):
            for k in range(j + 1, B.dim):
                acc = {}
                # {i, {j, k}} + {j, {k, i}} + {k, {i, j}}, every pair read in
                # its stored order i < j and the sign carried by the scalar
                for x, y, z, flip in [(i, j, k, False), (j, i, k, True), (k, i, j, False)]:
                    for (a, b), v in bracket_idx(y, z).items():
                        if flip:
                            v = -v
                        # {x, v_a v_b} = {x, v_a} v_b + v_a {x, v_b}
                        for one, other in [(a, b), (b, a)]:
                            if x < one:
                                poly, u = bracket_idx(x, one), v
                            else:
                                poly, u = bracket_idx(one, x), -v
                            for (lo, hi), w in poly.items():
                                if other <= lo:
                                    key = (other, lo, hi)
                                elif other <= hi:
                                    key = (lo, other, hi)
                                else:
                                    key = (lo, hi, other)
                                c = u * w
                                s = acc.get(key)
                                acc[key] = c if s is None else s + c
                if any(acc.values()):
                    return False
    return True
