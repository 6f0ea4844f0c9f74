"""Finite root systems in Bourbaki numbering with exact inner products.

Roots are int tuples in simple-root coordinates and weights are int tuples
in fundamental coordinates; simple root alpha_i is row i of the Cartan matrix
A[i][j] = 2(alpha_i, alpha_j)/(alpha_j, alpha_j) there. The invariant form is
Fraction (bform, norms, inner), normalized so long roots have squared length
2; inner sums over its int copy _gram and divides once. A simple type's
Cartan matrix is read off its diagram (cartan_matrix) with no root system
built. fund_to_root and fundamental_weights give the Fraction view of a weight.
Weyl's dimension formula and Freudenthal's multiplicities run on ints: the
Weyl group acts by s_j(mu) = mu - mu_j alpha_j, and the form enters as the
int norms norm_ints, the diagonal of _gram, whose common factor cancels.
"""

from __future__ import annotations

from fractions import Fraction as Q

from .scalars import ascii_int, den_lcm, echelon


class InvalidType(ValueError):
    """Unknown series letter or rank out of range for the series."""


class NotSimple(ValueError):
    """Operation requires a simple root system, got a product."""


class NotDominant(ValueError):
    """Highest weight must have nonnegative fundamental coordinates."""


_SERIES = ("A", "B", "C", "D", "E", "F", "G")


def _norms_and_bonds(letter, n):
    """Squared lengths (alpha_i, alpha_i) and, per bond i < j of the Dynkin
    diagram, its Cartan entries (A[i][j], A[j][i]) as ints."""
    norms = [Q(2)] * n
    bonds = {}
    if letter == "A":
        for i in range(n - 1):
            bonds[(i, i + 1)] = (-1, -1)
    elif letter == "B":
        norms[n - 1] = Q(1)
        for i in range(n - 1):
            bonds[(i, i + 1)] = (-1, -1)
        bonds[(n - 2, n - 1)] = (-2, -1)
    elif letter == "C":
        for i in range(n - 1):
            norms[i] = Q(1)
        for i in range(n - 2):
            bonds[(i, i + 1)] = (-1, -1)
        bonds[(n - 2, n - 1)] = (-1, -2)
    elif letter == "D":
        for i in range(n - 3):
            bonds[(i, i + 1)] = (-1, -1)
        bonds[(n - 3, n - 2)] = (-1, -1)
        bonds[(n - 3, n - 1)] = (-1, -1)
    elif letter == "E":
        # Bourbaki: chain 1-3-4-5-6(-7-8), node 2 hangs off node 4
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for a, b in zip(chain, chain[1:]):
            bonds[(a, b)] = (-1, -1)
        bonds[(1, 3)] = (-1, -1)
    elif letter == "F":
        norms[2] = norms[3] = Q(1)
        bonds[(0, 1)] = (-1, -1)
        bonds[(1, 2)] = (-2, -1)
        bonds[(2, 3)] = (-1, -1)
    elif letter == "G":
        norms[0] = Q(2, 3)
        bonds[(0, 1)] = (-1, -3)
    return norms, bonds


def cartan_matrix(letter, n):
    """The int Cartan matrix of the simple type letter n, read off its diagram."""
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for (i, j), pair in _norms_and_bonds(letter, n)[1].items():
        a[i][j], a[j][i] = pair
    return a


def _rank_ok(letter, n):
    return (
        (letter == "A" and n >= 1)
        or (letter in ("B", "C") and n >= 2)
        or (letter == "D" and n >= 3)
        or (letter == "E" and n in (6, 7, 8))
        or (letter == "F" and n == 4)
        or (letter == "G" and n == 2)
    )


def type_label(letter, n):
    """The label of the simple type letter n, "E6": the one spelling of a
    type, which RootSystem.label joins over its components."""
    return "%s%d" % (letter, n)


def _inv(mat):
    """Exact inverse of a small nonsingular Fraction matrix."""
    n = len(mat)
    a = [[Q(x) for x in row] + [Q(int(i == j)) for j in range(n)]
         for i, row in enumerate(mat)]
    pivots = echelon(a, n)
    assert len(pivots) == n, "singular matrix"
    return [row[n:] for row in a]


class RootSystem:
    """A (possibly reducible) finite root system with precomputed data."""

    def __init__(self, components):
        self.components = tuple(components)
        if not self.components:
            raise InvalidType("a root system needs at least one component")
        for letter, n in self.components:
            if type(n) is not int or letter not in _SERIES or not _rank_ok(letter, n):
                raise InvalidType("no simple type %s%s" % (letter, n))
        self.label = "x".join(type_label(*c) for c in self.components)
        self.rank = sum(n for _, n in self.components)
        # block-diagonal symmetric form (alpha_i, alpha_j)
        self.bform = [[Q(0)] * self.rank for _ in range(self.rank)]
        self.cartan = [[0] * self.rank for _ in range(self.rank)]
        off = 0
        self._offsets = []
        for letter, n in self.components:
            self._offsets.append(off)
            norms, _ = _norms_and_bonds(letter, n)
            # (alpha_i, alpha_j) = A[i][j] (alpha_j, alpha_j) / 2
            for i, row in enumerate(cartan_matrix(letter, n)):
                self.cartan[off + i][off:off + n] = row
                self.bform[off + i][off:off + n] = [a * norms[j] / 2 for j, a in enumerate(row)]
            off += n
        self.norms = [self.bform[i][i] for i in range(self.rank)]
        # bform times the lcm of its denominators, as ints (see inner, _pairing)
        self._gram_den = den_lcm(v for row in self.bform for v in row)
        self._gram = [[v.numerator * (self._gram_den // v.denominator) for v in row]
                      for row in self.bform]
        self.norm_ints = [self._gram[i][i] for i in range(self.rank)]
        # fundamental weights: row i of the inverse Cartan matrix
        inv = _inv([[Q(x) for x in row] for row in self.cartan])
        self.fundamental_weights = [tuple(inv[i]) for i in range(self.rank)]
        self.positive_roots = self._close_roots()
        self._root_set = set(self.positive_roots)
        self._root_set.update(tuple(-x for x in r) for r in self.positive_roots)

    # -- construction ------------------------------------------------------

    def _close_roots(self):
        seen = set()
        frontier = []
        for i in range(self.rank):
            e = tuple(1 if k == i else 0 for k in range(self.rank))
            seen.add(e)
            frontier.append(e)
        while frontier:
            nxt = []
            for r in frontier:
                for j in range(self.rank):
                    pair = sum(r[i] * self.cartan[i][j] for i in range(self.rank))
                    s = list(r)
                    s[j] -= pair
                    s = tuple(s)
                    if s not in seen:
                        seen.add(s)
                        nxt.append(s)
            frontier = nxt
        pos = [r for r in seen if all(x >= 0 for x in r) and any(r)]
        pos.sort(key=lambda r: (sum(r), r))
        return tuple(pos)

    # -- predicates and lookups ---------------------------------------------

    @property
    def is_simple(self):
        return len(self.components) == 1

    def is_root(self, coords):
        return tuple(coords) in self._root_set

    @property
    def highest_root(self):
        if not self.is_simple:
            raise NotSimple("highest root needs a simple system")
        return self.positive_roots[-1]

    # -- exact linear algebra on coordinates --------------------------------

    def inner(self, x, y):
        """Invariant form of two vectors in simple-root coordinates, summed on
        _gram = bform * _gram_den and divided once: one Fraction per call."""
        total = sum(xi * g * yj for xi, row in zip(x, self._gram) if xi
                    for g, yj in zip(row, y) if yj)
        return Q(total, self._gram_den)

    def copair(self, x, j):
        """2(x, alpha_j)/(alpha_j, alpha_j) for x in root coordinates."""
        return sum(x[i] * self.cartan[i][j] for i in range(self.rank))

    def fund_to_root(self, m):
        if len(m) != self.rank:
            raise ValueError("weight has %d coordinates, rank is %d" % (len(m), self.rank))
        out = [Q(0)] * self.rank
        for i, mi in enumerate(m):
            if mi:
                w = self.fundamental_weights[i]
                for k in range(self.rank):
                    out[k] += mi * w[k]
        return tuple(out)

    def root_to_fund(self, x):
        return tuple(self.copair(x, j) for j in range(self.rank))


def cominuscule_nodes(rs):
    """1-indexed nodes whose coefficient in the highest root is 1."""
    theta = rs.highest_root
    return [i + 1 for i, c in enumerate(theta) if c == 1]


def build_root_system(label):
    """The root system of a type label: one spelling normalize_type reads
    ('A2', 'so5', 'e6'), or a product of them joined by 'x' ('A2xA1'). A
    label that is not a str goes whole to normalize_type, which refuses it."""
    parts = label.split("x") if isinstance(label, str) else [label]
    return RootSystem([normalize_type(part) for part in parts])


def normalize_type(name):
    """Resolve names like so10, sp4, sl3, e6 to (series letter, rank): the
    one parser of a type spelling."""
    if not isinstance(name, str):
        raise InvalidType("a type is a label such as 'A2', got %r" % (name,))
    s = name.strip().lower().replace("(", "").replace(")", "")
    head = s[:2] if s[:2] in ("sl", "so", "sp") else s[:1]
    digits = s[len(head):]
    try:
        m = ascii_int(digits)
    except ValueError:
        m = None
    # a rank has no sign: "a+2" does not spell A2
    if m is None or digits[0] in "+-" or head not in ("sl", "so", "sp", *"abcdefg"):
        raise InvalidType("cannot parse type %r" % name)
    if head == "sl":
        letter, n = "A", m - 1
    elif head == "so":
        letter, n = ("B", (m - 1) // 2) if m % 2 else ("D", m // 2)
    elif head == "sp":
        if m % 2:
            raise InvalidType("sp needs an even dimension, got %s" % name)
        letter, n = "C", m // 2
    else:
        letter, n = head.upper(), m
    if not _rank_ok(letter, n):
        raise InvalidType("no simple type %s%d (from %r)" % (letter, n, name))
    return letter, n


# ---------------------------------------------------------------------------
# independent dimension and multiplicity oracles
# ---------------------------------------------------------------------------

def _check_dominant(rs, lam):
    """NotDominant unless lam is rank nonnegative ints; nothing is coerced."""
    if len(lam) != rs.rank:
        raise NotDominant("weight has %d coordinates, rank is %d" % (len(lam), rs.rank))
    if any(type(c) is not int or c < 0 for c in lam):
        raise NotDominant("fundamental coordinates must be nonnegative ints, got %r" % (lam,))


def _pairing(rs, x, a):
    """sum_j a_j x_j s_j: the form (x, a) of a weight x and a root a, times 2L.

    (omega_i, alpha_j) = delta_ij (alpha_j, alpha_j)/2, and s_j is
    (alpha_j, alpha_j) times L = rs._gram_den, the lcm of bform's
    denominators. The constant 2L cancels in Weyl's and Freudenthal's ratios.
    """
    return sum(ai * xi * si for ai, xi, si in zip(a, x, rs.norm_ints))


def _dominant(rs, mu, depth):
    """The dominant Weyl conjugate of mu and its depth vector.

    depth holds c with lam - mu = sum c_i alpha_i. The simple Weyl generator
    s_j takes mu to mu - mu_j alpha_j, alpha_j being row j of the Cartan
    matrix, and so adds mu_j to c_j. mu is a weight below lam exactly when
    min(depth) >= 0 on return.
    """
    mu, depth = list(mu), list(depth)
    while True:
        for j, m in enumerate(mu):
            if m < 0:
                for k, a in enumerate(rs.cartan[j]):
                    mu[k] -= m * a
                depth[j] += m
                break
        else:
            return tuple(mu), depth


def weyl_dim(rs, lam):
    """Weyl dimension formula for highest weight lam (fundamental coords)."""
    _check_dominant(rs, lam)
    top = bot = 1
    for g in rs.positive_roots:
        top *= _pairing(rs, [c + 1 for c in lam], g)
        bot *= _pairing(rs, (1,) * rs.rank, g)
    d, rem = divmod(top, bot)
    assert rem == 0
    return d


def weight_multiplicities(rs, lam):
    """Freudenthal multiplicities: {fundamental coords: multiplicity}."""
    _check_dominant(rs, lam)
    lam = tuple(lam)
    zero = (0,) * rs.rank
    reps = {}  # every weight -> its dominant conjugate, breadth-first in depth
    dominant = {}  # dominant weight -> its depth vector
    # BFS over depth vectors c; keep lam - c when it is a genuine weight
    seen = {zero}
    frontier = [(lam, zero)]
    while frontier:
        nxt = []
        for mu, c in frontier:
            rep, depth = _dominant(rs, mu, c)
            if min(depth) < 0:
                continue
            reps[mu] = rep
            if mu == rep:
                dominant[mu] = c
            for i in range(rs.rank):
                c2 = c[:i] + (c[i] + 1,) + c[i + 1:]
                if c2 not in seen:
                    seen.add(c2)
                    nxt.append((tuple(a - b for a, b in zip(mu, rs.cartan[i])), c2))
        frontier = nxt

    roots = [(g, rs.root_to_fund(g)) for g in rs.positive_roots]
    mult = {}
    for mu in sorted(dominant, key=lambda m: sum(dominant[m])):
        c = dominant[mu]
        if not any(c):
            mult[mu] = 1
            continue
        acc = 0
        for g, gf in roots:
            nu, d = mu, c
            while True:
                nu = tuple(a + b for a, b in zip(nu, gf))
                d = tuple(a - b for a, b in zip(d, g))
                rep, depth = _dominant(rs, nu, d)
                if rep not in mult:
                    if min(depth) < 0:
                        break  # beyond the weight polytope in this direction
                    raise AssertionError("Freudenthal order broken")
                acc += mult[rep] * _pairing(rs, nu, g)
        # (lam + rho)^2 - (mu + rho)^2 = (lam - mu, lam + mu + 2 rho)
        m, rem = divmod(2 * acc, _pairing(rs, [a + b + 2 for a, b in zip(lam, mu)], c))
        assert rem == 0 and m > 0
        mult[mu] = m
    return {mu: mult[rep] for mu, rep in reps.items()}
