"""Simple modules of (possibly twisted) finite group algebras.

Character tables are computed exactly: abelian groups through a Smith
normal form of their relation lattice, nonabelian ones through the
modular class-algebra method (split the class-multiplication matrices
over a suitable prime field, then lift eigenvalue data to exact
cyclotomic values through the power map).

Twisted group algebras are handled by explicit coboundary search: a
2-cocycle valued in roots of unity is trivialized whenever its class
vanishes (always, for cyclic groups), and the simple modules of the
twisted algebra are the untwisted ones with characters rescaled by the
trivialization.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt
from typing import Dict, Optional, Sequence, Tuple

from .cyclotomic import Cyclo, prime_factors
from .lattice import (
    MatrixGroup,
    Value,
    basis_orbits,
    from_columns,
    gauss_jordan,
    mat,
    mat_det,
    orbit,
    smith_normal_form,
    solve_integer,
)


class CocycleError(ValueError):
    """A 2-cocycle failed validation or could not be trivialized."""


class FiniteGroup(MatrixGroup):
    """A finite matrix group with the class theory its character tables
    need: element orders, the exponent, commutativity and conjugacy
    classes, all read from products in the group's tables."""

    @classmethod
    def from_matrices(cls, generators: Sequence) -> "FiniteGroup":
        """The group the matrices generate, interned by its permutation of
        the orbits of the standard basis vectors (`lattice.basis_orbits`);
        the closure rejects a group of more than
        `lattice.DEFAULT_CLOSURE_CAP` elements whose orbits are all within
        that bound."""
        if not generators:
            raise ValueError("need at least one generator (pass the identity)")
        return cls(generators, len(generators[0]), basis_orbits(generators))

    def order_of(self, a) -> int:
        k = 1
        x = a
        while x != self.identity:
            x = self.mul(x, a)
            k += 1
        return k

    def exponent(self) -> int:
        e = 1
        for a in self.elements:
            o = self.order_of(a)
            e = e * o // gcd(e, o)
        return e

    def is_abelian(self) -> bool:
        return all(self.mul(a, b) == self.mul(b, a)
                   for a in self.elements for b in self.elements)

    def conjugacy_classes(self) -> Tuple[Tuple, ...]:
        """Classes in a canonical order: identity first, then sorted by
        (element order, class size, representative token)."""
        seen = set()
        classes = []
        for a in self.elements:
            if a in seen:
                continue
            cls_set = {self.mul(self.mul(g, a), self.inverse[g])
                       for g in self.elements}
            seen |= cls_set
            classes.append(tuple(sorted(cls_set, key=self._sort_key)))
        def class_key(c):
            rep = c[0]
            return (rep != self.identity and 1 or 0, self.order_of(rep),
                    len(c), self._sort_key(rep))
        return tuple(sorted(classes, key=class_key))

    def _sort_key(self, a):
        return repr(a)


class Module(Value):
    """A simple module given by its exact character."""

    def __init__(self, dim: int,
                 character: Tuple[Tuple[object, Cyclo], ...]):  # (g, chi(g))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "character", character)

    def chi(self, element) -> Cyclo:
        for e, v in self.character:
            if e == element:
                return v
        raise KeyError(element)

    def char_dict(self) -> Dict:
        return dict(self.character)

    def label(self) -> Tuple:
        """Canonical isomorphism-class label (dim plus sorted value reprs)."""
        return self._label

    @cached_property
    def _label(self) -> Tuple:
        return (self.dim, tuple(v.pretty() for _e, v in self.character))


# ---------------------------------------------------------------------------
# abelian character tables through SNF

def _abelian_characters(group: FiniteGroup) -> Tuple[Dict, ...]:
    gens = _small_generating_set(group)
    if not gens:
        return ({group.identity: Cyclo.one()},)
    # word map Z^g -> group and Schreier generators of the relation lattice:
    # one relation per edge a -> a.g_i off the breadth-first tree, in the
    # order the tree was grown
    maps = [lambda a, g=g: group.mul(a, g) for g in gens]
    tree = orbit((group.identity,), maps)
    words = {group.identity: (0,) * len(gens)}
    relations = []
    for a in tree:
        for i, f in enumerate(maps):
            b = f(a)
            w = tuple(x + (1 if j == i else 0) for j, x in enumerate(words[a]))
            if tree[b] == (a, i):
                words[b] = w
            else:
                relations.append(tuple(x - y for x, y in zip(w, words[b])))
    D, U, _V = smith_normal_form(from_columns(relations, len(gens)),
                                 len(relations))
    diag = [D[i][i] if i < len(relations) else 0 for i in range(len(gens))]
    if any(d == 0 for d in diag):
        raise AssertionError("finite abelian group with a free factor?")
    chars = []
    from itertools import product as iproduct
    ranges = [range(d) for d in diag]
    for t in iproduct(*ranges):
        table = {}
        for a in group.elements:
            y = [sum(U[i][j] * words[a][j] for j in range(len(gens)))
                 for i in range(len(gens))]
            expo = sum(Fraction(ti * yi, d) for ti, yi, d in zip(t, y, diag)
                       if d > 1)
            table[a] = Cyclo.root_of_unity(expo)
        chars.append(table)
    if len(chars) != len(group):
        raise AssertionError("abelian character count mismatch")
    return tuple(chars)


def _small_generating_set(group: FiniteGroup):
    gens = []
    generated = {group.identity}
    for a in sorted(group.elements, key=group._sort_key):
        if a in generated:
            continue
        gens.append(a)
        generated = set(group.generated(gens))
        if len(generated) == len(group):
            break
    return gens


# ---------------------------------------------------------------------------
# modular (Dixon) character tables for the general case

def _find_prime(order: int, exponent: int, classes: int) -> int:
    """The least prime p = 1 mod the exponent with p > 2*sqrt(order) and
    p > classes, so that `_charpoly_roots` interpolates at distinct points."""
    p = max(exponent + 1, classes + 1, 3)
    while p * p <= 4 * order:
        p += 1
    while True:
        if (p - 1) % exponent == 0 and _is_prime(p):
            return p
        p += 1


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, isqrt(n) + 1):
        if n % q == 0:
            return False
    return True


def _gauss_jordan_mod(rows, ncols, p):
    return gauss_jordan(rows, ncols, lambda x: pow(x, -1, p), lambda x: x % p)


def _nullspace_mod(rows, p):
    """Basis of the right nullspace of a square matrix mod p."""
    n = len(rows)
    m, pivots = _gauss_jordan_mod(rows, n, p)
    basis = []
    for c in range(n):
        if c in pivots:
            continue
        v = [0] * n
        v[c] = 1
        for pr, pc in enumerate(pivots):
            v[pc] = (-m[pr][c]) % p
        basis.append(tuple(v))
    return basis


def _charpoly_roots(rows, p):
    """All eigenvalues in F_p of a square matrix, by interpolation of the
    characteristic polynomial and a root scan."""
    n = len(rows)
    if n == 0:
        return []
    xs = list(range(n + 1))
    ys = [_det_mod([[(rows[i][j] - (x if i == j else 0)) % p
                     for j in range(n)] for i in range(n)], p) for x in xs]
    # Lagrange interpolation of det(A - xI) at n+1 points
    roots = []
    for lam in range(p):
        val = 0
        for k, (xk, yk) in enumerate(zip(xs, ys)):
            num, den = yk, 1
            for j, xj in enumerate(xs):
                if j != k:
                    num = (num * (lam - xj)) % p
                    den = (den * (xk - xj)) % p
            val = (val + num * pow(den, -1, p)) % p
        if val == 0:
            roots.append(lam)
    return roots


def _det_mod(m, p):
    return mat_det(m) % p


def _dixon_characters(group: FiniteGroup) -> Tuple[Dict, ...]:
    classes = group.conjugacy_classes()
    r = len(classes)
    reps = [c[0] for c in classes]
    class_of = {}
    for ci, c in enumerate(classes):
        for a in c:
            class_of[a] = ci
    order = len(group)
    e = group.exponent()
    p = _find_prime(order, e, r)
    # class multiplication coefficients: A_j[i][k] = #{(x,y) in C_j x C_i :
    # xy = rep_k}; filled by scanning products and dividing by |C_k|
    a_mats = []
    for j in range(r):
        rows = [[0] * r for _ in range(r)]
        for x in classes[j]:
            for i in range(r):
                for y in classes[i]:
                    k = class_of[group.mul(x, y)]
                    rows[i][k] += 1
        for i in range(r):
            for k in range(r):
                if rows[i][k] % len(classes[k]):
                    raise AssertionError("class algebra count not divisible")
                rows[i][k] //= len(classes[k])
        a_mats.append(rows)
    # common eigenvector refinement over F_p: the class-character vectors
    # are the shared eigenlines of all A_j (acting by (A_j w)_i = sum_k
    # A_j[i][k] w_k)
    spaces = [[tuple(1 if i == j else 0 for i in range(r)) for j in range(r)]]
    for j in range(1, r):
        if all(len(s) == 1 for s in spaces):
            break
        mrows = [[a_mats[j][i][k] % p for k in range(r)] for i in range(r)]
        new_spaces = []
        for basis in spaces:
            if len(basis) == 1:
                new_spaces.append(basis)
                continue
            imgs = [tuple(sum(mrows[i][k] * v[k] for k in range(r)) % p
                          for i in range(r)) for v in basis]
            coords = _coords_mod(basis, imgs, p)
            sub = [[coords[ci][bi] for ci in range(len(basis))]
                   for bi in range(len(basis))]
            for lam in _charpoly_roots(sub, p):
                null = _nullspace_mod(
                    [[(sub[i][jj] - (lam if i == jj else 0)) % p
                      for jj in range(len(basis))]
                     for i in range(len(basis))], p)
                block = [tuple(sum(nv[bi] * basis[bi][i]
                                   for bi in range(len(basis))) % p
                               for i in range(r)) for nv in null]
                if block:
                    new_spaces.append(block)
        spaces = new_spaces
    if not all(len(s) == 1 for s in spaces) or len(spaces) != r:
        raise AssertionError("class algebra did not split into eigenlines")
    # normalize each eigenline: identity class is index 0
    omegas = []
    for s in spaces:
        v = s[0]
        if v[0] % p == 0:
            raise AssertionError("eigenvector vanishes on the identity class")
        inv = pow(v[0], -1, p)
        omegas.append(tuple((x * inv) % p for x in v))
    inv_class = [class_of[group.inverse[reps[i]]] for i in range(r)]
    z = _primitive_root_of_unity(p, e)
    chars = []
    for w in omegas:
        s = 0
        for i in range(r):
            s = (s + w[i] * w[inv_class[i]] * pow(len(classes[i]), -1, p)) % p
        if s == 0:
            raise AssertionError("degree formula degenerated")
        d2 = (order * pow(s, -1, p)) % p
        d = _sqrt_mod(d2, p)
        if d is None:
            raise AssertionError("degree is not a quadratic residue")
        if d > p - d:
            d = p - d
        chi_p = [(d * w[i] * pow(len(classes[i]), -1, p)) % p for i in range(r)]
        # lift to cyclotomics through the power map
        table = {}
        for i in range(r):
            ei = group.order_of(reps[i])
            zi = pow(z, e // ei, p)
            val = Cyclo.zero()
            for m_ in range(ei):
                acc = 0
                g = reps[i]
                for t in range(ei):
                    ct = chi_p[class_of[_pow_elem(group, reps[i], t)]]
                    acc = (acc + ct * pow(zi, (-m_ * t) % ei, p)) % p
                am = (acc * pow(ei, -1, p)) % p
                if am > order:
                    raise AssertionError("eigenvalue multiplicity out of range")
                if am:
                    val = val + Cyclo.root_of_unity(Fraction(m_, ei)).scale(am)
            for a in classes[i]:
                table[a] = val
        chars.append(table)
    return tuple(chars)


def _coords_mod(basis, vectors, p):
    """Coordinates of each vector in the span of `basis` over F_p."""
    n = len(basis[0])
    k = len(basis)
    out = []
    rows = [[basis[j][i] % p for j in range(k)] for i in range(n)]
    for v in vectors:
        aug = [row[:] + [v[i] % p] for i, row in enumerate(rows)]
        coords = _solve_mod(aug, k, p)
        if coords is None:
            raise AssertionError("vector escaped its invariant subspace")
        out.append(coords)
    return out


def _solve_mod(aug, k, p):
    m, pivots = _gauss_jordan_mod(aug, k, p)
    if any(row[k] for row in m[len(pivots):]):
        return None
    x = [0] * k
    for row, c in zip(m, pivots):
        x[c] = row[k]
    return x


def _pow_elem(group: FiniteGroup, a, t: int):
    x = group.identity
    for _ in range(t):
        x = group.mul(x, a)
    return x


def _primitive_root_of_unity(p: int, e: int) -> int:
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in prime_factors(p - 1)):
            return pow(g, (p - 1) // e, p)
    raise AssertionError("no primitive root found")


def _sqrt_mod(a: int, p: int) -> Optional[int]:
    a %= p
    for x in range(p):
        if (x * x) % p == a:
            return x
    return None


# ---------------------------------------------------------------------------
# cocycles

def validate_cocycle(group: FiniteGroup, cocycle: Dict) -> None:
    """cocycle maps (a, b) -> Fraction exponent of a root of unity."""
    get = lambda a, b: Fraction(cocycle.get((a, b), 0)) % 1
    for a in group.elements:
        if get(a, group.identity) % 1 or get(group.identity, a) % 1:
            raise CocycleError("cocycle must be normalized at the identity")
    for a in group.elements:
        for b in group.elements:
            for c in group.elements:
                lhs = get(a, b) + get(group.mul(a, b), c)
                rhs = get(b, c) + get(a, group.mul(b, c))
                if (lhs - rhs) % 1 != 0:
                    raise CocycleError("2-cocycle identity fails at %r" %
                                       ((a, b, c),))


def trivialize_cocycle(group: FiniteGroup, cocycle: Dict) -> Dict:
    """A function beta with cocycle = d(beta), i.e. cocycle(a,b) =
    beta(a) + beta(b) - beta(ab) mod 1; raises CocycleError if the class
    is nontrivial.  Exponents are Fractions mod 1."""
    validate_cocycle(group, cocycle)
    elems = list(group.elements)
    if all(Fraction(v) % 1 == 0 for v in cocycle.values()):
        return {a: Fraction(0) for a in elems}
    denom = 1
    for v in cocycle.values():
        denom = denom * Fraction(v).denominator // gcd(
            denom, Fraction(v).denominator)
    big = denom * len(group)
    idx = {a: i for i, a in enumerate(elems)}
    rows = []
    rhs = []
    for a in elems:
        for b in elems:
            row = [0] * len(elems)
            row[idx[a]] += 1
            row[idx[b]] += 1
            row[idx[group.mul(a, b)]] -= 1
            rows.append(row)
            rhs.append(int((Fraction(cocycle.get((a, b), 0)) % 1) * big))
    # solve rows . x = rhs  (mod big): augment with big * I per equation
    n_eq = len(rows)
    aug = [row + [big if j == i else 0 for j in range(n_eq)]
           for i, row in enumerate(rows)]
    sol = solve_integer(mat(aug), len(elems) + n_eq, tuple(rhs))
    if sol is None:
        raise CocycleError("cocycle class is not trivializable over the "
                           "roots of unity of its conductor times |A|")
    beta = {a: Fraction(sol[idx[a]], big) % 1 for a in elems}
    for a in elems:
        for b in elems:
            expected = (beta[a] + beta[b] - beta[group.mul(a, b)]) % 1
            if expected != Fraction(cocycle.get((a, b), 0)) % 1:
                raise AssertionError("coboundary verification failed")
    return beta


# ---------------------------------------------------------------------------
# public surface

def character_table(group: FiniteGroup) -> Tuple[Dict, ...]:
    """Exact character tables, deterministically ordered by (degree, values)."""
    if len(group) > 1000:
        raise ValueError("character tables limited to groups of order <= 1000")
    chars = _abelian_characters(group) if group.is_abelian() \
        else _dixon_characters(group)
    def key(table):
        deg = table[group.identity]
        return (deg.as_rational(), tuple(repr(table[a]) for a in group.elements))
    return tuple(sorted(chars, key=key))


def simple_modules(group: FiniteGroup, cocycle: Optional[Dict] = None
                   ) -> Tuple[Module, ...]:
    """All simple modules of the (possibly twisted) group algebra.

    With a trivial (or trivializable) cocycle these are computed from the
    character table; the twisted characters are the untwisted ones scaled
    by the trivializing coboundary.  Sum of squared dimensions always
    equals the group order (asserted).
    """
    beta = {a: Fraction(0) for a in group.elements}
    if cocycle:
        beta = trivialize_cocycle(group, cocycle)
    modules = []
    for table in character_table(group):
        dim = int(table[group.identity].as_rational())
        twisted = tuple((a, Cyclo.root_of_unity(beta[a]) * table[a])
                        for a in group.elements)
        modules.append(Module(dim, twisted))
    if sum(m.dim ** 2 for m in modules) != len(group):
        raise AssertionError("sum of squared dimensions != group order")
    return tuple(modules)
