"""Exact integer-lattice algebra.

Smith normal form with explicit transformation matrices, finitely
generated abelian groups presented as cokernels, invariants /
coinvariants of finite integer matrix actions, and finite matrix groups
interned by the permutations they make of points.  Everything is exact:
arbitrary-precision integers (or Fractions where a denominator is
unavoidable); no floating point is used anywhere in this package.

>>> D, U, V = smith_normal_form(((2, 4), (6, 8)), 2)
>>> D
((2, 0), (0, 4))
>>> G = FgAbelianGroup(2, [(2, 0), (0, 3)])
>>> (G.free_rank, G.torsion)
(0, (6,))
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from itertools import product
from operator import attrgetter, mul
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

Vector = Tuple[int, ...]
Matrix = Tuple[Tuple[int, ...], ...]

#: safety cap for group closures and orbits, read when one runs; exceeding
#: it is an input error
DEFAULT_CLOSURE_CAP = 10**6

_MISSING = object()


def cached(memo: Dict, key, compute: Callable, *args):
    """memo[key], set to compute(*args) on a miss, by one lookup (a stored
    None is a hit); a compute that raises stores nothing."""
    value = memo.get(key, _MISSING)
    if value is _MISSING:
        value = memo[key] = compute(*args)
    return value


class Value:
    """Base of the frozen value records, in place of a frozen dataclass.

    A record's fields are the positional parameters of its ``__init__``,
    which sets each with ``object.__setattr__`` and runs the record's
    checks.  Records compare and hash by (type, field values), print as
    ``Name(field=value, ...)`` and refuse assignment and deletion.  The
    fields, and any table ``__init__`` derives, live in the instance
    ``__dict__`` as on a dataclass; their tuple and hash are formed per use,
    as keeping them would cost every construction.  Every record has two
    fields or more (``attrgetter`` of one name gives no tuple).
    """

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % item for item in zip(self._fields, self._values(self))))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


# ---------------------------------------------------------------------------
# tuple-matrix helpers

# dot, mat_vec and mat_mul form each entry as sum(map(mul, u, v)): the
# products and their sum keep the left-to-right order of the plain
# generator sum, so ints, Fractions and cyclotomics give the same values.

def _check_lengths(rows: Iterable[Sequence], n: int) -> None:
    for row in rows:
        if len(row) != n:
            raise ValueError("dot: length mismatch %d vs %d" % (len(row), n))


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError("dot: length mismatch %d vs %d" % (len(u), len(v)))
    return sum(map(mul, u, v))


def vadd(u: Sequence, v: Sequence) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Sequence, v: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def vneg(u: Sequence) -> tuple:
    return tuple(-a for a in u)


def vscale(c, u: Sequence) -> tuple:
    return tuple(c * a for a in u)


def mat(rows: Iterable[Iterable]) -> Matrix:
    return tuple(tuple(r) for r in rows)


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    _check_lengths(a, len(b))
    bt = tuple(zip(*b))
    return tuple(tuple([sum(map(mul, row, col)) for col in bt]) for row in a)


def mat_vec(a: Matrix, v: Sequence) -> tuple:
    _check_lengths(a, len(v))
    return tuple([sum(map(mul, row, v)) for row in a])


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def from_columns(columns: Iterable[Sequence], nrows: int) -> Matrix:
    """The nrows x k matrix with the given k columns: nrows rows of ()
    when there are none, a shape the transpose of no rows cannot give."""
    cols = [tuple(c) for c in columns]
    _check_lengths(cols, nrows)
    return tuple(tuple([c[i] for c in cols]) for i in range(nrows))


def mat_det(a: Matrix) -> int:
    """Fraction-free Bareiss determinant."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(r) for r in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def gauss_jordan(rows: Sequence[Sequence], ncols: int, inv: Callable,
                 red: Callable):
    """Reduced row echelon form over a field, pivoting on the first `ncols`
    columns; any further columns are carried along (augmented systems).

    `red` maps an entry to its normal form in the field (zero exactly when
    the entry is zero) and `inv` inverts a nonzero normal form: `_q_red`
    and `_q_inv` over Q, `x % p` and `pow(x, -1, p)` over F_p.  Returns
    (m, pivots): row k of m has its leading 1 in column pivots[k], and the
    rows past len(pivots) vanish on the first `ncols` columns.
    """
    m = [[red(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        f = inv(m[r][c])
        m[r] = [red(x * f) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [red(x - f * y) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return m, pivots


# over Q every int or Fraction is in normal form; pivot rows become Fractions
_q_inv = Fraction(1).__truediv__


def _q_red(x):
    return x


def mat_inverse(a: Matrix) -> tuple:
    """Exact inverse over the rationals (rows of Fractions)."""
    n = len(a)
    m, pivots = gauss_jordan(
        [tuple(row) + tuple(int(i == j) for j in range(n))
         for i, row in enumerate(a)], n, _q_inv, _q_red)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in m)


def mat_inverse_int(a: Matrix) -> Matrix:
    """Inverse of a unimodular integer matrix, as an integer matrix: d * A^-1
    from `_scaled_inverse`, integral exactly when d = +/-det A is +/-1,
    checked exactly."""
    _check_lengths(a, len(a))
    d, scaled = _scaled_inverse(a)
    if abs(d) != 1:
        raise ValueError("matrix is not unimodular")
    inverse = tuple(tuple([d * x for x in row]) for row in scaled)
    if mat_mul(a, inverse) != mat_identity(len(a)):
        raise AssertionError("inverse verification failed: A*A^-1 != 1")
    return inverse


def _scaled_inverse(a: Matrix) -> Tuple[int, Matrix]:
    """(d, d * A^-1) for a square integer matrix A, with d = +/-det A, by
    Gauss-Jordan elimination of [A | 1] in integers.  Each step pivots on
    the least nonzero entry of its column, so on +/-1 where there is one,
    and updates every other row by Bareiss's rule (x * p - f * y) / p',
    p' the previous pivot; each such division is exact.  Raises
    ValueError("matrix is singular")."""
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(a)]
    prev = 1
    for k in range(n):
        piv = min((i for i in range(k, n) if m[i][k]),
                  key=lambda i: abs(m[i][k]), default=None)
        if piv is None:
            raise ValueError("matrix is singular")
        m[k], m[piv] = m[piv], m[k]
        row = m[k]
        p = row[k]
        for i in range(n):
            f = m[i][k]
            if i != k and (f or p != prev):
                m[i] = [(x * p - f * y) // prev for x, y in zip(m[i], row)]
        prev = p
    return prev, tuple(tuple(row[n:]) for row in m)


def mat_contragredient(a: Matrix) -> Matrix:
    """Transpose-inverse: the induced action on the dual lattice."""
    return mat_transpose(mat_inverse_int(a))


def row_rank(rows: Sequence[Sequence], ncols: int) -> int:
    """The rank over Q of some rows of length ncols."""
    return len(gauss_jordan(rows, ncols, _q_inv, _q_red)[1])


def solve_rational(a_cols: Sequence[Sequence], b: Sequence):
    """Solve sum_j x_j * a_cols[j] = b over Q; None if inconsistent."""
    ncols = len(a_cols)
    m, pivots = gauss_jordan(
        [tuple(col[i] for col in a_cols) + (b[i],) for i in range(len(b))],
        ncols, _q_inv, _q_red)
    if any(row[ncols] for row in m[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(m, pivots):
        x[c] = row[ncols]
    return tuple(x)


# ---------------------------------------------------------------------------
# Smith normal form

def _snf_raw(a: Matrix, ncols: int):
    m, n = len(a), ncols
    _check_lengths(a, n)
    A = [list(r) for r in a]
    U = [list(r) for r in mat_identity(m)]
    V = [list(r) for r in mat_identity(n)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        A[dst] = [x + c * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

    def add_col(dst, src, c):
        for row in A:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    for t in range(min(m, n)):
        while True:
            piv = None
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    x = abs(A[i][j])
                    if x and (best is None or x < best):
                        best = x
                        piv = (i, j)
            if piv is None:
                break
            if piv[0] != t:
                swap_rows(t, piv[0])
            if piv[1] != t:
                swap_cols(t, piv[1])
            if A[t][t] < 0:
                negate_row(t)
            p = A[t][t]
            clean = True
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // p
                    if q:
                        add_row(i, t, -q)
                    if A[i][t]:
                        clean = False
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // p
                    if q:
                        add_col(j, t, -q)
                    if A[t][j]:
                        clean = False
            if not clean:
                continue
            bad = None
            for i in range(t + 1, m):
                if any(A[i][j] % p for j in range(t + 1, n)):
                    bad = i
                    break
            if bad is not None:
                add_row(t, bad, 1)
                continue
            break
        if piv is None:
            break

    return mat(A), mat(U), mat(V)


def smith_normal_form(a: Matrix, ncols: int):
    """(D, U, V) with U*A*V = D diagonal, d_1 | d_2 | ..., U and V
    unimodular: the one Smith form every factorization goes through.
    The column count is given, since a matrix with no rows has none to
    read, and every row must have that length.

    The factorization is re-verified by exact multiplication on every
    call; a failure would indicate a genuine bug and raises.
    """
    D, U, V = _snf_raw(a, ncols)
    if mat_mul(mat_mul(U, a), V) != D:
        raise AssertionError("SNF verification failed: U*A*V != D")
    if abs(mat_det(U)) != 1 or abs(mat_det(V)) != 1:
        raise AssertionError("SNF verification failed: transform not unimodular")
    diag = [D[i][i] for i in range(min(len(U), len(V)))]
    for d, e in zip(diag, diag[1:]):
        if d != 0 and e % d != 0:
            raise AssertionError("SNF verification failed: divisibility chain")
    return D, U, V


class SmithSolver:
    """One Smith factorization U*A*V = D of an m x ncols integer matrix A,
    kept for many right-hand sides (Cohen, GTM 138, ch. 2).

    `solve(b)` is x = V*D^-1*U*b with the divisibility test on every call;
    `kernel` is the saturated basis of the integer kernel of x -> A*x, read
    from the columns of V past the rank.
    """

    def __init__(self, a: Matrix, ncols: int):
        D, self._U, self._V = smith_normal_form(a, ncols)
        self._diag = tuple(D[i][i] if i < ncols else 0 for i in range(len(a)))
        rank = sum(1 for d in self._diag if d != 0)
        self.kernel: Tuple[Vector, ...] = tuple(
            tuple(row[j] for row in self._V) for j in range(rank, ncols))

    def solve(self, b: Sequence[int]):
        """One integer solution x of A*x = b, or None."""
        y = [0] * len(self._V)
        for i, (d, x) in enumerate(zip(self._diag, mat_vec(self._U, b))):
            if d == 0:
                if x != 0:
                    return None
            elif x % d:
                return None
            else:
                y[i] = x // d
        return mat_vec(self._V, y)


def kernel_basis(a: Matrix, ncols: int) -> Tuple[Vector, ...]:
    """Basis of the integer kernel of the column action x -> a*x on
    Z^ncols (all of it when a has no rows).

    The returned basis is saturated (the quotient by its span is free).
    """
    return SmithSolver(a, ncols).kernel


def solve_integer(a: Matrix, ncols: int, b: Sequence[int]):
    """One integer solution x in Z^ncols of a*x = b, or None."""
    return SmithSolver(a, ncols).solve(b)


def is_saturated(basis: Sequence[Vector], ambient_rank: int) -> bool:
    """True if the sublattice spanned by `basis` is saturated in Z^rank."""
    k = len(basis)
    D, _, _ = smith_normal_form(from_columns(basis, ambient_rank), k)
    return all(D[i][i] == 1 for i in range(min(k, ambient_rank)))


# ---------------------------------------------------------------------------
# finite matrix-group closure

def closure(generators: Sequence[Matrix], cap: Optional[int] = None):
    """Breadth-first closure of a finite matrix group; words come out reduced.

    Returns (elements, words) where `elements` is a deterministically
    ordered list and `words[g]` is one shortest word in generator indices.
    A group of more than `cap` elements (`DEFAULT_CLOSURE_CAP` by default)
    raises ValueError.
    """
    if cap is None:
        cap = DEFAULT_CLOSURE_CAP
    if not generators:
        raise ValueError("closure needs at least the lattice rank; pass identity")
    n = len(generators[0])
    ident = mat_identity(n)
    words = {ident: ()}
    order = [ident]
    frontier = [ident]
    while frontier:
        new = []
        for g in frontier:
            for i, s in enumerate(generators):
                h = mat_mul(g, s)
                if h not in words:
                    words[h] = words[g] + (i,)
                    order.append(h)
                    new.append(h)
                    if len(words) > cap:
                        raise ValueError(
                            "group closure exceeded cap of %d elements" % cap)
        frontier = new
    return order, words


def orbit(seeds: Iterable, maps: Sequence[Callable],
          cap: Optional[int] = None) -> Dict[object, Optional[tuple]]:
    """Breadth-first orbit of `seeds` under `maps`.

    Returns a dict in discovery order that maps each point to (q, i), the
    point q and map index i with maps[i](q) the first image reaching it;
    seeds map to None, so every point's parent comes before it.  An orbit
    of more than `cap` points (`DEFAULT_CLOSURE_CAP` by default) raises
    ValueError.
    """
    if cap is None:
        cap = DEFAULT_CLOSURE_CAP
    tree: Dict[object, Optional[tuple]] = dict.fromkeys(seeds)
    points = list(tree)
    for q in points:  # the list grows while it is read: a queue
        for i, f in enumerate(maps):
            x = f(q)
            if x not in tree:
                tree[x] = (q, i)
                points.append(x)
                if len(tree) > cap:
                    raise ValueError(
                        "group closure exceeded cap of %d elements" % cap)
    return tree


def basis_orbits(generators: Sequence[Matrix]) -> Tuple[Vector, ...]:
    """The points of the orbits of the standard basis vectors under the
    group some square matrices generate, in discovery order.

    A group G in GL_n(Z) is finite iff every orbit G.e_i is finite (G
    embeds in the product of the permutation groups of the orbits), and
    then acts faithfully on their points, which span the lattice.  Each
    orbit is at most as long as G and is capped on its own, by `orbit`."""
    maps = [partial(mat_vec, g) for g in generators]
    points: Dict[Vector, Optional[tuple]] = {}
    for e in mat_identity(len(generators[0])):
        if e not in points:
            points.update(orbit((e,), maps))
    return tuple(points)


def _compose(pa: Tuple[int, ...], pb: Tuple[int, ...]) -> Tuple[int, ...]:
    """The point permutation of a.b from those of a and b."""
    return tuple([pa[j] for j in pb])


class _CayleyRows(dict):
    """Id -> row of the Cayley table of a group given by the point
    permutation of each id, each row formed on first use and kept."""

    def __init__(self, perms: Sequence[Tuple[int, ...]]):
        super().__init__()
        self.perms = perms
        self.ids = {p: i for i, p in enumerate(perms)}

    def __missing__(self, a: int) -> Tuple[int, ...]:
        pa, ids = self.perms[a], self.ids
        r = self[a] = tuple([ids[_compose(pa, pb)] for pb in self.perms])
        return r


class MatrixGroup:
    """A finite group of integer matrices interned by the permutation each
    element makes of a finite point set, with one reduced word per element.

    The group must permute `points` and act on them faithfully; `perm[m]`
    sends index i to the index of m(points[i]).  The closure composes
    generator permutations breadth-first, so words come out reduced, and
    multiplies matrices only for new elements.  `mul` composes two
    permutations and looks the product up, and `inverse[m]` is tabulated
    from the inverse permutation.

    An element's id is its position in `elements`, which is sorted by
    matrix, so the order of ids is the order of matrices.  `index` (matrix
    to id) and the rows of the Cayley table on ids (`row`) are built on
    first use (Holt-Eick-O'Brien, Handbook of Computational Group Theory,
    ch. 3), one row at a time, as they are asked for.
    """

    def __init__(self, generators: Sequence[Matrix], rank: int,
                 points: Sequence[Vector]):
        self.rank = rank
        self.generators = tuple(generators)
        self.identity: Matrix = mat_identity(rank)
        index = {tuple(x): i for i, x in enumerate(points)}
        gen_perms = [tuple([index[mat_vec(s, x)] for x in points])
                     for s in self.generators]
        if any(len(set(p)) < len(p) for p in gen_perms):
            raise ValueError("element without inverse; not a group?")
        tree = orbit((tuple(range(len(points))),),
                     [partial(_compose, pb=ps) for ps in gen_perms])
        self._by_perm: Dict[Tuple[int, ...], Matrix] = {}
        self.words: Dict[Matrix, Tuple[int, ...]] = {}
        for p, parent in tree.items():
            h, word = self.identity, ()
            if parent is not None:
                g, i = self._by_perm[parent[0]], parent[1]
                h, word = mat_mul(g, self.generators[i]), self.words[g] + (i,)
            self._by_perm[p] = h
            self.words[h] = word
        self.perm: Dict[Matrix, Tuple[int, ...]] = {
            m: p for p, m in self._by_perm.items()}
        self.elements: Tuple[Matrix, ...] = tuple(sorted(self.words))
        self.inverse: Dict[Matrix, Matrix] = {}
        for m, p in self.perm.items():
            q = [0] * len(p)
            for i, j in enumerate(p):
                q[j] = i
            self.inverse[m] = self._by_perm[tuple(q)]

    def __len__(self):
        return len(self.elements)

    def __contains__(self, m: Matrix):
        return m in self.inverse

    def mul(self, a: Matrix, b: Matrix) -> Matrix:
        """The product a.b of two elements, as a lookup."""
        return self._by_perm[_compose(self.perm[a], self.perm[b])]

    @cached_property
    def index(self) -> Dict[Matrix, int]:
        """Element -> id, its position in `elements`."""
        return {m: i for i, m in enumerate(self.elements)}

    @cached_property
    def row(self):
        """row(a)[b] is the id of a.b.  Each row is formed on first use by
        composing point permutations; a formed row is a dict lookup away."""
        return _CayleyRows([self.perm[m] for m in self.elements]).__getitem__

    def double_coset(self, left: Iterable[int], x: int,
                     right: Sequence[int]) -> Set[int]:
        """left . x . right, on element ids.

        Here and in `double_cosets`, `left` and `right` are the ids of
        subgroups.  The set is then a union of right cosets y . right, so a
        left element l with l . x already in it brings no new element and
        is skipped (Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.4)."""
        row = self.row
        out: Set[int] = set()
        for a in left:
            y = row(a)[x]
            if y not in out:
                out.update(map(row(y).__getitem__, right))
        return out

    def double_cosets(self, left: Sequence[int], xs: Iterable[int],
                      right: Sequence[int]) -> List[Set[int]]:
        """The double cosets left . x . right that meet `xs`, each built once
        by `double_coset`, in the order of the first x that meets it."""
        out: List[Set[int]] = []
        seen: Set[int] = set()
        for x in xs:
            if x not in seen:
                coset = self.double_coset(left, x, right)
                seen |= coset
                out.append(coset)
        return out

    def word(self, m: Matrix) -> Tuple[int, ...]:
        return self.words[m]

    def from_word(self, word: Sequence[int]) -> Matrix:
        m = self.identity
        for i in word:
            m = self.mul(m, self.generators[i])
        return m

    def generated(self, gens: Sequence[Matrix]) -> Tuple[Matrix, ...]:
        """The subgroup generated by some elements, sorted; closed by
        products (`mul`) inside this group."""
        return tuple(sorted(orbit((self.identity,),
                                  [partial(self.mul, b=s) for s in gens])))

    def subgroup(self, elements: Iterable[Matrix]) -> "MatrixGroup":
        """The subgroup on some elements, which must contain the identity
        and be closed under products.  It shares this group's generators,
        words and product tables; its `elements` and `inverse` are its
        own, and so are its ids and Cayley rows."""
        keep = set(elements)
        if self.identity not in keep:
            raise ValueError("identity not among the elements")
        if any(self.mul(a, b) not in keep for a in keep for b in keep):
            # a finite set closed under products holds every power of its
            # elements; name a power that leaves it, if one does
            for a in keep:
                x = a
                while x != self.identity:
                    if x not in keep:
                        raise ValueError(
                            "element without inverse; not a group?")
                    x = self.mul(x, a)
            raise ValueError("elements not closed under products; "
                             "not a group?")
        sub = object.__new__(type(self))
        vars(sub).update(vars(self))
        vars(sub).pop("index", None)
        vars(sub).pop("row", None)
        sub.elements = tuple(sorted(keep))
        sub.inverse = {m: self.inverse[m] for m in sub.elements}
        return sub


# ---------------------------------------------------------------------------
# finitely generated abelian groups

class FgaElement(Value):
    """Element of an FgAbelianGroup in canonical (free, torsion) coordinates."""

    def __init__(self, free: Vector, torsion: Vector):
        object.__setattr__(self, "free", free)
        object.__setattr__(self, "torsion", torsion)


class FgAbelianGroup:
    """Z^rank / (column span of a relation matrix).

    Elements are carried in coordinates read off from the Smith normal
    form U*A*V = D of the presentation A: y = U*v, whose slots with d_i = 0
    are the free part and whose slots with d_i >= 2 are the torsion part,
    reduced modulo d_i (d_1 | d_2 | ...); slots with d_i = 1 are dropped.

    >>> G = FgAbelianGroup(2, [(1, -1)])
    >>> G.free_rank, G.torsion
    (1, ())
    >>> G.element_from_ambient((1, 0)).free
    (1,)
    """

    def __init__(self, ambient_rank: int, relation_columns: Sequence[Vector]):
        self.ambient_rank = ambient_rank
        cols = [tuple(c) for c in relation_columns]
        if any(len(c) != ambient_rank for c in cols):
            raise ValueError("relation column of wrong length")
        self._columns = len(cols)
        self.presentation: Matrix = from_columns(cols, ambient_rank)
        D, self._U, _V = smith_normal_form(self.presentation, len(cols))
        self._Uinv = mat_inverse_int(self._U)
        diag = [D[i][i] if i < len(cols) else 0 for i in range(ambient_rank)]
        self._free = tuple(i for i, d in enumerate(diag) if d == 0)
        self._torsion = tuple((i, d) for i, d in enumerate(diag) if d > 1)
        self.torsion: Vector = tuple(d for _i, d in self._torsion)
        self.free_rank: int = len(self._free)
        # slot i of a section is entry _place[i] of (0,) + free + torsion
        kept = self._free + tuple(i for i, _d in self._torsion)
        self._place = tuple(kept.index(i) + 1 if i in kept else 0
                            for i in range(ambient_rank))

    def __repr__(self):
        parts = ["Z"] * self.free_rank + ["Z/%d" % d for d in self.torsion]
        return "FgAbelianGroup(%s)" % (" + ".join(parts) if parts else "0")

    def __eq__(self, other):
        return (isinstance(other, FgAbelianGroup)
                and self.ambient_rank == other.ambient_rank
                and self._columns == other._columns
                and self.presentation == other.presentation)

    def element_from_ambient(self, v: Sequence[int]) -> FgaElement:
        if len(v) != self.ambient_rank:
            raise ValueError("ambient vector of wrong length")
        y = mat_vec(self._U, v)
        return FgaElement(tuple([y[i] for i in self._free]),
                          tuple([y[i] % d for i, d in self._torsion]))

    def element(self, free: Sequence[int] = (), torsion: Sequence[int] = ()) -> FgaElement:
        if len(free) != self.free_rank or len(torsion) != len(self.torsion):
            raise ValueError("coordinate counts do not match the group shape")
        tors = tuple(t % d for t, d in zip(torsion, self.torsion))
        return FgaElement(tuple(int(x) for x in free), tors)

    def section(self, e: FgaElement) -> Vector:
        """An ambient representative of `e` (a set-theoretic section)."""
        coords = (0,) + e.free + e.torsion
        return mat_vec(self._Uinv, [coords[j] for j in self._place])

    def elements_in_box(self, radius: int):
        """All elements with free coordinates in [-radius, radius] (exhaustive
        over torsion).  Only sensible for small groups; used by tests."""
        free_ranges = [range(-radius, radius + 1)] * self.free_rank
        tor_ranges = [range(d) for d in self.torsion]
        for free in product(*free_ranges):
            for tors in product(*tor_ranges):
                yield FgaElement(tuple(free), tuple(tors))


def map_between(source: FgAbelianGroup, target: FgAbelianGroup,
                e: FgaElement) -> FgaElement:
    """Image of `e` under the map induced by the identity on the shared
    ambient lattice (valid when target relations contain source relations)."""
    if source.ambient_rank != target.ambient_rank:
        raise ValueError("groups do not share an ambient lattice")
    return target.element_from_ambient(source.section(e))


# ---------------------------------------------------------------------------
# invariants and coinvariants

def fixed_point_rows(lattice_rank: int,
                     generators: Sequence[Matrix]) -> List[Vector]:
    """The rows of g - 1 for each generator g, in order: their common
    kernel is the fixed sublattice {x : g.x = x for all g}."""
    rows = []
    ident = mat_identity(lattice_rank)
    for g in generators:
        if len(g) != lattice_rank:
            raise ValueError("action rank mismatch")
        rows.extend(map(vsub, g, ident))
    return rows


def coinvariants(lattice_rank: int, generators: Sequence[Matrix],
                 extra_relations: Sequence[Vector] = ()) -> FgAbelianGroup:
    """L / <x - g.x>, optionally after further quotienting by extra columns.
    The columns of g - 1 are the rows of g^T - 1."""
    return FgAbelianGroup(lattice_rank, list(extra_relations) + fixed_point_rows(
        lattice_rank, [mat_transpose(g) for g in generators]))


def invariants_saturated(lattice_rank: int,
                         generators: Sequence[Matrix]) -> Tuple[Vector, ...]:
    """Basis of the saturated fixed sublattice {x : g.x = x for all g}."""
    basis = kernel_basis(mat(fixed_point_rows(lattice_rank, generators)),
                         lattice_rank)
    if not is_saturated(basis, lattice_rank):
        raise AssertionError("kernel basis unexpectedly non-saturated")
    return basis
