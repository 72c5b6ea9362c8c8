"""Exact graph reduction over rational-function edge weights.

This is the desk-scale oracle behind the numeric reduction: weights live in
the field of rational functions in one variable with exact rational
coefficients, so reduced matrices and spectra come out exact.  Conventions:

* a :class:`Polynomial` stores coefficients ascending by degree, trailing
  zeros stripped; the zero polynomial is the empty tuple;
* a :class:`RationalFunction` keeps numerator and denominator coprime with a
  monic denominator, making equality structural;
* a :class:`WeightedDigraph` stores edges ``(i, j)`` meaning the adjacency
  entry at row ``i``, column ``j``; missing edges weigh zero.

A branch of ``(G, S)`` is a path whose interior vertices avoid ``S`` (the
two endpoints may coincide, closing a cycle).  Summing branch weights over
all branches between kept vertices yields the reduced adjacency, whose
eigenvalues are exactly those of the original matrix minus the eigenvalues
of the eliminated block.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import _kept_set
from .errors import (
    DegenerateDeterminant,
    DimensionMismatch,
    DivisionByZeroFunction,
    NotStructural,
    PoleAtLambda,
)


class Polynomial:
    """Univariate polynomial with exact Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        other = other if isinstance(other, Polynomial) else Polynomial([other])
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Polynomial(out)

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def scale(self, c):
        c = Fraction(c)
        return Polynomial([a * c for a in self.coeffs])

    def monic(self):
        if not self.coeffs:
            return self
        return self.scale(1 / self.coeffs[-1])

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dlead = other.coeffs[-1]
        dd = other.degree
        quo = [Fraction(0)] * max(len(rem) - dd, 0)
        while len(rem) - 1 >= dd and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < dd:
                break
            shift = len(rem) - 1 - dd
            factor = rem[-1] / dlead
            quo[shift] = factor
            for k, c in enumerate(other.coeffs):
                rem[shift + k] -= factor * c
        return Polynomial(quo), Polynomial(rem)

    def __call__(self, x):
        out = Fraction(0) if isinstance(x, (Fraction, int)) else 0.0
        for c in reversed(self.coeffs):
            out = out * x + (c if isinstance(x, (Fraction, int)) else float(c))
        return out

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{k}" if c != 1 else f"x^{k}")
        return " + ".join(parts)


def poly_gcd(a, b):
    """Monic greatest common divisor by the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic() if not a.is_zero() else a


LAMBDA = Polynomial((0, 1))
ONE = Polynomial((1,))


class RationalFunction:
    """Quotient of polynomials, kept coprime with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        num = num if isinstance(num, Polynomial) else Polynomial([num] if np.isscalar(num) else num)
        den = den if isinstance(den, Polynomial) else Polynomial([den] if np.isscalar(den) else den)
        if den.is_zero():
            raise DivisionByZeroFunction("denominator is identically zero")
        if num.is_zero():
            self.num, self.den = Polynomial(), ONE
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        lead = den.coeffs[-1]
        self.num = num.scale(1 / lead)
        self.den = den.monic()

    @classmethod
    def constant(cls, c):
        return cls(Polynomial([Fraction(c)]))

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            other = RationalFunction.constant(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.is_zero():
            raise DivisionByZeroFunction("division by the zero function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __call__(self, x):
        den = self.den(x)
        if den == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num(x) / den

    def __repr__(self):
        if self.den == ONE:
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


RF_ZERO = RationalFunction(Polynomial())
RF_ONE = RationalFunction(ONE)
RF_LAMBDA = RationalFunction(LAMBDA)


@dataclass(frozen=True)
class Branch:
    """Path whose interior vertices are all eliminated; endpoints are free.

    ``vertices`` are 0-based; the first and last may coincide (a cycle).
    """

    vertices: tuple

    @property
    def length(self):
        return len(self.vertices) - 1

    @property
    def start(self):
        return self.vertices[0]

    @property
    def end(self):
        return self.vertices[-1]


class WeightedDigraph:
    """Directed graph on vertices 0..n-1 with rational-function edge weights.

    ``labels`` keeps the original vertex names when the graph is the result
    of a reduction.
    """

    def __init__(self, n, weights=None, labels=None):
        self.n = int(n)
        self.weights = {}
        if weights:
            for (i, j), w in weights.items():
                self.add_edge(i, j, w)
        self.labels = tuple(labels) if labels is not None else tuple(range(self.n))
        if len(self.labels) != self.n:
            raise DimensionMismatch("labels must match the vertex count")

    def add_edge(self, i, j, w):
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise DimensionMismatch(f"edge ({i}, {j}) outside a {self.n}-vertex graph")
        if not isinstance(w, RationalFunction):
            w = RationalFunction.constant(w)
        if w.is_zero():
            self.weights.pop((i, j), None)
        else:
            self.weights[(i, j)] = w

    def weight(self, i, j):
        return self.weights.get((i, j), RF_ZERO)

    def successors(self, i):
        return [j for (a, j) in self.weights if a == i]

    @classmethod
    def from_matrix(cls, M, labels=None):
        """Build from a square matrix of numbers, Fractions or RationalFunctions."""
        M = list(M)
        n = len(M)
        g = cls(n, labels=labels)
        for i in range(n):
            row = list(M[i])
            if len(row) != n:
                raise DimensionMismatch("matrix must be square")
            for j, w in enumerate(row):
                if isinstance(w, RationalFunction):
                    if not w.is_zero():
                        g.add_edge(i, j, w)
                elif w:
                    g.add_edge(i, j, RationalFunction.constant(Fraction(w)))
        return g

    def to_matrix(self):
        return [[self.weight(i, j) for j in range(self.n)] for i in range(self.n)]


def is_structural_set(G, S):
    """True iff every non-loop cycle meets ``S`` and no eliminated loop weighs lambda."""
    comp = _kept_set(S, G.n).complement()
    outside = [] if comp is None else comp.array.tolist()
    for v in outside:
        if G.weight(v, v) == RF_LAMBDA:
            return False
    # the subgraph induced on the eliminated vertices must be acyclic
    # (ignoring loops): Kahn's algorithm on that subgraph
    indeg = dict.fromkeys(outside, 0)
    succ = {v: [u for u in G.successors(v) if u in indeg and u != v] for v in outside}
    for v in outside:
        for u in succ[v]:
            indeg[u] += 1
    queue = [v for v in outside if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for u in succ[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                queue.append(u)
    return seen == len(outside)


def branches(G, S):
    """Enumerate every branch of ``(G, S)``: interiors eliminated, endpoints free."""
    S = _kept_set(S, G.n)
    if not is_structural_set(G, S):
        raise NotStructural(f"{S!r} is not a structural set of the graph")
    found = []

    def extend(path):
        v = path[-1]
        for u in G.successors(v):
            if u == path[0] and len(path) >= 1:
                found.append(Branch(tuple(path) + (u,)))
                continue
            if u in path:
                continue
            found.append(Branch(tuple(path) + (u,)))
            if u not in S:
                extend(path + [u])

    for start in range(G.n):
        extend([start])
    return found


def branch_weight(G, beta):
    """Product of edge weights along the branch, each interior vertex
    contributing a factor 1 / (lambda - loop weight)."""
    v = beta.vertices
    w = G.weight(v[0], v[1])
    for k in range(1, len(v) - 1):
        loop = G.weight(v[k], v[k])
        w = w * (G.weight(v[k], v[k + 1]) / (RF_LAMBDA - loop))
    return w


def graph_reduce(G, S):
    """Reduced graph on ``S``: entry (i, j) sums the weights of all branches i -> j.

    The sum is built one eliminated vertex ``v`` at a time, on a copy of the
    edge weights: ``w(i,j) += w(i,v) w(v,j) / (lambda - w(v,v))``, then ``v``
    goes.  On a structural set this is the exact Schur complement, and the
    canonical form of :class:`RationalFunction` makes the result independent
    of the elimination order.
    """
    S = _kept_set(S, G.n)
    if not is_structural_set(G, S):
        raise NotStructural(f"{S!r} is not a structural set of the graph")
    comp = S.complement()
    w = dict(G.weights)
    for v in [] if comp is None else comp.array.tolist():
        den = RF_LAMBDA - w.pop((v, v), RF_ZERO)
        ins = [(i, w.pop((i, v)) / den) for (i, j) in list(w) if j == v]
        outs = [(j, w.pop((v, j))) for (i, j) in list(w) if i == v]
        for i, a in ins:
            for j, b in outs:
                w[(i, j)] = w.get((i, j), RF_ZERO) + a * b
    out = WeightedDigraph(len(S), labels=[G.labels[v] for v in S])
    # every edge left runs between kept vertices; renumber them by rank in S
    at = np.searchsorted(S.array, np.array(list(w), dtype=np.intp).reshape(-1, 2))
    for (i, j), x in zip(at.tolist(), w.values()):
        out.add_edge(i, j, x)
    return out


def evaluate_at(G, lambda0):
    """Evaluate every entry of the adjacency at a number; exact for Fractions."""
    exact = isinstance(lambda0, (Fraction, int))
    x = lambda0 if exact else float(lambda0)
    n = G.n
    out = np.zeros((n, n), dtype=object if exact else np.float64)
    for (i, j), w in G.weights.items():
        den = w.den(x)
        if den == 0:
            raise PoleAtLambda(i, j, lambda0)
        out[i, j] = w.num(x) / den
    return out


def _determinant(M):
    """Determinant of a matrix of RationalFunctions by field-valued elimination."""
    n = len(M)
    M = [row[:] for row in M]
    det = RF_ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if not M[r][col].is_zero()), None)
        if pivot is None:
            return RF_ZERO
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
            det = -det
        det = det * M[col][col]
        inv = RF_ONE / M[col][col]
        for r in range(col + 1, n):
            if M[r][col].is_zero():
                continue
            factor = M[r][col] * inv
            for c in range(col, n):
                M[r][c] = M[r][c] - factor * M[col][c]
    return det


def reduced_spectrum(G):
    """Eigenvalue multiset of the lambda-dependent adjacency.

    Clears denominators of det(M(lambda) - lambda I) and returns the complex
    roots of the numerator (floating point, multiplicities included).
    """
    M = G.to_matrix()
    for i in range(G.n):
        M[i][i] = M[i][i] - RF_LAMBDA
    det = _determinant(M)
    if det.is_zero():
        raise DegenerateDeterminant("det(M(lambda) - lambda I) vanishes identically")
    coeffs = [float(c) for c in det.num.coeffs]
    roots = np.roots(coeffs[::-1])
    return sorted(roots, key=lambda z: (-abs(z), -z.real, -z.imag))
