"""Sparse elements of A^(tensor k) and their leg operations.

A Tensor stores a dict from multi-index (i_1, ..., i_k) to the nonzero
coefficient of e_{i_1} x ... x e_{i_k}; it never stores a zero.  The basis
convention is e_0 = unit of A.  ``nonzero()`` yields the entries in
row-major order, matching the Kronecker convention of exactmath.  The one
dense view is ``coeffs``, the row-major list of all dim^k coefficients;
the constructor takes the same list.

Every leg operation reads only the stored entries.  Those that sum terms
(``mul``, ``merge_legs``, ``leg_map``, ``coproduct_leg`` and
``contract_leg``) hand the last product of each term to
``exactmath.collect_products`` as its two factors, unmultiplied: the
factors landing on one multi-index are summed once, a lone product costs
at most one multiplication, and no zero is stored.  ``ExactMatrix``
products are summed the same way, and ``as_matrix`` writes the entries,
already distinct and nonzero, as they are.

``merge_legs`` is the one routine that multiplies legs, and ``mul`` is
one call of it.  It takes one tensor or a sequence of factors, whose legs
are numbered in turn as in their ``tensor_product``, which it never
builds: it walks one entry per factor, taking the product of the
coefficients but the last once per prefix.  An element thus multiplies a
leg as a 1-leg factor (``Tensor.from_vector``) in a group.  The same
walk expands each combination of entries into one term per combination
of its groups' structure constants: a one-leg group is its basis vector,
a two-leg group one table entry, and a longer one its basis product,
folded once per index tuple and call.  It steps through the groups while
each has a single term, skipping a constant that is a one of the running
product's field, as ``exactmath.times`` would skip it; the last other one
is left for ``collect_products``, so an all-ones term is the pair of
coefficients.  From the first group of no term or several on, it grows
one list of partial terms a group at a time: each partial's product is
taken once, and every term of the group extends it with its constant
pending, so the combinations that share a prefix share its product.  A
group of no term ends the entry.  The result is declared in the lcm
of the factors' fields and, once a group multiplies, the table's (read
from its first constant); every operation declares its result in the
field it sums or multiplies in.

A linear map given by a fixed element is one contraction.  The slot
``identity`` = sum_a e_a x e_a carries the input: in the ``merge_legs``
groups its second leg stands where e_a enters a product and its first leg
is a group of its own, which keeps ``a``; ``as_matrix`` reads it as the
column index.  x -> sum t_1 x t_2, for a 2-leg t, has the matrix
``as_matrix(merge_legs((t, identity(dim, order)), ((1, 4, 2), (3,)),
mult), 1)``.  A slot can be mapped first (e.g.
``coproduct_leg(identity, 2, cop)`` feeds Delta(e_a)), and slots
concatenate for maps of several arguments.

Tensors are value-like: they do not know their algebra.  Operations that
need the product, coproduct or counit take them as explicit arguments:

* ``mult`` is a sparse structure-constant table, ``mult[i][j]`` a list of
  ``(k, c)`` pairs with e_i e_j = sum c e_k;
* ``cop`` maps a basis index to a list of ``((j, k), c)`` pairs;
* ``eps`` is the list of counit values on basis elements.
"""

from __future__ import annotations

from itertools import chain, product
from math import lcm
from typing import Iterable, Iterator, Sequence

from .exactmath import ExactMatrix, Scalar, collect, collect_products, times

MultTable = list[list[list[tuple[int, Scalar]]]]
CopTable = list[list[tuple[tuple[int, int], Scalar]]]
Index = tuple[int, ...]


class LegError(ValueError):
    """Raised for malformed leg indices, permutations or leg mismatches."""


def multi_indices(dim: int, legs: int) -> Iterator[Index]:
    """All multi-indices in row-major order."""
    return product(range(dim), repeat=legs)


class Tensor:
    __slots__ = ("dim", "legs", "order", "entries")

    def __init__(self, dim: int, legs: int, order: int, coeffs: Sequence[Scalar]):
        """A tensor from its dense row-major coefficient list."""
        if len(coeffs) != dim**legs:
            raise LegError(
                f"expected {dim**legs} coefficients for {legs} legs, got {len(coeffs)}"
            )
        self._init(dim, legs, order, {
            idx: c for idx, c in zip(multi_indices(dim, legs), coeffs) if not c.is_zero()})

    def _init(self, dim: int, legs: int, order: int, entries: dict[Index, Scalar]) -> None:
        self.dim = dim
        self.legs = legs
        self.order = order
        self.entries = entries

    # -- constructors

    @classmethod
    def _of(cls, dim: int, legs: int, order: int, entries: dict[Index, Scalar]) -> "Tensor":
        # entries must already be free of zeros
        t = cls.__new__(cls)
        t._init(dim, legs, order, entries)
        return t

    @classmethod
    def from_entries(cls, dim: int, legs: int, order: int,
                     entries: Iterable[tuple[Index, Scalar]]) -> "Tensor":
        """A tensor from (multi-index, coefficient) pairs; repeated indices
        are summed and zeros are dropped."""
        return cls._of(dim, legs, order, collect(entries))

    @classmethod
    def zero(cls, dim: int, legs: int, order: int = 1) -> "Tensor":
        return cls._of(dim, legs, order, {})

    @classmethod
    def unit(cls, dim: int, legs: int, order: int = 1) -> "Tensor":
        """The unit 1^(x legs); coefficient one at index (0, ..., 0)."""
        return cls._of(dim, legs, order, {(0,) * legs: Scalar.one(order)})

    @classmethod
    def from_vector(cls, v: Sequence[Scalar], order: int) -> "Tensor":
        return cls(len(v), 1, order, v)

    def to_vector(self) -> list[Scalar]:
        if self.legs != 1:
            raise LegError("to_vector needs a 1-leg tensor")
        return self.coeffs

    # -- indexing

    @property
    def coeffs(self) -> list[Scalar]:
        """Dense row-major coefficient list (a new list each call)."""
        z, get = Scalar.zero(self.order), self.entries.get
        return [get(idx, z) for idx in multi_indices(self.dim, self.legs)]

    def __getitem__(self, idx: Index) -> Scalar:
        return self.entries.get(idx, Scalar.zero(self.order))

    def __setitem__(self, idx: Index, value: Scalar) -> None:
        if len(idx) != self.legs or not all(0 <= i < self.dim for i in idx):
            raise IndexError(f"index {idx} out of range for {self.legs} legs/dim {self.dim}")
        if value.is_zero():
            self.entries.pop(idx, None)
        else:
            self.entries[idx] = value

    def nonzero(self) -> Iterator[tuple[Index, Scalar]]:
        """The stored entries in row-major order of their indices."""
        return iter(sorted(self.entries.items()))

    # -- linear structure

    def __add__(self, other: "Tensor") -> "Tensor":
        self._check_compatible(other)
        return Tensor._of(self.dim, self.legs, lcm(self.order, other.order), collect(
            [*self.entries.items(), *other.entries.items()]))

    def __sub__(self, other: "Tensor") -> "Tensor":
        self._check_compatible(other)
        return Tensor._of(self.dim, self.legs, lcm(self.order, other.order), collect(
            [*self.entries.items(), *((idx, -c) for idx, c in other.entries.items())]))

    def scale(self, c: Scalar) -> "Tensor":
        entries = {idx: c * a for idx, a in self.entries.items()} if c.num else {}
        return Tensor._of(self.dim, self.legs, lcm(self.order, c.order), entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.legs == other.legs
            and self.entries == other.entries
        )

    def __hash__(self) -> None:
        raise TypeError("Tensor is unhashable")

    def is_zero(self) -> bool:
        return not self.entries

    def _check_compatible(self, other: "Tensor") -> None:
        if self.dim != other.dim or self.legs != other.legs:
            raise LegError(
                f"tensor mismatch: {self.legs} legs/dim {self.dim} vs "
                f"{other.legs} legs/dim {other.dim}"
            )

    def __repr__(self) -> str:
        entries = ", ".join(f"{idx}: {c}" for idx, c in self.nonzero())
        return f"Tensor(dim={self.dim}, legs={self.legs}, {{{entries}}})"


def identity(dim: int, order: int = 1) -> Tensor:
    """The slot sum_a e_a x e_a (see the module docstring)."""
    one = Scalar.one(order)
    return Tensor._of(dim, 2, order, {(a, a): one for a in range(dim)})


def _row_major(idx: Index, dim: int) -> int:
    f = 0
    for i in idx:
        f = f * dim + i
    return f


def as_matrix(t: Tensor, rows: int) -> ExactMatrix:
    """The dim^rows x dim^(legs - rows) coefficient matrix of t: the first
    ``rows`` legs give the row index and the others the column index, both
    row-major."""
    if not 0 <= rows <= t.legs:
        raise LegError(f"cannot split {t.legs} legs after leg {rows}")
    return ExactMatrix.from_flat(
        t.dim**rows, t.dim ** (t.legs - rows), t.order,
        ((_row_major(idx, t.dim), c) for idx, c in t.entries.items()))


def _check_leg(t: Tensor, j: int) -> None:
    if not 1 <= j <= t.legs:
        raise LegError(f"leg {j} out of range for {t.legs} legs")


# ---------------------------------------------------------------------------
# products


def _fold_basis_product(
    indices: Sequence[int], mult: MultTable, order: int
) -> list[tuple[int, Scalar]]:
    # product e_{i_1} e_{i_2} ... (two or more) expanded through the
    # structure constants, summed in Q(zeta_order); a one-term product times
    # a one-term constant steps without a sum
    acc = mult[indices[0]][indices[1]]
    for b in indices[2:]:
        if len(acc) == 1 and len(step := mult[acc[0][0]][b]) == 1:
            acc = [(step[0][0], times(acc[0][1], step[0][1]))]
        else:
            acc = list(collect_products(
                ((k, c, ck) for a, c in acc for k, ck in mult[a][b]), order).items())
    return acc


def _field(order: int, table: Iterable[Sequence[tuple[object, Scalar]]]) -> int:
    """lcm of order and the field of a table of (index, constant) lists,
    read from its first constant: a table lies in one field."""
    for terms in table:
        if terms:
            return lcm(order, terms[0][1].order)
    return order


def _outer(head: Iterable[tuple[Index, Scalar]], items: Iterable[tuple[Index, Scalar]]
           ) -> Iterator[tuple[Index, Scalar]]:
    # the entries of head x (a tensor with these items), lazily
    return ((i + j, times(x, c)) for i, x in head for j, c in items)


def mul(s: Tensor, t: Tensor, mult: MultTable) -> Tensor:
    """Componentwise product of s and t in the algebra A^(x k)."""
    return merge_legs((s, t), [(g, g + s.legs) for g in range(1, s.legs + 1)], mult)


def mul_chain(factors: Sequence[Tensor], mult: MultTable) -> Tensor:
    acc = factors[0]
    for t in factors[1:]:
        acc = mul(acc, t, mult)
    return acc


def merge_legs(
    t: Tensor | Sequence[Tensor], groups: Sequence[Sequence[int]], mult: MultTable
) -> Tensor:
    """Multiply leg groups together; output leg g is the ordered product of
    the input legs listed in groups[g].  t is one tensor or a sequence of
    them, whose legs are numbered in turn as in their ``tensor_product``,
    which is never built.  Every input leg appears exactly once across the
    groups (1-based leg indices)."""
    factors = (t,) if isinstance(t, Tensor) else tuple(t)
    dim, legs, order = factors[0].dim, 0, 1
    for f in factors:
        if f.dim != dim:
            raise LegError("merge_legs requires equal dims")
        legs, order = legs + f.legs, lcm(order, f.order)
    if sorted(chain.from_iterable(groups)) != list(range(1, legs + 1)):
        raise LegError(f"groups {groups} do not partition legs 1..{legs}")
    one = Scalar.one(order)          # of the factors' field, as walk() skips it
    sizes = list(map(len, groups))
    if max(sizes) > 1:
        order = _field(order, chain.from_iterable(mult))
    # a one-leg group is a basis vector; one of three or more legs is folded
    # once per index tuple and call
    basis = [[(i, one)] for i in range(dim)] if min(sizes) == 1 else None
    # (size, first leg, last leg, legs) of each group, the first two 0-based
    plan = [(n, g[0] - 1, g[-1] - 1, g) for n, g in zip(sizes, groups)]
    folded: dict[Index, list[tuple[int, Scalar]]] = {}

    def fold(key: Index) -> list[tuple[int, Scalar]]:
        if (terms := folded.get(key)) is None:
            terms = folded[key] = _fold_basis_product(key, mult, order)
        return terms

    # (index, product of the coefficients) over the factors but the last
    head = factors[0].entries.items() if len(factors) > 1 else [((), one)]
    for f in factors[1:-1]:
        head = _outer(head, f.entries.items())
    last = factors[-1].entries.items()

    def walk() -> Iterator[tuple[Index, Scalar, Scalar]]:
        # for each pair of entries x, y: x y times every combination of one
        # (k, c_k) term per group, as (index, x', y') with x' y' the
        # coefficient; the last factor that is not a one stays
        # unmultiplied for collect_products (see the module docstring)
        for i, x0 in head:
            for j, y0 in last:
                idx, key, x, y = i + j, [], x0, y0
                grown = None         # (key, x, y) partials once a group has not one term
                for n, a, b, g in plan:
                    terms = (mult[idx[a]][idx[b]] if n == 2 else basis[idx[a]] if n == 1
                             else fold(tuple([idx[k - 1] for k in g])))
                    if len(terms) == 1 and grown is None:
                        k, c = terms[0]
                        key.append(k)
                        if not (c.den == 1 and c.num == (1,) and c.order == x.order):
                            x, y = times(x, y), c
                    elif not terms:
                        break                    # a zero basis product
                    else:
                        # each partial's x y is taken once for all the terms
                        # it grows into, each with its constant pending
                        grown = [(ks + (k,), xy, c) for ks, p, q in grown or [(tuple(key), x, y)]
                                 for xy in (times(p, q),) for k, c in terms]
                else:
                    if grown is None:
                        yield tuple(key), x, y
                    else:
                        yield from grown

    return Tensor._of(dim, len(groups), order, collect_products(walk(), order))


# ---------------------------------------------------------------------------
# leg maps


def _replace_leg(t: Tensor, j: int, table: Sequence[Sequence[tuple[Index, Scalar]]],
                 legs: int, order: int) -> Tensor:
    # leg j of each entry replaced by the (out, c) terms of table[its index],
    # out the tuple of the new legs there, summed in Q(zeta_order)
    return Tensor._of(t.dim, legs, order, collect_products((
        (idx[: j - 1] + out + idx[j:], c, m)
        for idx, c in t.entries.items()
        for out, m in table[idx[j - 1]]
    ), order))


def leg_map(t: Tensor, j: int, f: ExactMatrix) -> Tensor:
    """Apply the linear map f (columns = images of basis vectors) to leg j."""
    _check_leg(t, j)
    if f.rows != t.dim or f.cols != t.dim:
        raise LegError(f"leg map must be {t.dim}x{t.dim}")
    # column i of f as the ((row,), entry) pairs of its nonzeros
    cols: list[list[tuple[Index, Scalar]]] = [[] for _ in range(t.dim)]
    for (r, i), m in f.nonzero():
        cols[i].append(((r,), m))
    return _replace_leg(t, j, cols, t.legs, lcm(t.order, f.order))


def coproduct_leg(t: Tensor, j: int, cop: CopTable) -> Tensor:
    """Apply the coproduct to leg j, giving legs (j, j+1) in the output."""
    _check_leg(t, j)
    return _replace_leg(t, j, cop, t.legs + 1, _field(t.order, cop))


def counit_leg(t: Tensor, j: int, eps: Sequence[Scalar]) -> Tensor:
    """Contract leg j with the counit; the scalar multiplies the rest."""
    return contract_leg(t, j, eps)


def permute(t: Tensor, perm: Sequence[int]) -> Tensor:
    """Reorder legs so that new leg l carries old leg perm[l] (1-based).

    This matches subscript notation: permute(t, (2, 3, 1)) of a 3-leg t is
    the element with legs (t_2, t_3, t_1).
    """
    if sorted(perm) != list(range(1, t.legs + 1)):
        raise LegError(f"{perm} is not a permutation of legs 1..{t.legs}")
    return Tensor._of(t.dim, t.legs, t.order,
                      {tuple(idx[p - 1] for p in perm): c for idx, c in t.entries.items()})


def embed(t: Tensor, target_legs: int, positions: Sequence[int]) -> Tensor:
    """Place the legs of t at the given (strictly increasing, 1-based)
    positions of a target_legs tensor, with unit legs elsewhere."""
    if len(positions) != t.legs:
        raise LegError(f"need {t.legs} positions, got {len(positions)}")
    if list(positions) != sorted(set(positions)):
        raise LegError(f"positions {positions} must be strictly increasing")
    if positions and (positions[0] < 1 or positions[-1] > target_legs):
        raise LegError(f"positions {positions} out of range 1..{target_legs}")
    pos0 = [p - 1 for p in positions]
    out = {}
    for idx, c in t.entries.items():
        oidx = [0] * target_legs
        for p, i in zip(pos0, idx):
            oidx[p] = i
        out[tuple(oidx)] = c
    return Tensor._of(t.dim, target_legs, t.order, out)


def tensor_product(s: Tensor, t: Tensor) -> Tensor:
    """Concatenate legs: s x t."""
    if s.dim != t.dim:
        raise LegError("tensor_product requires equal dims")
    return Tensor._of(s.dim, s.legs + t.legs, lcm(s.order, t.order), {
        i1 + i2: times(c1, c2) for i1, c1 in s.entries.items() for i2, c2 in t.entries.items()})


def contract_leg(t: Tensor, j: int, functional: Sequence[Scalar]) -> Tensor:
    """Contract leg j with an arbitrary functional on A."""
    _check_leg(t, j)
    return _replace_leg(t, j, [[] if w.is_zero() else [((), w)] for w in functional],
                        t.legs - 1, lcm(t.order, *{w.order for w in functional}))
