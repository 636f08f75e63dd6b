"""Dense elements of A^(tensor k), k <= 4, and their leg operations.

A Tensor stores the coefficient of e_{i_1} x ... x e_{i_k} at the flat
index i_1 * dim^(k-1) + ... + i_k (row-major, matching the Kronecker
convention of exactmath).  The basis convention is e_0 = unit of A.

Tensors are value-like: they do not know their algebra.  Operations that
need the product, coproduct or counit take them as explicit arguments:

* ``mult`` is a sparse structure-constant table, ``mult[i][j]`` a list of
  ``(k, c)`` pairs with e_i e_j = sum c e_k;
* ``cop`` maps a basis index to a list of ``((j, k), c)`` pairs;
* ``eps`` is the list of counit values on basis elements.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .exactmath import ExactMatrix, Scalar

MultTable = list[list[list[tuple[int, Scalar]]]]
CopTable = list[list[tuple[tuple[int, int], Scalar]]]


class LegError(ValueError):
    """Raised for malformed leg indices, permutations or leg mismatches."""


class Tensor:
    __slots__ = ("dim", "legs", "order", "coeffs")

    def __init__(self, dim: int, legs: int, order: int, coeffs: list[Scalar]):
        if not 0 <= legs <= 4:
            raise LegError(f"tensor legs must be between 0 and 4, got {legs}")
        if len(coeffs) != dim**legs:
            raise LegError(
                f"expected {dim**legs} coefficients for {legs} legs, got {len(coeffs)}"
            )
        self.dim = dim
        self.legs = legs
        self.order = order
        self.coeffs = coeffs

    # -- constructors

    @classmethod
    def zero(cls, dim: int, legs: int, order: int = 1) -> "Tensor":
        z = Scalar.zero(order)
        return cls(dim, legs, order, [z] * dim**legs)

    @classmethod
    def unit(cls, dim: int, legs: int, order: int = 1) -> "Tensor":
        """The unit 1^(x legs); coefficient one at index (0, ..., 0)."""
        t = cls.zero(dim, legs, order)
        t.coeffs[0] = Scalar.one(order)
        return t

    @classmethod
    def from_vector(cls, v: Sequence[Scalar], order: int) -> "Tensor":
        return cls(len(v), 1, order, list(v))

    def to_vector(self) -> list[Scalar]:
        if self.legs != 1:
            raise LegError("to_vector needs a 1-leg tensor")
        return list(self.coeffs)

    # -- indexing

    def _flat(self, idx: tuple[int, ...]) -> int:
        f = 0
        for i in idx:
            f = f * self.dim + i
        return f

    def __getitem__(self, idx: tuple[int, ...]) -> Scalar:
        return self.coeffs[self._flat(idx)]

    def __setitem__(self, idx: tuple[int, ...], value: Scalar) -> None:
        self.coeffs[self._flat(idx)] = value

    def multi_index(self, flat: int) -> tuple[int, ...]:
        """The multi-index stored at a flat position; inverse of ``_flat``."""
        dim, idx = self.dim, []
        for _ in range(self.legs):
            idx.append(flat % dim)
            flat //= dim
        return tuple(reversed(idx))

    def nonzero(self) -> Iterator[tuple[tuple[int, ...], Scalar]]:
        for flat, c in enumerate(self.coeffs):
            if not c.is_zero():
                yield self.multi_index(flat), c

    # -- linear structure

    def __add__(self, other: "Tensor") -> "Tensor":
        self._check_compatible(other)
        return Tensor(self.dim, self.legs, self.order,
                      [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "Tensor") -> "Tensor":
        self._check_compatible(other)
        return Tensor(self.dim, self.legs, self.order,
                      [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, c: Scalar) -> "Tensor":
        return Tensor(self.dim, self.legs, self.order, [c * a for a in self.coeffs])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.legs == other.legs
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __hash__(self) -> None:
        raise TypeError("Tensor is unhashable")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def _check_compatible(self, other: "Tensor") -> None:
        if self.dim != other.dim or self.legs != other.legs:
            raise LegError(
                f"tensor mismatch: {self.legs} legs/dim {self.dim} vs "
                f"{other.legs} legs/dim {other.dim}"
            )

    def __repr__(self) -> str:
        entries = ", ".join(f"{idx}: {c}" for idx, c in self.nonzero())
        return f"Tensor(dim={self.dim}, legs={self.legs}, {{{entries}}})"


# ---------------------------------------------------------------------------
# products


def _fold_basis_product(
    indices: Sequence[int], mult: MultTable, order: int
) -> list[tuple[int, Scalar]]:
    # product e_{i_1} e_{i_2} ... expanded through the structure constants
    acc: list[tuple[int, Scalar]] = [(indices[0], Scalar.one(order))]
    for b in indices[1:]:
        nxt: list[tuple[int, Scalar]] = []
        for a, c in acc:
            for k, ck in mult[a][b]:
                nxt.append((k, c * ck))
        acc = _collect(nxt)
    return acc


def _collect(terms: list[tuple[int, Scalar]]) -> list[tuple[int, Scalar]]:
    if len(terms) <= 1:
        return terms
    seen: dict[int, Scalar] = {}
    for k, c in terms:
        seen[k] = seen[k] + c if k in seen else c
    return [(k, c) for k, c in seen.items() if not c.is_zero()]


def mul(s: Tensor, t: Tensor, mult: MultTable) -> Tensor:
    """Componentwise product of s and t in the algebra A^(x k)."""
    s._check_compatible(t)
    out = Tensor.zero(s.dim, s.legs, s.order)
    if s.legs == 0:
        out.coeffs[0] = s.coeffs[0] * t.coeffs[0]
        return out
    for is_, cs in s.nonzero():
        for it, ct in t.nonzero():
            terms: list[tuple[tuple[int, ...], Scalar]] = [((), cs * ct)]
            for leg in range(s.legs):
                nxt = []
                for prefix, c in terms:
                    for k, ck in mult[is_[leg]][it[leg]]:
                        nxt.append((prefix + (k,), c * ck))
                terms = nxt
            for idx, c in terms:
                f = out._flat(idx)
                out.coeffs[f] = out.coeffs[f] + c
    return out


def mul_chain(factors: Sequence[Tensor], mult: MultTable) -> Tensor:
    acc = factors[0]
    for t in factors[1:]:
        acc = mul(acc, t, mult)
    return acc


def merge_legs(
    t: Tensor, groups: Sequence[Sequence[int]], mult: MultTable
) -> Tensor:
    """Multiply leg groups together; output leg g is the ordered product of
    the input legs listed in groups[g].  Every input leg appears exactly once
    across the groups (1-based leg indices)."""
    used = sorted(leg for g in groups for leg in g)
    if used != list(range(1, t.legs + 1)):
        raise LegError(f"groups {groups} do not partition legs 1..{t.legs}")
    out = Tensor.zero(t.dim, len(groups), t.order)
    for idx, c in t.nonzero():
        parts: list[list[tuple[int, Scalar]]] = [
            _fold_basis_product([idx[leg - 1] for leg in g], mult, t.order)
            for g in groups
        ]
        terms: list[tuple[tuple[int, ...], Scalar]] = [((), c)]
        for p in parts:
            terms = [(pre + (k,), cc * ck) for pre, cc in terms for k, ck in p]
        for oidx, cc in terms:
            f = out._flat(oidx)
            out.coeffs[f] = out.coeffs[f] + cc
    return out


# ---------------------------------------------------------------------------
# leg maps


def leg_map(t: Tensor, j: int, f: ExactMatrix) -> Tensor:
    """Apply the linear map f (columns = images of basis vectors) to leg j."""
    if not 1 <= j <= t.legs:
        raise LegError(f"leg {j} out of range for {t.legs} legs")
    if f.rows != t.dim or f.cols != t.dim:
        raise LegError(f"leg map must be {t.dim}x{t.dim}")
    out = Tensor.zero(t.dim, t.legs, t.order)
    for idx, c in t.nonzero():
        i = idx[j - 1]
        for r in range(t.dim):
            m = f.data[r][i]
            if not m.is_zero():
                oidx = idx[: j - 1] + (r,) + idx[j:]
                fl = out._flat(oidx)
                out.coeffs[fl] = out.coeffs[fl] + m * c
    return out


def coproduct_leg(t: Tensor, j: int, cop: CopTable) -> Tensor:
    """Apply the coproduct to leg j, giving legs (j, j+1) in the output."""
    if not 1 <= j <= t.legs:
        raise LegError(f"leg {j} out of range for {t.legs} legs")
    out = Tensor.zero(t.dim, t.legs + 1, t.order)
    for idx, c in t.nonzero():
        for (a, b), cc in cop[idx[j - 1]]:
            oidx = idx[: j - 1] + (a, b) + idx[j:]
            fl = out._flat(oidx)
            out.coeffs[fl] = out.coeffs[fl] + c * cc
    return out


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
    out = Tensor.zero(t.dim, t.legs, t.order)
    for idx, c in t.nonzero():
        oidx = tuple(idx[p - 1] for p in perm)
        out.coeffs[out._flat(oidx)] = c
    return out


def embed(t: Tensor, target_legs: int, positions: Sequence[int]) -> Tensor:
    """Place the legs of t at the given (strictly increasing, 1-based)
    positions of a target_legs tensor, with unit legs elsewhere."""
    if len(positions) != t.legs:
        raise LegError(f"need {t.legs} positions, got {len(positions)}")
    if list(positions) != sorted(set(positions)):
        raise LegError(f"positions {positions} must be strictly increasing")
    if positions and (positions[0] < 1 or positions[-1] > target_legs):
        raise LegError(f"positions {positions} out of range 1..{target_legs}")
    out = Tensor.zero(t.dim, target_legs, t.order)
    pos0 = [p - 1 for p in positions]
    for idx, c in t.nonzero():
        oidx = [0] * target_legs
        for p, i in zip(pos0, idx):
            oidx[p] = i
        fl = out._flat(tuple(oidx))
        out.coeffs[fl] = out.coeffs[fl] + c
    return out


def tensor_product(s: Tensor, t: Tensor) -> Tensor:
    """Concatenate legs: s x t."""
    if s.dim != t.dim:
        raise LegError("tensor_product requires equal dims")
    out = Tensor.zero(s.dim, s.legs + t.legs, s.order)
    for i1, c1 in s.nonzero():
        for i2, c2 in t.nonzero():
            out.coeffs[out._flat(i1 + i2)] = c1 * c2
    return out


def contract_leg(t: Tensor, j: int, functional: Sequence[Scalar]) -> Tensor:
    """Contract leg j with an arbitrary functional on A."""
    if not 1 <= j <= t.legs:
        raise LegError(f"leg {j} out of range for {t.legs} legs")
    out = Tensor.zero(t.dim, t.legs - 1, t.order)
    for idx, c in t.nonzero():
        w = functional[idx[j - 1]]
        if w.is_zero():
            continue
        oidx = idx[: j - 1] + idx[j:]
        fl = out._flat(oidx)
        out.coeffs[fl] = out.coeffs[fl] + w * c
    return out
