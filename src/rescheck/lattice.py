"""Ordering, join and meet for security types.

The base chain is low < high < (). Function types compare covariantly in
the argument and contravariantly in the result; latent effects do not
participate in the order. Reference types are ordered by no rule at all,
not even reflexively, which mirrors their invariance: a ref low cell may
be written and read, so neither widening direction is safe.
"""

from __future__ import annotations

from collections.abc import Sequence

from .syntax import EMPTY, HIGH, LOW, Empty, FunType, High, Low, RefType, SecType


class LatticeError(Exception):
    """Raised when a join or meet is requested for unrelated types.

    The checker raises and catches this on every failed join, so the message
    is built only when something asks for it.
    """

    def __init__(self, kind: str, operands: tuple[SecType, SecType]):
        super().__init__(kind, operands)
        self.kind = kind
        self.operands = operands

    def __str__(self) -> str:
        return f"{self.kind}: {self.operands[0]!r} vs {self.operands[1]!r}"


# Position of each level in the chain low < high < ().
_RANK = {Low: 0, High: 1, Empty: 2}


def leq(a: SecType, b: SecType) -> bool:
    """Decide a <= b in the security order."""
    ta, tb = type(a), type(b)
    if ta is FunType:
        return tb is FunType and leq(a.param, b.param) and leq(b.result, a.result)
    ra, rb = _RANK.get(ta), _RANK.get(tb)
    return ra is not None and rb is not None and ra <= rb


def _bound(ts: Sequence[SecType], kind: str, upper: bool) -> SecType:
    """Fold `ts` from the left, keeping the upper (join) or the lower (meet)
    of each pair. Of two levels of equal rank, join keeps the right one and
    meet the left."""
    if not ts:
        raise ValueError(f"{kind} of empty list")
    acc = ts[0]
    for t in ts[1:]:
        ra, rb = _RANK.get(type(acc)), _RANK.get(type(t))
        if ra is not None and rb is not None:  # two levels: what leq decides, without the calls
            rising = ra <= rb
        elif leq(acc, t):
            rising = True
        elif leq(t, acc):
            rising = False
        else:
            raise LatticeError("Incomparable", (acc, t))
        if rising == upper:  # join keeps t when acc <= t, meet when t < acc
            acc = t
    return acc


def join(ts: Sequence[SecType]) -> SecType:
    """Least upper bound of a non-empty list of types."""
    return _bound(ts, "join", True)


def meet(ts: Sequence[SecType]) -> SecType:
    """Greatest lower bound of a non-empty list of types."""
    return _bound(ts, "meet", False)


def enumerate_types(depth: int) -> list[SecType]:
    """All well-formed types whose constructor nesting is at most `depth`.

    Depth 0 gives the three effect levels; each further level adds the two
    reference types and every function type whose parameter and result come
    from the previous level (latent effects stay at level 0).
    """
    levels: list[SecType] = [LOW, HIGH, EMPTY]
    if depth == 0:
        return list(levels)
    prev = enumerate_types(depth - 1)
    out: list[SecType] = list(levels)
    out.append(RefType(LOW))
    out.append(RefType(HIGH))
    for p in prev:
        for r in prev:
            for latent in levels:
                out.append(FunType(p, r, latent))
    return out
