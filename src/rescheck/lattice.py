"""Ordering, join and meet for security types.

The base chain is low < high < (). Function types compare covariantly in
the argument and contravariantly in the result; latent effects do not
participate in the order. Reference types are ordered by no rule at all,
not even reflexively, which mirrors their invariance: a ref low cell may
be written and read, so neither widening direction is safe.

Nearly every call the checker makes compares, joins or meets two levels, so
`leq`, `join` and `meet` answer those from tables keyed by the operands'
classes. Every other operand list goes through the left fold, `_bound`.
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

# Of two levels, keyed by their classes: whether the first is below or equal
# to the second, and the index of the operand that `_bound` keeps, so a table
# hit returns the very object the fold would.
_LEQ = {(ta, tb): ra <= rb for ta, ra in _RANK.items() for tb, rb in _RANK.items()}
_JOIN = {pair: int(below) for pair, below in _LEQ.items()}  # the right one at equal rank
_MEET = {pair: int(not below) for pair, below in _LEQ.items()}  # the left one at equal rank


def leq(a: SecType, b: SecType) -> bool:
    """Decide a <= b in the security order."""
    ta, tb = type(a), type(b)
    below = _LEQ.get((ta, tb))
    if below is not None:
        return below
    # not two levels: only two function types can still be related
    return ta is FunType and tb is FunType and leq(a.param, b.param) and leq(b.result, a.result)


def _bound(ts: Sequence[SecType], kind: str, upper: bool) -> SecType:
    """Fold `ts` from the left, keeping the upper (join) or the lower (meet)
    of each pair. Of two levels of equal rank, join keeps the right one and
    meet the left; `_JOIN` and `_MEET` hold the same choice for a list of
    two levels, and every other list comes here."""
    if not ts:
        raise ValueError(f"{kind} of empty list")
    acc = ts[0]
    for t in ts[1:]:
        rising = _LEQ.get((type(acc), type(t)))  # two levels: what leq decides, without the calls
        if rising is None:
            if leq(acc, t):
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
    if len(ts) == 2:
        k = _JOIN.get((type(ts[0]), type(ts[1])))
        if k is not None:
            return ts[k]
    return _bound(ts, "join", True)


def meet(ts: Sequence[SecType]) -> SecType:
    """Greatest lower bound of a non-empty list of types."""
    if len(ts) == 2:
        k = _MEET.get((type(ts[0]), type(ts[1])))
        if k is not None:
            return ts[k]
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
