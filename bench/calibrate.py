"""Machine-speed calibration.

The speed of this kind of shared machine drifts by tens of percent within
seconds, and process CPU time drifts with it. The benchmark therefore times a
fixed piece of its own Python next to the ops: a tiny let-language evaluated
and printed by `match` over frozen dataclasses, the same kind of work the
program does. An op's wall time is scaled by REF_S over the median of the two
calibrations just before it and the two just after it, which gives its time at reference
speed: the speed at which one calibration takes REF_S. None of this code
comes from the program under test, so a change to the program cannot move
the calibration.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from dataclasses import dataclass

REF_S = 0.0007  # one calibration at reference speed
EVERY_S = 0.01  # calibrate again once this much time has passed


@dataclass(frozen=True)
class _Num:
    v: int


@dataclass(frozen=True)
class _Var:
    name: str


@dataclass(frozen=True)
class _Add:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class _Let:
    name: str
    rhs: object
    body: object


def _eval(e, env: dict) -> int:
    match e:
        case _Num(v):
            return v
        case _Var(name):
            return env[name]
        case _Add(lhs, rhs):
            return _eval(lhs, env) + _eval(rhs, env)
        case _Let(name, rhs, body):
            return _eval(body, {**env, name: _eval(rhs, env)})
    raise TypeError(e)


def _show(e) -> str:
    match e:
        case _Num(v):
            return str(v)
        case _Var(name):
            return name
        case _Add(lhs, rhs):
            return f"{_show(lhs)} + {_show(rhs)}"
        case _Let(name, rhs, body):
            return f"let {name} = {_show(rhs)}; {_show(body)}"
    raise TypeError(e)


def _tree(k: int):
    e = _Num(0)
    for i in range(k):
        e = _Let(f"x{i}", _Add(e, _Num(i)), _Add(_Var(f"x{i}"), _Num(1)))
    return e


_TREE = _tree(40)
_VALUE = _eval(_TREE, {})


class Calibration:
    """Calibration samples over a run, and scaling of op times by them."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        """Time the fixed work once, with the collector off so that garbage
        the program left behind is not charged to the machine."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(2):
                if _eval(_TREE, {}) != _VALUE or not _show(_TREE):
                    raise AssertionError("calibration work changed")
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.at.append(t1)
        self.took.append(t1 - t0)

    def due(self, now: float) -> bool:
        return not self.at or now - self.at[-1] >= EVERY_S

    def scale(self, t0: float, dt: float) -> float:
        """dt seconds of wall time starting at t0, at reference speed."""
        j = bisect.bisect_right(self.at, t0)  # first sample after the op started
        near = self.took[max(j - 2, 0) : j + 2]  # two before it, two after
        return dt * REF_S / statistics.median(near)
