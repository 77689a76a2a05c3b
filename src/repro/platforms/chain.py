"""Chains of heterogeneous processors (Fig. 1 of the paper).

A chain of length ``p`` is the route ``master → P1 → P2 → ... → Pp``: link
``i`` (latency ``c_i``) feeds processor ``i`` (processing time ``w_i``).
Processors are numbered from 1, the master side first, exactly as in the
paper; all public accessors are 1-based to keep the code side-by-side
readable with the pseudo-code of Fig. 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

from ..core.types import PlatformError, Time
from .spec import ProcessorSpec, validate_cw


@dataclass(frozen=True)
class Chain:
    """Immutable heterogeneous chain ``(c_i, w_i), i = 1..p``."""

    c: tuple[Time, ...]
    w: tuple[Time, ...]

    def __init__(self, c: Iterable[Time], w: Iterable[Time]):
        c_t, w_t = tuple(c), tuple(w)
        if len(c_t) != len(w_t):
            raise PlatformError(
                f"chain needs as many link latencies as processors, got {len(c_t)} vs {len(w_t)}"
            )
        if not c_t:
            raise PlatformError("chain must contain at least one processor")
        for i, (ci, wi) in enumerate(zip(c_t, w_t), start=1):
            validate_cw(
                ci, wi, allow_zero_latency=(i == 1), where=f"processor {i}"
            )
        object.__setattr__(self, "c", c_t)
        object.__setattr__(self, "w", w_t)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def homogeneous(p: int, c: Time, w: Time) -> "Chain":
        """A chain of ``p`` identical ``(c, w)`` workers."""
        if p < 1:
            raise PlatformError(f"chain length must be >= 1, got {p}")
        return Chain([c] * p, [w] * p)

    def with_computing_master(self, w_master: Time) -> "Chain":
        """Prepend a zero-latency worker modelling a master that computes."""
        return Chain((0, *self.c), (w_master, *self.w))

    # -- 1-based accessors (paper notation) -----------------------------------

    @property
    def p(self) -> int:
        """Number of worker processors."""
        return len(self.c)

    def __len__(self) -> int:
        return len(self.c)

    def latency(self, i: int) -> Time:
        """``c_i`` — latency of the link *into* processor ``i`` (1-based)."""
        self._check_index(i)
        return self.c[i - 1]

    def work(self, i: int) -> Time:
        """``w_i`` — processing time of processor ``i`` (1-based)."""
        self._check_index(i)
        return self.w[i - 1]

    def spec(self, i: int) -> ProcessorSpec:
        self._check_index(i)
        return ProcessorSpec(self.c[i - 1], self.w[i - 1])

    def specs(self) -> Iterator[ProcessorSpec]:
        return (ProcessorSpec(ci, wi) for ci, wi in zip(self.c, self.w))

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.p:
            raise PlatformError(f"processor index {i} out of range 1..{self.p}")

    # -- derived quantities ----------------------------------------------------

    def route_latency(self, i: int) -> Time:
        """``c_1 + ... + c_i``: earliest possible arrival of a task emitted at
        time 0 at processor ``i`` (1-based)."""
        self._check_index(i)
        return sum(self.c[:i])

    def t_infinity(self, n: int) -> Time:
        """The paper's ``T∞ = c_1 + (n-1)·max(w_1, c_1) + w_1``.

        This is the makespan of the trivial schedule that runs all ``n``
        tasks on the first processor, and serves as the backward-construction
        horizon of the chain algorithm (every feasible schedule needs at most
        ``T∞``).
        """
        if n < 1:
            raise PlatformError(f"number of tasks must be >= 1, got {n}")
        c1, w1 = self.c[0], self.w[0]
        return c1 + (n - 1) * max(w1, c1) + w1

    def subchain(self, start: int) -> "Chain":
        """The sub-chain ``(c_i, w_i), i = start..p`` (1-based), as used by
        Lemma 2.  ``start = 2`` drops the first processor."""
        self._check_index(start)
        return Chain(self.c[start - 1:], self.w[start - 1:])

    def is_integer(self) -> bool:
        """True iff every ``c_i`` and ``w_i`` is an int (exact arithmetic)."""
        return all(isinstance(v, int) for v in (*self.c, *self.w))

    # -- serialisation -----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {"kind": "chain", "c": list(self.c), "w": list(self.w)}

    @staticmethod
    def from_dict(d: Mapping[str, Any]) -> "Chain":
        if d.get("kind", "chain") != "chain":
            raise PlatformError(f"not a chain payload: {d.get('kind')!r}")
        return Chain(d["c"], d["w"])

    def __repr__(self) -> str:  # compact, row-per-field like Fig. 1
        return f"Chain(c={list(self.c)}, w={list(self.w)})"


def as_chain(obj: "Chain | Sequence[tuple[Time, Time]]") -> Chain:
    """Coerce ``[(c1, w1), (c2, w2), ...]`` (or a Chain) into a Chain."""
    if isinstance(obj, Chain):
        return obj
    pairs = list(obj)
    return Chain((c for c, _ in pairs), (w for _, w in pairs))
