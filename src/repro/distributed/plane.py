"""The int-indexed message plane of the synchronous runtime.

:class:`MessagePlane` lowers an instance's communication graph once into
flat arrays, after which a whole synchronous round is a handful of numpy
operations:

* every *directed* edge ``(node, port)`` gets one integer slot;  a node's
  slots are contiguous and ordered by port, so "agent ``v``'s constraint
  ports" is a slice and per-node aggregation is a segmented reduce;
* :attr:`MessagePlane.reverse` is the delivery permutation: the message a
  node puts on slot ``e`` arrives on slot ``reverse[e]`` of its neighbour —
  the whole round's delivery is one fancy-indexed gather;
* slot order is pinned to :class:`~repro.analysis.views.PortNumbering`
  (constraint ports before objective ports for agents, canonical adjacency
  order everywhere), so an array-aware protocol sees messages in exactly the
  order the per-node oracle (:mod:`repro.oracle.distributed`) sees them.

The plane is built directly from the compiled CSR arrays
(:meth:`MaxMinInstance.compiled`) — the ``PortNumbering`` / ``LocalInput``
dicts are never materialised; the equivalence of the two numbering schemes
is pinned by ``tests/test_runtime_vectorized.py``.

Protocols implement :class:`VectorizedProtocol`: per round they receive the
delivered slot mask/values and return the slots they send on.  Payloads on
the plane are ``float64`` — enough for the numeric protocols in this
library; protocols whose payloads are structural (the §5 view-flooding
phase ships whole view trees) mark the flood on the plane for accounting and
evaluate the structural computation with the batched kernels at the phase
boundary (each agent's final view is a deterministic function of the
instance, so the kernel computes exactly what the agent would read off its
assembled view).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Tuple

import numpy as np

from .. import obs
from ..core.compiled import _segment_gather

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.instance import MaxMinInstance

__all__ = ["MessagePlane", "VectorizedProtocol"]


def _pair_with_reverse_rows(
    fwd_indptr: np.ndarray,
    fwd_indices: np.ndarray,
    rev_indptr: np.ndarray,
    rev_indices: np.ndarray,
) -> np.ndarray:
    """Match each forward CSR entry with its mirror entry in the reverse CSR.

    ``fwd`` holds per-agent rows of neighbour positions (e.g. agent → its
    constraints); ``rev`` holds the mirrored rows (constraint → its agents).
    Returns ``pair`` with ``pair[e]`` = index of the rev entry for the same
    undirected edge.  Both CSRs list row members in canonical order, so the
    rev entries in natural order are sorted by (row, member); sorting the fwd
    entries by (neighbour row, owner) aligns the two enumerations 1:1.
    """
    n_fwd = len(fwd_indices)
    owner = np.repeat(
        np.arange(len(fwd_indptr) - 1, dtype=np.int64), np.diff(fwd_indptr)
    )
    order = np.lexsort((owner, fwd_indices))
    pair = np.empty(n_fwd, dtype=np.int64)
    pair[order] = np.arange(n_fwd, dtype=np.int64)
    if len(rev_indices) != n_fwd:  # pragma: no cover - CSR mirror invariant
        raise ValueError("forward/reverse CSR edge counts disagree")
    return pair


class MessagePlane:
    """Flat directed-edge arrays of one instance's communication graph.

    Attributes
    ----------
    comp:
        The underlying :class:`~repro.core.compiled.CompiledInstance`.
    num_slots:
        Total directed-edge slots (``2 ×`` undirected edges).
    agent_indptr:
        Per-agent slot ranges: agent ``v`` sends/receives on slots
        ``agent_indptr[v]:agent_indptr[v+1]``, ports in
        :class:`PortNumbering` order (constraint edges first, then
        objective edges, each in canonical adjacency order).
    agent_con_slots, agent_obj_slots:
        Slot of each agent–constraint / agent–objective edge on the agent's
        side, aligned with the compiled ``con_*`` / ``obj_*`` CSR entries.
    con_base, obj_base:
        First slot of the constraint-side / objective-side block; constraint
        ``i``'s slots are ``con_base + cagents_indptr[i] : …[i+1]`` (aligned
        with the ``cagents_*`` entries), objectives analogously.
    reverse:
        Delivery permutation over all slots (an involution).
    """

    __slots__ = (
        "comp",
        "num_slots",
        "agent_indptr",
        "agent_con_slots",
        "agent_obj_slots",
        "con_base",
        "obj_base",
        "reverse",
    )

    def __init__(self, instance: "MaxMinInstance") -> None:
        obs.count("plane.builds")
        self.comp = comp = instance.compiled()
        A = len(comp.con_indices)
        B = len(comp.obj_indices)
        self.num_slots = 2 * (A + B)
        self.con_base = A + B
        self.obj_base = A + B + A

        con_deg = np.diff(comp.con_indptr)
        obj_deg = np.diff(comp.obj_indptr)
        self.agent_indptr = np.zeros(comp.num_agents + 1, dtype=np.int64)
        np.cumsum(con_deg + obj_deg, out=self.agent_indptr[1:])
        self.agent_con_slots = _segment_gather(self.agent_indptr[:-1], con_deg)
        self.agent_obj_slots = _segment_gather(self.agent_indptr[:-1] + con_deg, obj_deg)

        con_pair = _pair_with_reverse_rows(
            comp.con_indptr, comp.con_indices, comp.cagents_indptr, comp.cagents_indices
        )
        obj_pair = _pair_with_reverse_rows(
            comp.obj_indptr, comp.obj_indices, comp.oagents_indptr, comp.oagents_indices
        )
        self.reverse = np.empty(self.num_slots, dtype=np.int64)
        self.reverse[self.agent_con_slots] = self.con_base + con_pair
        self.reverse[self.agent_obj_slots] = self.obj_base + obj_pair
        self.reverse[self.con_base + con_pair] = self.agent_con_slots
        self.reverse[self.obj_base + obj_pair] = self.agent_obj_slots

    # ------------------------------------------------------------------
    @property
    def num_agents(self) -> int:
        return self.comp.num_agents

    @property
    def num_constraints(self) -> int:
        return self.comp.num_constraints

    @property
    def num_objectives(self) -> int:
        return self.comp.num_objectives

    def con_slot_range(self) -> Tuple[int, int]:
        """The slot block of all constraint-side directed edges."""
        return self.con_base, self.obj_base

    def obj_slot_range(self) -> Tuple[int, int]:
        """The slot block of all objective-side directed edges."""
        return self.obj_base, self.num_slots

    def empty_round(self) -> Tuple[np.ndarray, np.ndarray]:
        """A fresh (mask, values) pair with nothing sent."""
        return (
            np.zeros(self.num_slots, dtype=bool),
            np.zeros(self.num_slots, dtype=np.float64),
        )

    # ------------------------------------------------------------------
    # slot introspection (fault diagnostics)
    # ------------------------------------------------------------------
    def slot_owner(self, slot: int) -> Tuple[str, object, int]:
        """``(kind, node_id, port)`` of the node that *sends* on ``slot``.

        The inverse of the slot layout: agent slots are looked up through
        :attr:`agent_indptr`, relay slots through the mirrored
        ``cagents``/``oagents`` CSRs.  ``port`` is the node's 1-based local
        port, i.e. exactly the key the per-node oracle would use — so a
        fault report names the same coordinates on both.
        """
        comp = self.comp
        if not 0 <= slot < self.num_slots:
            raise ValueError(f"slot {slot} out of range [0, {self.num_slots})")
        if slot < self.con_base:
            pos = int(np.searchsorted(self.agent_indptr, slot, side="right")) - 1
            return "agent", comp.agents[pos], slot - int(self.agent_indptr[pos]) + 1
        if slot < self.obj_base:
            rel = slot - self.con_base
            row = int(np.searchsorted(comp.cagents_indptr, rel, side="right")) - 1
            return "constraint", comp.constraints[row], rel - int(comp.cagents_indptr[row]) + 1
        rel = slot - self.obj_base
        row = int(np.searchsorted(comp.oagents_indptr, rel, side="right")) - 1
        return "objective", comp.objectives[row], rel - int(comp.oagents_indptr[row]) + 1

    def describe_slot(self, slot: int) -> str:
        """Human-readable ``sender port → receiver port`` line for ``slot``."""
        kind, node, port = self.slot_owner(slot)
        rkind, rnode, rport = self.slot_owner(int(self.reverse[slot]))
        return f"{kind} {node!r} port {port} -> {rkind} {rnode!r} port {rport}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MessagePlane({getattr(self.comp.instance, 'name', None)!r}, slots={self.num_slots}, "
            f"agents={self.num_agents})"
        )


class VectorizedProtocol(abc.ABC):
    """An array-aware protocol: one :meth:`compose` call per round, whole plane.

    The contract is the per-node one of
    :class:`~repro.oracle.distributed.ProtocolNode` lifted to arrays:
    ``compose`` receives the messages delivered at the end of the previous
    round (slot mask + slot values, empty in round 1) and returns the slots
    this round's messages go out on.  The runtime delivers via
    :attr:`MessagePlane.reverse` and keeps the round/message accounting, so
    per-round statistics are directly comparable with the per-node oracle.
    """

    def begin(self, plane: MessagePlane) -> None:
        """Hook called once before round 1 (allocate state here)."""

    @abc.abstractmethod
    def compose(
        self,
        round_number: int,
        inbox_mask: np.ndarray,
        inbox_values: np.ndarray,
        plane: MessagePlane,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Produce this round's outgoing messages as (slot mask, slot values)."""

    @abc.abstractmethod
    def outputs(self, plane: MessagePlane) -> np.ndarray:
        """Per-agent outputs after the final round (NaN = no output)."""
