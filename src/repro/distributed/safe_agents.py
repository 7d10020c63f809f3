"""Distributed realisation of the *safe algorithm* baseline.

The safe algorithm (prior work [8, 16]) needs a single exchange: every
constraint tells its members its degree ``|V_i|``, and every agent outputs

.. math:: x_v = \\min_{i \\in I_v} \\frac{1}{|V_i| \\, a_{iv}}.

Two synchronous rounds therefore suffice — the protocol is mostly useful as
the baseline for the round/message accounting of experiment E5 and as the
simplest possible example of a protocol on the runtime.

:class:`VectorizedSafeProtocol` runs the exchange on the message plane
(degrees go out as one ``np.repeat``, the safe share comes back as one
segment-min), and :class:`~repro.distributed.resilient.ResilientSafeSolver`
runs it on the synchronous runtime.  The per-node classes of
:mod:`repro.oracle.distributed` run the identical exchange node by node.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..exceptions import SimulationError
from .plane import MessagePlane, VectorizedProtocol

__all__ = [
    "SAFE_ALGORITHM_ROUNDS",
    "VectorizedSafeProtocol",
]

#: The safe protocol's local horizon.
SAFE_ALGORITHM_ROUNDS = 2


class VectorizedSafeProtocol(VectorizedProtocol):
    """The same two-round exchange as whole-plane array operations."""

    def begin(self, plane: MessagePlane) -> None:
        self._x: Optional[np.ndarray] = None

    def compose(
        self,
        round_number: int,
        inbox_mask: np.ndarray,
        inbox_values: np.ndarray,
        plane: MessagePlane,
    ) -> Tuple[np.ndarray, np.ndarray]:
        comp = plane.comp
        mask, values = plane.empty_round()
        if round_number == 1:
            # Every constraint broadcasts its degree on all its ports.
            lo, hi = plane.con_slot_range()
            mask[lo:hi] = True
            degrees = comp.constraint_degrees
            values[lo:hi] = np.repeat(degrees, degrees).astype(np.float64)
        elif round_number == 2:
            received = inbox_values[plane.agent_con_slots]
            got = inbox_mask[plane.agent_con_slots]
            if not got.all():
                missing = plane.agent_con_slots[~got]
                links = "; ".join(
                    plane.describe_slot(int(plane.reverse[s])) for s in missing[:5]
                )
                raise SimulationError(
                    f"round {round_number}: {len(missing)} safe agent(s) did not "
                    f"receive a constraint degree (missing: {links})"
                )
            self._x = comp.agent_constraint_min(1.0 / (received * comp.con_coeff))
        return mask, values

    def outputs(self, plane: MessagePlane) -> np.ndarray:
        if self._x is None:
            return np.full(plane.num_agents, np.nan)
        return self._x

