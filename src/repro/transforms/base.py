"""Framework for the local transformations of paper §4.

Each transformation takes a max-min LP instance and produces

* a transformed instance,
* a *back-mapping* that converts any feasible solution of the transformed
  instance into a feasible solution of the original instance, and
* a *ratio factor*: if the transformed solution is an ``α``-approximation of
  the transformed instance's optimum, the back-mapped solution is an
  ``α · ratio_factor``-approximation of the original optimum (factor 1.0 for
  all transformations except §4.3, which costs ``ΔI / 2``).

Transformations compose: :func:`compose` chains the back-mappings in reverse
order and multiplies the ratio factors.

All transformations in this package are *locally computable* in the sense of
paper §4.1 — each one only inspects a constant-radius neighbourhood of every
node it modifies.  The implementations here operate on the whole instance at
once for clarity and speed; the locality is exercised explicitly by the
distributed runtime and the locality tests.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Optional, Sequence

from ..core.instance import MaxMinInstance
from ..core.solution import Solution
from ..exceptions import TransformError

__all__ = ["TransformResult", "Transform", "compose"]

#: Signature of a back-mapping: solution of the transformed instance in,
#: solution of the original instance out.
BackMap = Callable[[Solution], Solution]


class TransformResult:
    """Outcome of applying one transformation (or a composed pipeline).

    Attributes
    ----------
    original:
        The instance the transformation was applied to.
    transformed:
        The resulting instance.
    ratio_factor:
        Multiplicative loss in approximation ratio incurred by mapping back.
    name:
        Name of the transformation (for reports).
    metadata:
        Free-form dictionary with per-transformation details (e.g. how many
        constraints were split).
    """

    __slots__ = ("original", "transformed", "_back_map", "ratio_factor", "name", "metadata")

    def __init__(
        self,
        original: MaxMinInstance,
        transformed: MaxMinInstance,
        back_map: BackMap,
        ratio_factor: float = 1.0,
        name: str = "transform",
        metadata: Optional[Dict[str, object]] = None,
    ) -> None:
        self.original = original
        self.transformed = transformed
        self._back_map = back_map
        self.ratio_factor = ratio_factor
        self.name = name
        self.metadata = metadata or {}

    @property
    def changed(self) -> bool:
        """True unless the transformation was a no-op."""
        return not self.original.structurally_equal(self.transformed)

    def map_back(self, solution: Solution, label: Optional[str] = None) -> Solution:
        """Convert a solution of :attr:`transformed` into one of :attr:`original`."""
        if solution.instance != self.transformed:
            raise TransformError(
                f"map_back of {self.name!r} expects a solution of the transformed instance"
            )
        mapped = self._back_map(solution)
        if label is not None:
            values = mapped.aligned_to(self.original)
            mapped = Solution.from_agent_array(self.original, values, label=label)
        return mapped

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TransformResult(name={self.name!r}, ratio_factor={self.ratio_factor:g}, "
            f"|V|:{self.original.num_agents}->{self.transformed.num_agents}, "
            f"|I|:{self.original.num_constraints}->{self.transformed.num_constraints}, "
            f"|K|:{self.original.num_objectives}->{self.transformed.num_objectives})"
        )


class Transform(abc.ABC):
    """Abstract base class of the §4 transformations."""

    #: Human-readable name, e.g. ``"augment-singleton-constraints (§4.2)"``.
    name: str = "transform"

    @abc.abstractmethod
    def apply(self, instance: MaxMinInstance) -> TransformResult:
        """Apply the transformation and return a :class:`TransformResult`."""

    def __call__(self, instance: MaxMinInstance) -> TransformResult:
        return self.apply(instance)

    def check_preconditions(self, instance: MaxMinInstance) -> None:
        """Hook for subclasses; raise :class:`TransformError` when violated."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def compose(results: Sequence[TransformResult], name: str = "pipeline") -> TransformResult:
    """Compose a chain of transformation results applied in the given order.

    ``results[0].original`` is the original instance and
    ``results[-1].transformed`` the final instance; back-mappings are applied
    in reverse order and ratio factors multiply.
    """
    if not results:
        raise TransformError("cannot compose an empty transformation chain")

    for first, second in zip(results, results[1:]):
        if not first.transformed.structurally_equal(second.original):
            raise TransformError(
                f"transformation chain broken between {first.name!r} and {second.name!r}: "
                "the output of one is not the input of the next"
            )

    chain: List[TransformResult] = list(results)
    factor = 1.0
    for res in chain:
        factor *= res.ratio_factor

    def back_map(solution: Solution) -> Solution:
        current = solution
        for res in reversed(chain):
            current = res.map_back(current)
        return current

    metadata: Dict[str, object] = {
        "stages": [res.name for res in chain],
        "stage_ratio_factors": [res.ratio_factor for res in chain],
    }
    return TransformResult(
        original=chain[0].original,
        transformed=chain[-1].transformed,
        back_map=back_map,
        ratio_factor=factor,
        name=name,
        metadata=metadata,
    )
