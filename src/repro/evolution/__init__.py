"""Schema and instance evolution: operators generating WOL programs
(paper Section 6 future work) and instance deltas."""

from .operators import Evolution, EvolutionError, EvolutionResult
from .delta import (Delta, DeltaError, compose_deltas, delta_between,
                    delta_from_json, delta_to_json, load_delta)

__all__ = ["Evolution", "EvolutionError", "EvolutionResult",
           "Delta", "DeltaError", "compose_deltas", "delta_between",
           "delta_from_json", "delta_to_json", "load_delta"]
