"""Exception hierarchy for the :mod:`repro` package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything the library may raise with a single ``except`` clause while
still being able to discriminate between graph-construction problems,
algorithm preconditions, and simulation misconfiguration.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """Malformed graph input (bad shapes, negative weights, self loops...)."""


class SeedError(ReproError):
    """Invalid seed (terminal) set: empty, out of range, duplicated, or
    not mutually reachable in the background graph."""


class DisconnectedSeedsError(SeedError):
    """The seed vertices do not all lie in one connected component, so no
    Steiner tree containing all of them exists."""

    def __init__(self, unreached: list[int]):
        self.unreached = list(unreached)
        super().__init__(
            f"{len(self.unreached)} seed vertex/vertices unreachable from the "
            f"first seed: {self.unreached[:10]}"
            + ("..." if len(self.unreached) > 10 else "")
        )


class PartitionError(ReproError):
    """Invalid partitioning request (e.g. more ranks than vertices)."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class ValidationError(ReproError):
    """An output artefact (tree, Voronoi diagram...) failed validation."""
