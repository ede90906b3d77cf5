"""Registry-contract conformance: REP501/REP502/REP503.

The engine and backend registries promise interchangeability; a
registered entry that is missing part of the structural surface
(``run_phase`` and the phase bookkeeping, the four diagram arrays, the
``MultiSourceResult`` provenance fields) breaks callers that were
written against the contract, typically on a path no test pins.

These are *repo rules*: they instantiate every registered entry over a
tiny fixed instance and verify the members of the contracts stated in
:mod:`repro.contracts` (the same Protocols mypy checks statically):

* **REP501** — a registered engine factory returned an object missing
  part of :data:`~repro.contracts.ENGINE_CONTRACT`.
* **REP502** — a registered backend is not callable on
  ``(graph, seeds)`` or returned a diagram missing part of
  :data:`~repro.contracts.DIAGRAM_CONTRACT`.
* **REP503** — :class:`~repro.shortest_paths.backends.MultiSourceResult`
  lost part of :data:`~repro.contracts.MULTISOURCE_RESULT_CONTRACT`.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.analysis.engine import Finding, repo_rule
from repro.contracts import (
    DIAGRAM_CONTRACT,
    ENGINE_CONTRACT,
    MULTISOURCE_RESULT_CONTRACT,
)

__all__: list[str] = []


def _tiny_instance() -> "tuple[Any, Any]":
    """A 4-vertex path graph + 2-rank block partition, enough to
    instantiate every engine and run every backend."""
    import numpy as np

    from repro.graph.csr import CSRGraph
    from repro.runtime.partition import block_partition

    edges = np.array([[0, 1], [1, 2], [2, 3]], dtype=np.int64)
    weights = np.array([1, 2, 3], dtype=np.int64)
    graph = CSRGraph.from_edges(4, edges, weights)
    return graph, block_partition(graph, 2)


@repo_rule(
    ("REP501", "registered engine violates the RuntimeEngine contract"),
    ("REP502", "registered backend violates the diagram contract"),
    ("REP503", "MultiSourceResult lost a contract member"),
)
def check_registry_contracts() -> Iterator[Finding]:
    import numpy as np

    from repro.runtime.engines import available_engines, make_engine
    from repro.shortest_paths.backends import (
        MultiSourceResult,
        available_backends,
        get_backend,
    )

    graph, partition = _tiny_instance()

    for name in available_engines():
        engine = make_engine(name, partition)
        missing = [a for a in ENGINE_CONTRACT if not hasattr(engine, a)]
        if missing:
            yield Finding(
                rule="REP501",
                path="src/repro/runtime/engines.py",
                line=1,
                col=0,
                message=f"engine {name!r} ({type(engine).__name__}) is "
                f"missing contract member(s) {missing} "
                f"(repro.contracts.RuntimeEngine)",
            )

    for name in available_backends():
        fn = get_backend(name)
        try:
            diagram = fn(graph, [0, 3])
        except Exception as exc:  # conformance probe: report, don't crash
            yield Finding(
                rule="REP502",
                path="src/repro/shortest_paths/backends.py",
                line=1,
                col=0,
                message=f"backend {name!r} failed the conformance probe "
                f"(graph, seeds) -> diagram: {type(exc).__name__}: {exc}",
            )
            continue
        missing = [
            a
            for a in DIAGRAM_CONTRACT
            if not isinstance(getattr(diagram, a, None), np.ndarray)
        ]
        if missing:
            yield Finding(
                rule="REP502",
                path="src/repro/shortest_paths/backends.py",
                line=1,
                col=0,
                message=f"backend {name!r} returned a diagram missing "
                f"ndarray member(s) {missing} (repro.contracts.DiagramLike)",
            )

    missing = [
        a for a in MULTISOURCE_RESULT_CONTRACT if not hasattr(MultiSourceResult, a)
    ]
    # dataclass fields are instance attributes, invisible on the class
    import dataclasses

    field_names = {f.name for f in dataclasses.fields(MultiSourceResult)}
    missing = [m for m in missing if m not in field_names]
    if missing:
        yield Finding(
            rule="REP503",
            path="src/repro/shortest_paths/backends.py",
            line=1,
            col=0,
            message=f"MultiSourceResult is missing contract member(s) "
            f"{missing} (repro.contracts.MULTISOURCE_RESULT_CONTRACT)",
        )
