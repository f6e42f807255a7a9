"""Correctness checks: every measured output against a reference.

Each check takes the observed outputs and an independently computed
reference and returns a list of failure messages (empty when the
outputs are correct).  Keeping the reference an argument is what lets
``selftest.py`` tamper with it and prove that each check can fail.

* served: every ``(elements, estimate)`` pair the reader saw, the final
  view and the recovered view equal an in-process ``Session`` replay
  of the same chunks at that offset;
* dense: the batch path equals the per-element path on estimate,
  ``total_work`` and sample, and ``Parabacus`` with the same seed
  equals ``Abacus`` (to 1e-12 relative, as the Theorem 5 tests
  require, with an identical sample);
* window: the windowed estimate equals a bare ``Abacus`` over
  ``expand_window_stream`` of the same input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro import Abacus, Parabacus, open_session
from repro.core.counting import VECTOR_CUTOFF
from repro.sampling import ndadjacency
from repro.types import StreamElement

PARABACUS_REL_TOL = 1e-12


@dataclass
class Replay:
    """An in-process replay: estimate at every chunk boundary + regime."""

    views: Dict[int, float]
    batches: int
    mirror_batches: int
    mutations: int
    elements: int


def mirror_engaged(sample) -> bool:
    """Whether ``Abacus.process_batch`` takes the NumPy mirror path.

    The kernel's own test, read from outside before the batch: NumPy is
    present and the mean sampled degree is at least ``VECTOR_CUTOFF``
    (``2|S| >= VECTOR_CUTOFF * |V(S)|``), both taken from the program, so
    a changed cutoff or a run without NumPy changes the count.
    """
    vertices = sample.num_vertices
    return (
        ndadjacency.NUMPY_AVAILABLE
        and vertices > 0
        and 2 * sample.num_edges >= VECTOR_CUTOFF * vertices
    )


def replay_views(spec: str, chunks: Sequence[Sequence[StreamElement]]) -> Replay:
    """Ingest ``chunks`` into a volatile session, one ``ingest`` per chunk."""
    session = open_session(spec)
    sample = session.estimator.sampler.sample
    views = {0: 0.0}
    mirror = 0
    version = sample.version
    for chunk in chunks:
        mirror += mirror_engaged(sample)
        session.ingest(chunk)
        views[session.elements] = session.estimate
    replay = Replay(
        views=views,
        batches=len(chunks),
        mirror_batches=mirror,
        mutations=sample.version - version,
        elements=session.elements,
    )
    session.close()
    return replay


def check_served(
    observed: Sequence, final: Dict, recovered: Dict, views: Dict[int, float]
) -> List[str]:
    """Reader pairs, final view and recovered view against the replay."""
    failures = []
    for elements, estimate in observed:
        if views.get(elements) != estimate:
            failures.append(
                f"reader saw estimate {estimate!r} at {elements} elements; "
                f"replay has {views.get(elements)!r}"
            )
            break
    end = max(views)
    for label, view in (("final", final), ("recovered", recovered)):
        if view["elements"] != end or view["estimate"] != views[end]:
            failures.append(
                f"{label} view ({view['elements']}, {view['estimate']!r}) != "
                f"replay ({end}, {views[end]!r})"
            )
    return failures


def element_path(budget: int, seed: int, stream: Sequence[StreamElement]) -> Abacus:
    """The per-element reference: ``Abacus.process`` on every element."""
    reference = Abacus(budget, seed=seed)
    for element in stream:
        reference.process(element)
    return reference


def parabacus_path(
    budget: int, seed: int, chunks: Sequence[Sequence[StreamElement]]
) -> Parabacus:
    """``Parabacus`` with the same seed, fed the same chunks, flushed."""
    para = Parabacus(budget, batch_size=500, num_threads=2, seed=seed)
    for chunk in chunks:
        para.process_batch(chunk)
    para.flush()
    return para


def check_dense(batch: Abacus, element: Abacus, para: Parabacus) -> List[str]:
    """Batch path vs per-element path vs ``Parabacus``."""
    failures = []
    if batch.estimate != element.estimate:
        failures.append(
            f"batch estimate {batch.estimate!r} != per-element "
            f"{element.estimate!r}"
        )
    if batch.total_work != element.total_work:
        failures.append(
            f"batch total_work {batch.total_work} != per-element "
            f"{element.total_work}"
        )
    batch_sample = set(batch.sampler.sample.edges())
    if batch_sample != set(element.sampler.sample.edges()):
        failures.append("batch sample differs from the per-element sample")
    if not math.isclose(
        para.estimate, batch.estimate, rel_tol=PARABACUS_REL_TOL, abs_tol=0.0
    ):
        failures.append(
            f"Parabacus estimate {para.estimate!r} != Abacus {batch.estimate!r}"
        )
    if set(para.sampler.sample.edges()) != batch_sample:
        failures.append("Parabacus sample differs from the Abacus sample")
    return failures


def window_reference(
    budget: int, seed: int, expanded: Sequence[StreamElement], chunk: int
) -> Abacus:
    """Bare ``Abacus`` over the pre-expanded window stream."""
    reference = Abacus(budget, seed=seed)
    for start in range(0, len(expanded), chunk):
        reference.process_batch(expanded[start : start + chunk])
    return reference


def check_window(windowed_estimate: float, reference: Abacus) -> List[str]:
    """The windowed session's estimate against the expanded reference."""
    if windowed_estimate != reference.estimate:
        return [
            f"windowed estimate {windowed_estimate!r} != bare Abacus over "
            f"the expanded stream {reference.estimate!r}"
        ]
    return []
