"""Incremental single-source shortest paths on a time-varying graph.

Paper Section V-C: a distinguished source v̂ on an undirected graph;
every other vertex is annotated with d(v̂, v) (hop count).  After a
small batch of primitive changes (vertex gained/lost while isolated,
edge gained/lost) the annotations are updated:

- the **full-scan** variant re-runs MapReduce-like two-step jobs that
  scan the whole graph until nothing changes (one wave of breadth-first
  updates — two waves when the batch removed edges, the first
  invalidating annotations that depended critically on a removed edge);
- the **selective-enablement** variant keeps, at every vertex, the
  distance last received from each neighbor ("extra bookkeeping to
  support its incrementality"), so only vertices actually touched by a
  change — directly or transitively — ever run.

The service catalog's from-scratch solve is ``wave.py``: one
breadth-first wave over an immutable graph table, answers in a per-job
distance table, with a columnar face for the batch data plane.
"""

from repro.apps.sssp.common import (
    INFINITY,
    ChangeBatch,
    FullScanVertex,
    SelectiveVertex,
    reference_distances,
)
from repro.apps.sssp.workload import DynamicGraphWorkload, random_change_batch
from repro.apps.sssp.full_scan import FullScanSSSP
from repro.apps.sssp.incremental import SelectiveSSSP

__all__ = [
    "INFINITY",
    "ChangeBatch",
    "FullScanVertex",
    "SelectiveVertex",
    "reference_distances",
    "FullScanSSSP",
    "SelectiveSSSP",
    "DynamicGraphWorkload",
    "random_change_batch",
]
