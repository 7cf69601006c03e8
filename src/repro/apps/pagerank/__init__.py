"""PageRank on K/V EBSP: the direct variant and the MapReduce variant.

Section V-A of the paper: both variants run on the same platform and
put both the ranking state and the graph structure in BSP messages;
the *direct* variant uses one step (and hence one synchronization and
one I/O round) per iteration of the PageRank equations, while the
*MapReduce* variant emulates map/reduce with two steps per iteration
and an extra round of K/V-table I/O between reduce and the following
map.  The MapReduce variant is purely inferior — that is the point of
Table I.
"""

from repro.apps.pagerank.common import (
    PageRankConfig,
    build_pagerank_table,
    read_ranks,
    reference_pagerank,
)
from repro.apps.pagerank.batch import pagerank_batch, pagerank_batch_job, read_rank_table
from repro.apps.pagerank.direct import pagerank_direct
from repro.apps.pagerank.mapreduce_variant import pagerank_mapreduce

__all__ = [
    "PageRankConfig",
    "build_pagerank_table",
    "read_ranks",
    "reference_pagerank",
    "pagerank_batch",
    "pagerank_batch_job",
    "pagerank_direct",
    "pagerank_mapreduce",
    "read_rank_table",
]
