"""Message-queuing SPI and implementations (paper Section III-B).

A *queue set* is placed like a given key/value table: one queue per
part.  Messages can be put into any queue of the set from anywhere;
the code serving a part takes that part's messages in batches
(``take``), never blocking, and ``pending`` says how many wait.
"""

from repro.messaging.api import MessageQueuing, QueueSet
from repro.messaging.local_queue import LocalMessageQueuing
from repro.messaging.table_queue import TableMessageQueuing

__all__ = [
    "MessageQueuing",
    "QueueSet",
    "LocalMessageQueuing",
    "TableMessageQueuing",
]
