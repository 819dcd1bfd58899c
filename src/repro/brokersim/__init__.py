"""Simulated Redis substrate.

dispel4py's ``redis`` mapping uses a Redis server as the message fabric:
PE instances pull work items from Redis lists with blocking pops and push
produced items to their destinations' lists.  No Redis server is
available offline, so this subpackage implements the closest synthetic
equivalent: a dedicated *broker process* (so the data structure really is
external shared state, like a Redis server) speaking the Redis commands
the mapping calls — ``RPUSH``/``BLPOP``/``PING`` — over IPC queues.

Blocking-pop semantics (including FIFO wake-up of parked waiters and
timeouts) match Redis' ``BLPOP``, which is the behaviour the mapping's
correctness depends on.
"""

from repro.brokersim.broker import BrokerServer
from repro.brokersim.client import BrokerClient

__all__ = ["BrokerServer", "BrokerClient"]
