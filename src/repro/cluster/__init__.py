"""repro.cluster — sharded, replicated multi-node serving.

The cluster tier turns N independent ``repro serve`` processes into one
availability-prediction service behind one socket:

* :mod:`repro.cluster.ring` places every machine on an R-replica set of
  backends via consistent hashing (stable, balanced, minimal movement);
* :mod:`repro.cluster.membership` probes backend health and applies
  mark-down/mark-up hysteresis;
* :mod:`repro.cluster.router` speaks the node's wire protocol to
  clients and routes each op by the routing class the op table
  declares: owner-routed reads with transparent failover, scatter ops
  merged across nodes, quorum-replicated writes;
* :mod:`repro.cluster.node` supervises the backend processes (each with
  its own durable store, warm-started on restart) and hosts the local
  cluster/bench/test harnesses.

See README "Clustering" for topology and failure-mode documentation.
"""

from repro.cluster.membership import Membership, NodeHealth
from repro.cluster.node import (
    LocalCluster,
    NodeSpec,
    RouterThread,
    SupervisedNode,
    free_port,
    wait_for_port,
)
from repro.cluster.ring import HashRing
from repro.cluster.router import ClusterRouter, RouterConfig

__all__ = [
    "HashRing",
    "Membership",
    "NodeHealth",
    "ClusterRouter",
    "RouterConfig",
    "NodeSpec",
    "SupervisedNode",
    "LocalCluster",
    "RouterThread",
    "free_port",
    "wait_for_port",
]
