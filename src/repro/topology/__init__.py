"""Network topology: routing trees and proxy placement.

Section 2.1 of the paper views the clientele of a home server as a tree
rooted at the server, with clients at the leaves and potential service
proxies at the internal nodes; the Internet at large is modelled as a
hierarchy of clusters (a service proxy plus the home servers it
represents).

* :mod:`repro.topology.tree` — the rooted routing tree with hop counts.
* :mod:`repro.topology.builder` — build a clientele tree from a trace
  (the analog of the paper's ``record route`` technique).
* :mod:`repro.topology.placement` — choose proxy locations: demand-
  weighted greedy placement on the tree, and the geographic alternative
  of Gwertzman & Seltzer.
"""

from .tree import RoutingTree, TreeNode
from .builder import build_clientele_tree
from .placement import geographic_placement, greedy_tree_placement

__all__ = [
    "RoutingTree",
    "TreeNode",
    "build_clientele_tree",
    "greedy_tree_placement",
    "geographic_placement",
]
