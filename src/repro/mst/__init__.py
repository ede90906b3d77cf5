"""Minimum-spanning-tree kernels.

The paper computes the MST ``G'2`` of the small, replicated distance graph
``G'1`` with a *sequential* routine (Boost's Prim), arguing that
parallelising an MST over at most ``C(|S|, 2)`` edges buys nothing.  We
provide Prim (the paper's choice), Kruskal and Borůvka over plain edge
lists; all three are exercised against each other in tests and in the
``ablation-mst`` experiment.
"""

from repro.mst.union_find import UnionFind
from repro.mst.prim import prim_mst
from repro.mst.kruskal import kruskal_mst
from repro.mst.boruvka import boruvka_mst

__all__ = ["UnionFind", "prim_mst", "kruskal_mst", "boruvka_mst"]
