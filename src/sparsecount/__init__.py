"""Near-linear homomorphism and subgraph counting on sparse host graphs.

The pipeline: fold each pendant tree of the pattern into a weight
vector over the host's vertices by message passing (a tree is counted
by that alone), then count the 2-core with those vertex weights. At
depth 1, count every acyclic orientation of the core on the host's own
degeneracy DAG; from depth 2 on, close out-out wedges into weighted
fraternal extension layers of the host and of the core, and count each
core extension on the host's own extension, over its n vertices, with
its arcs classed by signature so that each stands in for the arcs of
the pattern-labeled product's extension over it.
Each pattern extension gets a width-1 hub-tree decomposition, and the
generalized tree DP counts it.
Subgraph counts come from the exact rational spasm combination of
homomorphism counts.
"""

from .counting import (NoWidth1Decomposition, brute_force_hom,
                       brute_force_sub, count_hom_extension,
                       count_homomorphisms, count_subgraphs)
from .degeneracy import DegeneracyOrder, degeneracy_order, degeneracy_orient
from .fraternal import (ExtensionBlowupError, FraternalExtension,
                        PatternExtension, enumerate_pattern_extensions,
                        extension_edges, optimal_extension)
from .graph_core import (DirWLGraph, GraphFormatError, UndirectedGraph,
                         load_edge_list, max_outdegree, save_edge_list)
from .harness import (RunReport, cli_main, generate_bounded_degeneracy,
                      generate_double_subdivision, generate_gnp,
                      generate_subdivision, run_count_hom)
from .hub_decomp import (HubTree, URGraph, find_width1_decomposition,
                         hubset, reach, unique_reachability_graph)
from .pattern_tools import (FiberTournament, PendantForest, SpasmEntry,
                            acyclic_orientations, automorphism_count,
                            automorphism_generators, connected_components,
                            fiber_tournament, licl, min_extension_depth,
                            pendant_forest, spasm)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
