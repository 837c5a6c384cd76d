"""Near-linear homomorphism and subgraph counting on sparse host graphs.

The pipeline: at depth 1, count every acyclic orientation of the
pattern on the host's own degeneracy DAG; from depth 2 on, close
out-out wedges into weighted fraternal extension layers of the
pattern-labeled product host, each lifted from the host's own
extension without building the product. Each pattern extension gets a
width-1 hub-tree decomposition, and the generalized tree DP counts it.
Subgraph counts come from the exact rational spasm combination of
homomorphism counts.
"""

from .counting import (CountDict, HomMap, NoWidth1Decomposition,
                       brute_force_hom, brute_force_hom_wl, brute_force_sub,
                       bressan_count, count_hom_extension,
                       count_homomorphisms, count_subgraphs,
                       enumerate_root_homs)
from .degeneracy import DegeneracyOrder, degeneracy_order, degeneracy_orient
from .fraternal import (ExtensionBlowupError, ExtensionLiftError,
                        FraternalExtension, enumerate_pattern_extensions,
                        extension_edges, optimal_extension,
                        validate_fraternity)
from .graph_core import (DirWLGraph, GraphFormatError, UndirectedGraph,
                         load_edge_list, max_outdegree, save_edge_list)
from .harness import (RunReport, cli_main, generate_bounded_degeneracy,
                      generate_double_subdivision, generate_gnp,
                      generate_subdivision, run_count_hom)
from .hub_decomp import (HubTree, URGraph, find_width1_decomposition,
                         hubset, reach, unique_reachability_graph,
                         validate_decomposition)
from .pattern_tools import (FiberTournament, SpasmEntry,
                            acyclic_orientations, automorphism_count,
                            automorphism_generators, canonical_form,
                            connected_components, fiber_tournament, licl,
                            min_extension_depth, spasm)
from .product import LabeledPattern, label_pattern, pattern_product

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
