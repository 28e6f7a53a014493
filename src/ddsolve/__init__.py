"""Direct domain-decomposition solver with block LDL^T factorization.

A scalar Helmholtz scattering problem on a square is split into tile
subdomains coupled through one set of interface multipliers; eliminating the
subdomain unknowns leaves a block-wise sparse complex-symmetric system that
is reordered, symbolically analyzed and factored by a supernodal LDL^T with
restricted Bunch-Kaufman pivoting.
"""

from .blockmat import BlockSparseSym, clique_graph, from_blocks, load_blk, save_blk
from .config import ConfigError, RunConfig, parse_config_file
from .driver import PipelineError, SolveReport, run_pipeline, run_sweep, run_verify
from .factor import BlockFactor, DenseFactor, SingularBlockError, block_ldlt, \
    block_solve, dense_ldlt_bk
from .mesh import AssemblyError, Mesh, Partition, PartitionError, ProblemConfig, \
    assemble_helmholtz, build_rect_mesh, partition_mesh
from .ordering import Ordering, OrderingError, load_ordering_file, reorder
from .subdomain import ReducedSystem, SingularDomainError, SubdomainSystem, \
    assemble_reduced, build_subdomain_systems, global_residual, recover_primal, \
    reduce_domain, reduce_domains, tile_classes
from .symbolic import EliminationPlan, symbolic_factor

__version__ = "0.1.0"

__all__ = [
    "AssemblyError", "BlockFactor", "BlockSparseSym", "ConfigError",
    "DenseFactor", "EliminationPlan", "Mesh",
    "Ordering", "OrderingError", "Partition", "PartitionError",
    "PipelineError", "ProblemConfig", "ReducedSystem", "RunConfig",
    "SingularBlockError", "SingularDomainError", "SolveReport",
    "SubdomainSystem", "assemble_helmholtz", "assemble_reduced",
    "block_ldlt", "block_solve", "build_rect_mesh",
    "build_subdomain_systems", "clique_graph", "dense_ldlt_bk",
    "from_blocks", "global_residual", "load_blk", "load_ordering_file",
    "parse_config_file", "partition_mesh", "recover_primal",
    "reduce_domain", "reduce_domains", "reorder", "run_pipeline", "run_sweep",
    "run_verify", "save_blk", "symbolic_factor", "tile_classes",
]
