"""Workload generators: size distributions, documents, relations, vectors."""

from repro.workloads.distributions import (
    SIZE_PROFILES,
    bimodal_sizes,
    constant_sizes,
    normal_sizes,
    sample_sizes,
    uniform_sizes,
    zipf_sizes,
)
from repro.workloads.documents import (
    Document,
    all_pairs_above,
    generate_documents,
    jaccard,
    set_jaccard,
)
from repro.workloads.relations import (
    Relation,
    Tuple2,
    generate_join_workload,
    generate_skewed_relation,
    heavy_hitters,
    zipf_key_sequence,
)
from repro.workloads.stats import SizeStats, gini_coefficient, size_stats
from repro.workloads.social import (
    User,
    all_common_friends,
    common_friends,
    generate_users,
)
from repro.workloads.vectors import (
    BlockVector,
    VectorBlock,
    dense_outer_product,
    generate_block_vector,
)

__all__ = [
    "SIZE_PROFILES",
    "bimodal_sizes",
    "constant_sizes",
    "normal_sizes",
    "sample_sizes",
    "uniform_sizes",
    "zipf_sizes",
    "Document",
    "all_pairs_above",
    "generate_documents",
    "jaccard",
    "set_jaccard",
    "Relation",
    "Tuple2",
    "generate_join_workload",
    "generate_skewed_relation",
    "heavy_hitters",
    "zipf_key_sequence",
    "SizeStats",
    "gini_coefficient",
    "size_stats",
    "User",
    "all_common_friends",
    "common_friends",
    "generate_users",
    "BlockVector",
    "VectorBlock",
    "dense_outer_product",
    "generate_block_vector",
]
