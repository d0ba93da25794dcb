"""End-to-end applications: thin spec builders over the planner pipeline.

Every application states its problem as a
:class:`~repro.planner.spec.JobSpec` (exposed as a ``*_spec`` builder),
lets :func:`repro.planner.plan` choose the mapping schema, and executes
on the engine (the serial backend unless a ``config=`` says otherwise),
through :func:`repro.planner.run` for single-schema jobs.
The shared membership and reducer-bitmask helpers live in
:mod:`repro.engine.routing`.
"""

from repro.apps.common_friends import (
    CommonFriendsRun,
    common_friends_spec,
    run_common_friends,
)
from repro.apps.similarity_join import (
    SimilarityJoinRun,
    run_broadcast_baseline,
    run_similarity_join,
    similarity_spec,
)
from repro.apps.skew_join import (
    SkewJoinRun,
    hash_join,
    heavy_key_spec,
    naive_join,
    schema_skew_join,
)
from repro.apps.tensor_product import (
    OuterProductRun,
    distributed_outer_product,
    outer_product_spec,
)
from repro.apps.threeway_similarity import (
    ThreeWayRun,
    run_threeway_similarity,
    threeway_spec,
)

__all__ = [
    "CommonFriendsRun",
    "common_friends_spec",
    "run_common_friends",
    "SimilarityJoinRun",
    "run_broadcast_baseline",
    "run_similarity_join",
    "similarity_spec",
    "SkewJoinRun",
    "hash_join",
    "heavy_key_spec",
    "naive_join",
    "schema_skew_join",
    "OuterProductRun",
    "outer_product_spec",
    "ThreeWayRun",
    "run_threeway_similarity",
    "threeway_spec",
    "distributed_outer_product",
]
