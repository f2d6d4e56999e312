"""ExSample's core: estimator, beliefs, policies, frame orders, sampler.

This package is the paper's primary contribution (§III). Everything else in
the library — the video/detector/tracker substrates, the baselines, the
query engine — exists to feed or compare against the classes exported here.
"""

from repro.core.belief import (
    BayesUCBPolicy,
    ChunkPolicy,
    GammaBelief,
    GreedyMeanPolicy,
    ThompsonPolicy,
    UniformPolicy,
    beliefs_from_counts,
    make_policy,
)
from repro.core.chunk_state import ChunkStatistics
from repro.core.config import PAPER_ALPHA0, PAPER_BETA0, ExSampleConfig
from repro.core.environment import (
    CallbackEnvironment,
    Observation,
    SearchEnvironment,
    batched_observe,
)
from repro.core.estimator import (
    SeenCounter,
    bias_bound_maxp,
    bias_bound_moments,
    expected_bias,
    expected_n1,
    expected_r,
    pi_seen_at,
    point_estimate,
    poisson_lambda,
    variance_bound,
)
from repro.core.frame_order import (
    FrameOrder,
    RandomPlusOrder,
    ScoreWeightedOrder,
    SequentialOrder,
    UniformOrder,
    make_order,
)
from repro.core.registry import (
    SEARCH_METHODS,
    SearcherContext,
    SearcherSpec,
    register_searcher,
    searcher_spec,
    searcher_specs,
    unregister_searcher,
)
from repro.core.sampler import (
    STREAM_VERSION,
    ExSampleSearcher,
    Searcher,
    SearchRun,
    SearchStep,
    SearchTrace,
)

__all__ = [
    "BayesUCBPolicy",
    "CallbackEnvironment",
    "ChunkPolicy",
    "ChunkStatistics",
    "ExSampleConfig",
    "ExSampleSearcher",
    "FrameOrder",
    "GammaBelief",
    "GreedyMeanPolicy",
    "Observation",
    "PAPER_ALPHA0",
    "PAPER_BETA0",
    "RandomPlusOrder",
    "SEARCH_METHODS",
    "STREAM_VERSION",
    "ScoreWeightedOrder",
    "SearchEnvironment",
    "SearchRun",
    "SearchStep",
    "SearchTrace",
    "Searcher",
    "SearcherContext",
    "SearcherSpec",
    "SeenCounter",
    "SequentialOrder",
    "ThompsonPolicy",
    "UniformOrder",
    "UniformPolicy",
    "batched_observe",
    "beliefs_from_counts",
    "bias_bound_maxp",
    "bias_bound_moments",
    "expected_bias",
    "expected_n1",
    "expected_r",
    "make_order",
    "make_policy",
    "pi_seen_at",
    "point_estimate",
    "poisson_lambda",
    "register_searcher",
    "searcher_spec",
    "searcher_specs",
    "unregister_searcher",
    "variance_bound",
]
