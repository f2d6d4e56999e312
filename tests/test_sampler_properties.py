"""Property-based tests of the search loop's structural invariants.

Hypothesis drives the sampler over randomly shaped environments (chunk
layouts, hit patterns, policies, batch sizes) and checks the invariants that
must hold for *any* configuration:

* sampling is without replacement — no (chunk, frame) pair repeats;
* frames stay within their chunk's bounds;
* the per-chunk sample counts in the trace equal the searcher's n_j state;
* discovery curves are monotone and d0-consistent;
* stopping conditions are respected exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ExSampleConfig
from repro.core.environment import CallbackEnvironment, Observation
from repro.core.sampler import ExSampleSearcher
from repro.utils.rng import RngFactory

chunk_layouts = st.lists(
    st.integers(min_value=1, max_value=60), min_size=1, max_size=8
)
policies = st.sampled_from(["thompson", "bayes_ucb", "greedy", "uniform"])
orders = st.sampled_from(["randomplus", "uniform", "sequential"])
batch_sizes = st.sampled_from([1, 3, 16])


def hit_env(sizes, hit_modulus):
    """Deterministic environment: a frame holds an object iff divisible."""

    def observe(chunk, frame):
        found = int((chunk * 1000 + frame) % hit_modulus == 0)
        payload = [chunk * 100_000 + frame] * found
        return Observation(d0=found, d1=0, results=payload, cost=1.0)

    return CallbackEnvironment(sizes, observe)


@given(
    sizes=chunk_layouts,
    policy=policies,
    order=orders,
    batch=batch_sizes,
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_no_replacement_and_bounds(sizes, policy, order, batch, seed):
    env = hit_env(sizes, hit_modulus=7)
    searcher = ExSampleSearcher(
        env,
        ExSampleConfig(seed=seed, policy=policy, within_chunk_order=order,
                       batch_size=batch),
        rng=RngFactory(seed),
    )
    trace = searcher.run()  # run to exhaustion
    assert trace.num_samples == sum(sizes)
    pairs = list(zip(trace.chunks.tolist(), trace.frames.tolist()))
    assert len(set(pairs)) == len(pairs), "a frame was sampled twice"
    for chunk, frame in pairs:
        assert 0 <= frame < sizes[chunk]


@given(
    sizes=chunk_layouts,
    batch=batch_sizes,
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=30, deadline=None)
def test_trace_counts_match_state(sizes, batch, seed):
    env = hit_env(sizes, hit_modulus=5)
    searcher = ExSampleSearcher(
        env, ExSampleConfig(seed=seed, batch_size=batch), rng=RngFactory(seed)
    )
    trace = searcher.run(frame_budget=min(sum(sizes), 40))
    trace_counts = np.bincount(trace.chunks, minlength=len(sizes))
    assert np.array_equal(trace_counts, searcher.stats.n)
    assert int(searcher.stats.n.sum()) == trace.num_samples


@given(
    sizes=chunk_layouts,
    seed=st.integers(min_value=0, max_value=2**16),
    limit=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=30, deadline=None)
def test_result_limit_exact(sizes, seed, limit):
    env = hit_env(sizes, hit_modulus=3)
    searcher = ExSampleSearcher(
        env, ExSampleConfig(seed=seed), rng=RngFactory(seed)
    )
    trace = searcher.run(result_limit=limit)
    total_hits = sum(
        1
        for chunk, size in enumerate(sizes)
        for frame in range(size)
        if (chunk * 1000 + frame) % 3 == 0
    )
    if total_hits >= limit:
        # Stopped exactly at (or within one frame's worth of) the limit.
        assert trace.num_results >= limit
        curve = trace.discovery_curve()
        assert curve[-2] < limit if curve.size > 1 else True
    else:
        assert trace.num_results == total_hits


@given(
    sizes=chunk_layouts,
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=30, deadline=None)
def test_discovery_curve_consistency(sizes, seed):
    env = hit_env(sizes, hit_modulus=4)
    searcher = ExSampleSearcher(
        env, ExSampleConfig(seed=seed), rng=RngFactory(seed)
    )
    trace = searcher.run()
    curve = trace.discovery_curve()
    assert np.all(np.diff(curve) >= 0)
    assert curve[-1] == trace.num_results == len(trace.results)
    assert trace.d0s.sum() == trace.num_results
