"""The grouped Thompson draw of large repositories (§III-C, Eq. III.4).

A Thompson run with a scalar prior over more than
``PER_CHUNK_DRAW_MAX_CHUNKS`` chunks draws Gamma samples only for the
chunks it has drawn from and lets the never-drawn ones, which all hold the
prior, compete as one group. These tests pin its tail probability against
scipy, its choices against the per-chunk draw (kept here as the
reference), the work it does per pick, and the identity of every path
(checkpoint/restore, fused ``run_many``) on a 300-chunk repository.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.core.belief import group_win_probability
from repro.core.config import ExSampleConfig
from repro.core.environment import CallbackEnvironment, Observation
from repro.core.sampler import PER_CHUNK_DRAW_MAX_CHUNKS, ExSampleSearcher
from repro.query import DistinctObjectQuery, QueryEngine, QuerySession
from repro.utils.rng import spawn_rng
from repro.video import make_dataset

from tests.test_query_session import assert_traces_identical

SRC = Path(__file__).resolve().parents[1] / "src"


def _scipy_win_probability(a, x, members):
    """``1 - P(a, x) ** members`` from scipy, each side where it is exact."""
    from scipy.special import gammainc, gammaincc

    if x <= 0:
        return 1.0
    lower = float(gammainc(a, x))
    if lower < 0.5:
        return 1.0 if lower == 0.0 else -math.expm1(members * math.log(lower))
    return -math.expm1(members * math.log1p(-float(gammaincc(a, x))))


class TestGroupWinProbability:
    SHAPES = (0.1, 1.0, 2.1, 20.1)
    MEMBERS = (1, 2, 5, 37, 1000, 5000)

    @pytest.mark.parametrize("a", SHAPES)
    def test_grid_matches_scipy(self, a):
        """x = 0, tiny, near the mode, at the series/fraction switch, x >> a."""
        xs = [0.0, 1e-300, 1e-12, 1e-4, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0]
        xs += [a + d for d in (-0.5, 0.5, 1.0, 10.0, 29.9, 30.0, 30.1, 60.0)]
        xs += [100.0, 700.0, 750.0, 1e4]
        for x in xs:
            if x < 0:
                continue
            for members in self.MEMBERS:
                assert group_win_probability(a, x, members) == pytest.approx(
                    _scipy_win_probability(a, x, members), rel=0, abs=1e-10
                ), (a, x, members)

    def test_random_points_match_scipy(self):
        rng = spawn_rng(0, "tail-points")
        for _ in range(3000):
            a = float(np.exp(rng.uniform(np.log(0.02), np.log(25.0))))
            x = float(rng.uniform(0.0, a + 60.0) * rng.random() ** 2)
            members = int(rng.integers(1, 5001))
            assert group_win_probability(a, x, members) == pytest.approx(
                _scipy_win_probability(a, x, members), rel=0, abs=1e-10
            ), (a, x, members)

    def test_one_member_is_the_upper_tail(self):
        from scipy.special import gammaincc

        for a in self.SHAPES:
            for x in (0.05, 0.7, a, a + 3.0, a + 45.0):
                assert group_win_probability(a, x, 1) == pytest.approx(
                    float(gammaincc(a, x)), rel=1e-12, abs=1e-300
                )


def test_large_repository_query_imports_no_scipy():
    """A grouped-draw query must not pull scipy in (26 MB and ~0.3 s)."""
    code = (
        "import sys\n"
        "from repro.core.sampler import PER_CHUNK_DRAW_MAX_CHUNKS\n"
        "from repro.query import DistinctObjectQuery, QueryEngine\n"
        "from repro.video import make_dataset\n"
        "engine = QueryEngine(make_dataset('bdd1k', scale=0.3, seed=0), seed=0)\n"
        "assert engine.dataset.chunk_map.sizes().size > PER_CHUNK_DRAW_MAX_CHUNKS\n"
        "outcome = engine.run(DistinctObjectQuery('bus', limit=10),\n"
        "                     method='exsample', run_seed=0)\n"
        "assert outcome.trace.num_samples > 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# -- exactness against the per-chunk draw -------------------------------------


def _per_chunk_picks(alphas, betas, remaining, rng, batch):
    """The per-chunk Thompson batch of Algorithm 1 / §III-F: the reference.

    One Gamma draw per (row, chunk) from the beliefs at the batch's start,
    argmax over chunks with frames left; a row whose chunk ran out earlier
    in the batch is redirected by a fresh one-row draw. Returns the picks
    and whether a row was redirected.
    """
    remaining = remaining.copy()
    scale = 1.0 / betas
    draws = rng.gamma(alphas, scale, size=(batch, alphas.size))
    draws[:, remaining <= 0] = -np.inf
    picks = []
    redirected = False
    for chunk in draws.argmax(axis=1).tolist():
        if remaining[chunk] <= 0:
            redraw = rng.gamma(alphas, scale)
            redraw[remaining <= 0] = -np.inf
            chunk = int(redraw.argmax())
            redirected = True
        remaining[chunk] -= 1
        picks.append(chunk)
    return picks, redirected


#: Live chunks as ``chunk: (N1, n)``; each has drawn ``n`` frames of 20,
#: but chunk 4, the strongest, has one frame left, so a batch whose rows
#: pick it twice redirects the second. Their beliefs compete with the
#: group's maximum: about 3 for 1000 members of Gamma(0.1, 1), a few
#: tenths for 5 members, less for one.
LIVE_VS_MANY = {0: (12, 3), 1: (6, 1), 2: (0, 3), 3: (20, 6), 4: (16, 4)}
LIVE_VS_FEW = {0: (1, 3), 1: (0, 1), 2: (0, 3), 3: (1, 6), 4: (1, 4)}


class _State:
    """A grouped searcher set to one mid-run state, restored per trial.

    Besides the live chunks and ``group`` never-drawn ones (50 frames
    each), the repository holds exhausted chunks whose finds would make
    them strong picks, padding it past ``PER_CHUNK_DRAW_MAX_CHUNKS``.
    """

    def __init__(self, group, batch):
        live = LIVE_VS_MANY if group >= 100 else LIVE_VS_FEW
        exhausted = max(PER_CHUNK_DRAW_MAX_CHUNKS + 1 - len(live) - group, 3)
        sizes = [n + 1 if chunk == 4 else 20 for chunk, (_, n) in live.items()]
        counts = dict(live)
        for chunk in range(len(live), len(live) + exhausted):
            sizes.append(2)
            counts[chunk] = (2, 2)
        sizes.extend([50] * group)
        env = CallbackEnvironment(sizes, lambda c, f: Observation(0, 0))
        searcher = ExSampleSearcher(env, ExSampleConfig(batch_size=batch), rng=3)
        groups = searcher._groups
        assert groups is not None
        for chunk, (n1, n) in counts.items():
            searcher._drawn[chunk] = n
            searcher.stats.n[chunk] = n
            searcher.stats.n1[chunk] = n1
            groups.open(chunk)
            if n == sizes[chunk]:
                groups.close(chunk)
        assert groups.pool_size == group
        self.searcher = searcher
        self.pool = set(groups.order[groups.pool_start :].tolist())
        self._saved = (
            searcher._drawn.copy(),
            groups.order.copy(),
            groups.slot.copy(),
            groups.live_start,
            groups.pool_start,
        )
        self.alphas, self.betas = searcher.belief_parameters()
        self.remaining = searcher.sizes - searcher._drawn

    def picks(self):
        searcher = self.searcher
        drawn, order, slot, live_start, pool_start = self._saved
        searcher._drawn[:] = drawn
        groups = searcher._groups
        groups.order[:] = order
        groups.slot[:] = slot
        groups.live_start, groups.pool_start = live_start, pool_start
        searcher._orders = [None] * len(searcher._orders)
        return [chunk for chunk, _ in searcher.pick_batch()]


def _outcome(picks, anonymous):
    """A batch's chunks; ``anonymous`` ones by first appearance in it."""
    seen = []
    out = []
    for chunk in picks:
        if chunk not in anonymous:
            out.append(chunk)
            continue
        if chunk not in seen:
            seen.append(chunk)
        out.append(f"g{seen.index(chunk)}")
    return tuple(out)


def _chi_square_p(left: Counter, right: Counter) -> float:
    """Two-sample chi-square over outcomes, the rare ones pooled."""
    from scipy.stats import chi2_contingency

    keys = sorted(set(left) | set(right), key=repr)
    common = [k for k in keys if left[k] + right[k] >= 20]
    rare = [k for k in keys if left[k] + right[k] < 20]
    table = [[left[k] for k in common], [right[k] for k in common]]
    if rare:
        table[0].append(sum(left[k] for k in rare))
        table[1].append(sum(right[k] for k in rare))
    return float(chi2_contingency(np.array(table)).pvalue)


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("group", [1, 5, 1000])
def test_grouped_choices_match_per_chunk_draw(group, batch):
    """Same batch outcomes, in distribution, as the per-chunk draw.

    Outcomes are the batch's chunk sequence; members of the 1000-chunk
    group, which are exchangeable, count by first appearance in the batch.
    """
    state = _State(group, batch)
    anonymous = state.pool if group > 5 else set()
    reference_rng = spawn_rng(group * 10 + batch, "per-chunk-reference")
    trials = 4000
    grouped, reference = Counter(), Counter()
    redirects = 0
    for _ in range(trials):
        picks = state.picks()
        assert len(picks) == batch
        assert all(state.remaining[c] > 0 for c in picks)
        grouped[_outcome(picks, anonymous)] += 1
        ref, redirected = _per_chunk_picks(
            state.alphas, state.betas, state.remaining, reference_rng, batch
        )
        redirects += redirected
        reference[_outcome(ref, anonymous)] += 1
    # The scenario exercises what it claims to: both sides win rows, and
    # at batch 4 a good share of batches redirect a row.
    group_wins = sum(
        n for o, n in grouped.items() for c in o
        if c in state.pool or isinstance(c, str)
    )
    assert 0.05 * trials * batch < group_wins < 0.95 * trials * batch
    if batch > 1:
        assert redirects > 0.05 * trials
    p_value = _chi_square_p(grouped, reference)
    assert p_value > 1e-3, (p_value, grouped.most_common(6), reference.most_common(6))


# -- work per pick -------------------------------------------------------------


class _CountingGenerator:
    """Delegates to a generator, counting the Gamma variates drawn."""

    def __init__(self, rng):
        self._rng = rng
        self.gammas = 0

    def standard_gamma(self, *args, **kwargs):
        out = self._rng.standard_gamma(*args, **kwargs)
        self.gammas += np.size(out)
        return out

    def gamma(self, *args, **kwargs):
        out = self._rng.gamma(*args, **kwargs)
        self.gammas += np.size(out)
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.fixture(scope="module")
def bdd1k_engine():
    return QueryEngine(make_dataset("bdd1k", scale=1.0, seed=0), seed=0)


@pytest.mark.parametrize("object_class,run_seed", [("bus", 0), ("truck", 3)])
def test_gamma_variates_per_pick_stay_within_chunks_drawn(
    bdd1k_engine, object_class, run_seed
):
    """On 1000 chunks a pick draws Gammas only for chunks already drawn."""
    env = bdd1k_engine.environment(object_class, run_seed=run_seed)
    searcher = bdd1k_engine.make_searcher("exsample", env, run_seed=run_seed)
    assert searcher.sizes.size == 1000
    counter = _CountingGenerator(searcher._policy_rng)
    searcher._policy_rng = counter
    run = searcher.begin(result_limit=10)
    opened: set = set()
    picks = 0
    while not run.finished:
        before = counter.gammas
        step = run.step()
        assert counter.gammas - before <= len(opened), (picks, len(opened))
        opened.update(chunk for chunk, _ in step.picks)
        picks += len(step.picks)
    assert picks > 20
    assert counter.gammas < picks * len(opened)


# -- path identity on a repository over the grouping threshold -----------------


@pytest.fixture(scope="module")
def bdd1k_300():
    engine = QueryEngine(make_dataset("bdd1k", scale=0.3, seed=0), seed=0)
    assert engine.dataset.chunk_map.sizes().size > PER_CHUNK_DRAW_MAX_CHUNKS
    return engine


IDENTITY_QUERIES = [
    DistinctObjectQuery("bus", limit=10),
    DistinctObjectQuery("truck", limit=10),
    DistinctObjectQuery("person", limit=15),
]


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("run_seed", [0, 1, 2])
def test_checkpoint_restore_matches_solo_run(bdd1k_300, batch, run_seed):
    """A checkpoint at step k, restored from its blob, finishes identically."""
    for query in IDENTITY_QUERIES:
        solo = bdd1k_300.run(
            query, method="exsample", run_seed=run_seed, batch_size=batch
        ).trace
        cut = max(1, solo.num_samples // (2 * batch))
        session = bdd1k_300.session(
            query, method="exsample", run_seed=run_seed, batch_size=batch
        )
        for _ in range(cut):
            session.step()
        assert session.search_run.searcher._groups is not None
        restored = QuerySession.restore(session.checkpoint())
        for _ in restored.stream():
            pass
        assert restored.finished
        assert_traces_identical(solo, restored.trace())


@pytest.mark.parametrize("batch", [1, 4])
def test_fused_run_many_matches_solo_runs(bdd1k_300, batch):
    seeds = [0, 1, 2, 3, 4, 5]
    queries = [IDENTITY_QUERIES[k % len(IDENTITY_QUERIES)] for k in seeds]
    outcomes = bdd1k_300.run_many(
        queries, method="exsample", run_seeds=seeds, batch_size=batch
    )
    for query, seed, outcome in zip(queries, seeds, outcomes, strict=True):
        solo = bdd1k_300.run(
            query, method="exsample", run_seed=seed, batch_size=batch
        )
        assert_traces_identical(outcome.trace, solo.trace)
