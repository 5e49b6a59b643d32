"""Tests for the serving layer: calibration cache, fingerprints, engine."""

import sqlite3

import numpy as np
import pytest

from repro.baselines.group_dp import GroupDPMechanism
from repro.core.laplace import Calibration
from repro.core.mqm_chain import MQMApprox, MQMExact
from repro.core.queries import RelativeFrequencyHistogram, ScalarQuery, StateFrequencyQuery
from repro.data.datasets import TimeSeriesDataset
from repro.distributions.chain_family import FiniteChainFamily, IntervalChainFamily
from repro.distributions.markov import MarkovChain
from repro.exceptions import BudgetExhaustedError, ValidationError
from repro.serving import (
    CalibrationCache,
    InMemoryLRUCache,
    PrivacyEngine,
    SQLiteCache,
    cache_key,
    data_signature,
    warm_engines,
)


@pytest.fixture
def chain():
    return MarkovChain(
        [0.6, 0.4], [[0.85, 0.15], [0.2, 0.8]]
    ).with_stationary_initial()


@pytest.fixture
def family(chain):
    return FiniteChainFamily([chain])


@pytest.fixture
def data(chain):
    return chain.sample(200, rng=0)


@pytest.fixture
def query():
    return StateFrequencyQuery(1, 200)


class TestFingerprints:
    def test_same_family_same_key(self, family, data, query):
        a = MQMExact(family, 1.0, max_window=20)
        b = MQMExact(family, 1.0, max_window=20)
        assert cache_key(a, query, data) == cache_key(b, query, data)

    def test_equal_content_different_objects_same_key(self, chain, data, query):
        """Fingerprints are content hashes: rebuilding a numerically
        identical family from scratch yields the same key."""
        clone = MarkovChain(chain.initial.copy(), chain.transition.copy())
        a = MQMExact(FiniteChainFamily([chain]), 1.0, max_window=20)
        b = MQMExact(FiniteChainFamily([clone]), 1.0, max_window=20)
        assert cache_key(a, query, data) == cache_key(b, query, data)

    def test_family_change_invalidates(self, chain, data, query):
        other = MarkovChain([0.5, 0.5], [[0.7, 0.3], [0.3, 0.7]])
        a = MQMExact(FiniteChainFamily([chain]), 1.0, max_window=20)
        b = MQMExact(FiniteChainFamily([other]), 1.0, max_window=20)
        assert cache_key(a, query, data) != cache_key(b, query, data)

    def test_epsilon_change_invalidates(self, family, data, query):
        a = MQMExact(family, 1.0, max_window=20)
        b = MQMExact(family, 2.0, max_window=20)
        assert cache_key(a, query, data) != cache_key(b, query, data)

    def test_window_change_invalidates(self, family, data, query):
        a = MQMExact(family, 1.0, max_window=20)
        b = MQMExact(family, 1.0, max_window=40)
        assert cache_key(a, query, data) != cache_key(b, query, data)

    def test_query_change_invalidates(self, family, data):
        mech = MQMExact(family, 1.0, max_window=20)
        assert cache_key(mech, StateFrequencyQuery(1, 200), data) != cache_key(
            mech, StateFrequencyQuery(0, 200), data
        )

    def test_data_shape_change_invalidates(self, family, chain, query):
        mech = MQMExact(family, 1.0, max_window=20)
        assert cache_key(mech, query, chain.sample(200, rng=0)) != cache_key(
            mech, query, chain.sample(300, rng=0)
        )

    def test_data_signature_reads_segments(self):
        dataset = TimeSeriesDataset([np.zeros(5, dtype=int), np.zeros(3, dtype=int)], 2)
        assert data_signature(dataset) == ("segments", (3, 5))
        assert data_signature(np.zeros(8)) == ("array", 8)

    def test_interval_family_closed_form_fingerprint(self):
        a = IntervalChainFamily(0.2)
        b = IntervalChainFamily(0.2)
        c = IntervalChainFamily(0.3)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_mqm_approx_fingerprint_is_mixing_parameters(self, family):
        a = MQMApprox(family, 1.0)
        b = MQMApprox(family, 1.0)
        assert a.calibration_fingerprint() == b.calibration_fingerprint()

    def test_lambda_queries_never_alias(self, family, data):
        """Two different lambdas must not share a cache entry."""
        mech = GroupDPMechanism(1.0)
        q1 = ScalarQuery(lambda x: float(x.sum()), 1.0)
        q2 = ScalarQuery(lambda x: float(x.mean()), 1.0)
        assert cache_key(mech, q1, data) != cache_key(mech, q2, data)

    def test_anonymous_tokens_survive_gc(self):
        """A collected lambda's signature must never be reissued to a new
        lambda (id() values recycle after GC; the counter tokens do not)."""
        import gc

        q1 = ScalarQuery(lambda x: 0.0, 1.0)
        sig1 = q1.signature()
        assert sig1 == q1.signature()  # stable for the same object
        del q1
        gc.collect()
        q2 = ScalarQuery(lambda x: 1.0, 1.0)
        assert q2.signature() != sig1

    def test_base_mechanism_fingerprints_by_instance(self, data, query):
        """Mechanisms without a content fingerprint never alias each other."""
        a = GroupDPMechanism(1.0)

        class Opaque(GroupDPMechanism):
            def calibration_fingerprint(self):
                return super(GroupDPMechanism, self).calibration_fingerprint()

        b = Opaque(1.0)
        c = Opaque(1.0)
        assert cache_key(b, query, data) != cache_key(c, query, data)
        assert cache_key(a, query, data) == cache_key(GroupDPMechanism(1.0), query, data)

    def test_instance_tokens_survive_gc(self, data, query):
        """A dead mechanism's cache key must never be reissued to a new
        instance (id() recycles after GC; the instance tokens do not)."""
        import gc

        class Opaque(GroupDPMechanism):
            def __init__(self, epsilon, sens):
                super().__init__(epsilon)
                self.sens = sens

            def noise_scale(self, query, data):
                return self.sens

            def calibration_fingerprint(self):
                return super(GroupDPMechanism, self).calibration_fingerprint()

        cache = CalibrationCache()
        first = Opaque(1.0, sens=5.0)
        cache.get_or_compute(first, query, data)
        del first
        gc.collect()
        second = Opaque(1.0, sens=100.0)
        calibration, hit = cache.get_or_compute(second, query, data)
        assert not hit
        assert calibration.scale == 100.0

    def test_content_fingerprints_memoized(self, family, data, query):
        """Repeated cache lookups must not re-hash/re-enumerate content."""
        from repro.core.framework import entrywise_instantiation
        from repro.core.models import MarkovChainModel

        assert family.fingerprint() is family.fingerprint()
        chain = MarkovChain([0.6, 0.4], [[0.85, 0.15], [0.2, 0.8]])
        assert chain.fingerprint() is chain.fingerprint()
        inst = entrywise_instantiation(3, 2, [MarkovChainModel(chain, 3)])
        assert inst.fingerprint() is inst.fingerprint()

    def test_bayesnet_fingerprint_invalidated_on_growth(self):
        from repro.distributions.bayesnet import DiscreteBayesianNetwork

        net = DiscreteBayesianNetwork()
        net.add_node("X1", 2, cpd=[0.7, 0.3])
        before = net.fingerprint()
        net.add_node("X2", 2, parents=["X1"], cpd=[[0.9, 0.1], [0.2, 0.8]])
        assert net.fingerprint() != before


class TestCalibrationCache:
    def test_miss_then_hit(self, family, data, query):
        cache = CalibrationCache()
        mech = MQMExact(family, 1.0, max_window=20)
        first, hit1 = cache.get_or_compute(mech, query, data)
        second, hit2 = cache.get_or_compute(mech, query, data)
        assert (hit1, hit2) == (False, True)
        assert first.scale == second.scale
        assert cache.hits == 1 and cache.misses == 1
        assert 0.0 < cache.hit_rate < 1.0

    def test_get_without_compute(self, family, data, query):
        cache = CalibrationCache()
        mech = MQMExact(family, 1.0, max_window=20)
        assert cache.get(mech, query, data) is None
        cache.get_or_compute(mech, query, data)
        cached = cache.get(mech, query, data)
        assert isinstance(cached, Calibration)

    def test_lru_eviction(self):
        backend = InMemoryLRUCache(max_entries=2)
        backend.put("a", {"v": 1})
        backend.put("b", {"v": 2})
        backend.get("a")  # refresh a; b becomes LRU
        backend.put("c", {"v": 3})
        assert backend.get("a") == {"v": 1}
        assert backend.get("b") is None
        assert backend.get("c") == {"v": 3}
        assert len(backend) == 2

    def test_lru_validates_capacity(self):
        with pytest.raises(ValidationError):
            InMemoryLRUCache(max_entries=0)

    def test_sqlite_backend_round_trip(self, tmp_path, family, data, query):
        path = tmp_path / "cache.sqlite"
        mech = MQMExact(family, 1.0, max_window=20)
        first = CalibrationCache(SQLiteCache(path))
        calibration, hit = first.get_or_compute(mech, query, data)
        assert not hit

        fresh_mech = MQMExact(family, 1.0, max_window=20)
        second = CalibrationCache(SQLiteCache(path))
        restored, hit = second.get_or_compute(fresh_mech, query, data)
        assert hit
        assert restored.scale == calibration.scale
        assert restored.mechanism == "MQMExact"

    def test_sqlite_backend_warm_starts_mechanism(self, tmp_path, family, data, query):
        """A disk hit restores the mechanism's per-length sigma table, so
        even direct sigma_max calls skip the quilt search."""
        path = tmp_path / "cache.sqlite"
        mech = MQMExact(family, 1.0, max_window=20)
        CalibrationCache(SQLiteCache(path)).get_or_compute(mech, query, data)

        fresh = MQMExact(family, 1.0, max_window=20)
        assert fresh._sigma_cache == {}
        CalibrationCache(SQLiteCache(path)).get_or_compute(fresh, query, data)
        assert fresh._sigma_cache == mech._sigma_cache

    def test_sqlite_backend_refuses_a_non_database_file(self, tmp_path):
        """A file that is not a SQLite database is refused, not overwritten."""
        path = tmp_path / "cache.sqlite"
        path.write_text("not a database at all {{{")
        with pytest.raises(sqlite3.DatabaseError):
            SQLiteCache(path)
        assert path.read_text() == "not a database at all {{{"

    def test_clear(self, tmp_path):
        backend = SQLiteCache(tmp_path / "cache.sqlite")
        backend.put("k", {"v": 1})
        backend.clear()
        assert len(backend) == 0

    def test_sqlite_backend_shares_entries_between_writers(self, tmp_path):
        """Two backends over one file must accumulate each other's entries
        rather than clobbering (last-writer-wins would lose calibrations)."""
        path = tmp_path / "cache.sqlite"
        writer_a = SQLiteCache(path)
        writer_b = SQLiteCache(path)  # opened before A writes anything
        writer_a.put("a", {"v": 1})
        writer_b.put("b", {"v": 2})

        fresh = SQLiteCache(path)
        assert fresh.get("a") == {"v": 1}
        assert fresh.get("b") == {"v": 2}


class TestPrivacyEngine:
    def test_release_matches_mechanism(self, family, data, query):
        mech = MQMExact(family, 1.0, max_window=20)
        engine = PrivacyEngine(mech)
        release = engine.release(data, query, rng=3)
        direct = MQMExact(family, 1.0, max_window=20).release(data, query, rng=3)
        assert release.value == direct.value
        assert release.noise_scale == direct.noise_scale

    def test_batched_equals_sequential(self, family, data, query):
        """One vectorized draw is bit-identical to sequential releases from
        the same generator state."""
        mech = MQMExact(family, 1.0, max_window=20)
        engine = PrivacyEngine(mech)
        batch = engine.release_batch([(data, query)] * 8, rng=np.random.default_rng(11))

        reference = MQMExact(family, 1.0, max_window=20)
        gen = np.random.default_rng(11)
        sequential = [reference.release(data, query, gen) for _ in range(8)]
        assert [r.value for r in batch] == [r.value for r in sequential]

    def test_batched_vector_query_equals_sequential(self, family, chain):
        dataset = TimeSeriesDataset.from_sequence(chain.sample(120, rng=4), 2)
        hist = RelativeFrequencyHistogram(2, 120)
        engine = PrivacyEngine(MQMExact(family, 1.0, max_window=20))
        batch = engine.release_batch([(dataset, hist)] * 5, rng=np.random.default_rng(5))
        reference = MQMExact(family, 1.0, max_window=20)
        gen = np.random.default_rng(5)
        sequential = [reference.release(dataset, hist, gen) for _ in range(5)]
        for b, s in zip(batch, sequential):
            np.testing.assert_array_equal(b.value, s.value)

    def test_zero_scale_draws_no_noise(self, data):
        """Zero-scale coordinates consume no randomness, matching the
        sequential no-noise baseline behavior."""

        class NoNoise(GroupDPMechanism):
            def noise_scale(self, query, data):
                return 0.0

        engine = PrivacyEngine(NoNoise(1.0))
        query = StateFrequencyQuery(1, 200)
        releases = engine.release_batch([(data, query)] * 3, rng=0)
        for release in releases:
            assert release.value == release.true_value

    def test_calibration_cached_across_releases(self, family, data, query):
        engine = PrivacyEngine(MQMExact(family, 1.0, max_window=20))
        engine.release_repeated(data, query, 10)  # one lookup for the batch
        engine.release(data, query)
        assert engine.cache.misses == 1
        assert engine.cache.hits == 1
        assert engine.n_releases == 11

    def test_budget_enforced_atomically(self, family, data, query):
        engine = PrivacyEngine(
            MQMExact(family, 1.0, max_window=20), epsilon_budget=5.0
        )
        engine.release_repeated(data, query, 3)
        with pytest.raises(BudgetExhaustedError):
            engine.release_batch([(data, query)] * 3)
        # The refused batch recorded nothing; two more releases still fit.
        assert engine.spent_epsilon() == pytest.approx(3.0)
        engine.release_repeated(data, query, 2)
        assert engine.remaining_budget() == pytest.approx(0.0)
        with pytest.raises(BudgetExhaustedError):
            engine.release(data, query)

    def test_budget_exhaustion_is_typed(self, family, data, query):
        engine = PrivacyEngine(MQMExact(family, 1.0, max_window=20), epsilon_budget=0.5)
        with pytest.raises(BudgetExhaustedError):
            engine.release(data, query)

    def test_refused_batch_carries_partial_progress_payload(self, family, data, query):
        """A mid-deployment refusal reports exactly where the ledger stands:
        spent, remaining, what was asked, and that the atomic batch
        completed nothing."""
        engine = PrivacyEngine(
            MQMExact(family, 1.0, max_window=20), epsilon_budget=5.0
        )
        engine.release_repeated(data, query, 3)
        with pytest.raises(BudgetExhaustedError) as excinfo:
            engine.release_batch([(data, query)] * 4)
        error = excinfo.value
        assert error.budget == 5.0
        assert error.spent == pytest.approx(3.0)
        assert error.remaining == pytest.approx(2.0)
        assert error.requested == 4
        assert error.n_completed == 0
        assert error.ledger()["spent"] == error.spent
        # The streamed counterpart (n_completed = yields so far) is audited
        # in tests/test_streaming_properties.py.

    def test_stream_is_reachable_from_the_engine(self, family, data, query):
        """The streaming entry point: engine.stream() sessions share the
        engine's cache, budget, and counter (deep coverage lives in the
        test_streaming_* suites)."""
        engine = PrivacyEngine(
            MQMExact(family, 1.0, max_window=20), epsilon_budget=10.0
        )
        with engine.stream(data, query, rng=1, max_releases=4) as session:
            releases = list(session)
        assert len(releases) == 4
        assert engine.n_releases == 4
        assert engine.spent_epsilon() == pytest.approx(4.0)
        assert engine.cache.misses == 1

    def test_unlimited_budget(self, family, data, query):
        engine = PrivacyEngine(MQMExact(family, 1.0, max_window=20))
        engine.release_repeated(data, query, 50)
        assert engine.remaining_budget() is None
        assert engine.spent_epsilon() == pytest.approx(50.0)

    def test_empty_batch(self, family):
        engine = PrivacyEngine(MQMExact(family, 1.0, max_window=20))
        assert engine.release_batch([]) == []
        assert engine.n_releases == 0

    def test_release_repeated_validates(self, family, data, query):
        engine = PrivacyEngine(MQMExact(family, 1.0, max_window=20))
        with pytest.raises(ValidationError):
            engine.release_repeated(data, query, 0)

    def test_stats(self, family, data, query):
        engine = PrivacyEngine(
            MQMExact(family, 1.0, max_window=20), epsilon_budget=100.0
        )
        engine.release_repeated(data, query, 4)
        stats = engine.stats()
        assert stats["mechanism"] == "MQMExact"
        assert stats["n_releases"] == 4
        assert stats["cache_misses"] == 1
        assert stats["spent_epsilon"] == pytest.approx(4.0)
        assert stats["remaining_budget"] == pytest.approx(96.0)

    def test_shared_cache_across_engines(self, family, data, query):
        """Two engine replicas sharing one cache pay one calibration."""
        cache = CalibrationCache()
        first = PrivacyEngine(MQMExact(family, 1.0, max_window=20), cache=cache)
        second = PrivacyEngine(MQMExact(family, 1.0, max_window=20), cache=cache)
        first.release(data, query)
        second.release(data, query)
        assert cache.misses == 1
        assert cache.hits == 1

    def test_warm_engines_precalibrates(self, family, data, query):
        engine = PrivacyEngine(MQMExact(family, 1.0, max_window=20))
        warm_engines([engine], [(data, query)])
        assert engine.cache.misses == 1
        engine.release(data, query)
        assert engine.cache.misses == 1  # the release was a hit

    def test_works_with_mqm_approx(self, family, data, query):
        engine = PrivacyEngine(MQMApprox(family, 1.0), epsilon_budget=10.0)
        releases = engine.release_repeated(data, query, 5)
        assert len(releases) == 5
        assert all(r.mechanism == "MQMApprox" for r in releases)

    def test_mixed_query_batch(self, family, chain):
        dataset = TimeSeriesDataset.from_sequence(chain.sample(120, rng=4), 2)
        scalar = StateFrequencyQuery(1, 120)
        hist = RelativeFrequencyHistogram(2, 120)
        engine = PrivacyEngine(MQMExact(family, 1.0, max_window=20))
        releases = engine.release_batch(
            [(dataset, scalar), (dataset, hist), (dataset, scalar)], rng=0
        )
        assert isinstance(releases[0].value, float)
        assert np.asarray(releases[1].value).shape == (2,)
        assert engine.cache.misses == 2  # one per distinct query signature


class TestWassersteinThroughEngine:
    def test_wasserstein_calibration_cached(self):
        from repro.core.framework import entrywise_instantiation
        from repro.core.models import MarkovChainModel
        from repro.core.wasserstein import WassersteinMechanism

        chain = MarkovChain([0.6, 0.4], [[0.85, 0.15], [0.2, 0.8]])
        inst = entrywise_instantiation(4, 2, [MarkovChainModel(chain, 4)])
        query = StateFrequencyQuery(1, 4)
        data = np.zeros(4, dtype=int)

        engine = PrivacyEngine(WassersteinMechanism(inst, 1.0))
        engine.release_repeated(data, query, 3)  # one lookup for the batch
        assert engine.cache.misses == 1
        assert engine.cache.hits == 0

        # Equal-content instantiations share keys across engine replicas.
        replica = PrivacyEngine(WassersteinMechanism(inst, 1.0), cache=engine.cache)
        replica.release(data, query)
        assert engine.cache.misses == 1
        assert engine.cache.hits == 1

    def test_exported_state_excludes_lambda_bounds(self):
        """Serialized W bounds must skip process-local (lambda) signatures:
        their tokens mean nothing — or worse, something else — in another
        process."""
        from repro.core.framework import entrywise_instantiation
        from repro.core.models import MarkovChainModel
        from repro.core.wasserstein import WassersteinMechanism

        chain = MarkovChain([0.6, 0.4], [[0.85, 0.15], [0.2, 0.8]])
        inst = entrywise_instantiation(3, 2, [MarkovChainModel(chain, 3)])
        mech = WassersteinMechanism(inst, 1.0)
        named = StateFrequencyQuery(1, 3)
        anonymous = ScalarQuery(lambda x: float(x.mean()), 1.0)
        mech.wasserstein_distance_bound(named)
        mech.wasserstein_distance_bound(anonymous)

        state = mech.export_calibration_state()
        key_reprs = [key for key, _ in state["bounds"]]
        assert any("StateFrequencyQuery" in key for key in key_reprs)
        assert not any("'id'" in key for key in key_reprs)
