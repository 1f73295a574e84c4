"""Tests for the MinHash/LSH substrate."""
import itertools

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.looseschema import minhash


def _sets_df(spark, sets: dict[str, set[str]]):
    rows = [(k, t) for k, toks in sets.items() for t in toks]
    return spark.createDataFrame(rows, ["item", "token"])


def _exact_jaccard(sets: dict[str, set[str]]) -> dict[tuple[str, str], float]:
    return {
        (a, b): len(sets[a] & sets[b]) / len(sets[a] | sets[b])
        for a, b in itertools.combinations(sorted(sets), 2)
    }


@pytest.fixture(scope="module")
def word_sets():
    base = [f"tok{i}" for i in range(200)]
    return {
        "high_a": set(base[:100]),
        "high_b": set(base[20:120]),        # J(high_a, high_b) = 2/3
        "half": set(base[:50]) | {f"x{i}" for i in range(50)},  # J vs high_a = 1/3
        "disjoint": {f"y{i}" for i in range(80)},
        "identical": set(base[:100]),        # J vs high_a = 1
    }


@pytest.fixture(scope="module")
def sigs(spark, word_sets):
    return minhash.signatures(
        _sets_df(spark, word_sets), num_hashes=256
    ).localCheckpoint(eager=True)


class TestSignatures:
    def test_one_row_per_item_and_hash(self, sigs, word_sets):
        assert sigs.count() == len(word_sets) * 256

    def test_deterministic(self, spark, word_sets):
        df = _sets_df(spark, word_sets)
        s1 = {tuple(r) for r in minhash.signatures(df, num_hashes=32).collect()}
        s2 = {tuple(r) for r in minhash.signatures(df, num_hashes=32).collect()}
        assert s1 == s2

    def test_seed_changes_signature(self, spark, word_sets):
        df = _sets_df(spark, word_sets)
        s1 = {tuple(r) for r in minhash.signatures(df, num_hashes=32, seed=1).collect()}
        s2 = {tuple(r) for r in minhash.signatures(df, num_hashes=32, seed=2).collect()}
        assert s1 != s2

    def test_identical_sets_identical_signatures(self, sigs):
        a = {r["hash_id"]: r["min_hash"] for r in sigs.where("item = 'high_a'").collect()}
        b = {r["hash_id"]: r["min_hash"] for r in sigs.where("item = 'identical'").collect()}
        assert a == b

    def test_signature_values_in_range(self, sigs):
        lo, hi = sigs.agg(F.min("min_hash"), F.max("min_hash")).first()
        assert 0 <= lo <= hi < (1 << 31) - 1

    def test_signatures_vary_across_hash_ids(self, sigs):
        """Regression for the monotone-hash bug: an item's min-hash must
        not collapse to a single token's image for every hash function."""
        n = (
            sigs.where("item = 'high_a'")
            .select("min_hash").distinct().count()
        )
        assert n > 200  # 256 hash ids, near-all distinct values


@pytest.fixture(scope="module")
def matrix(sigs):
    """``(index of item name, signature matrix)`` collected to the driver."""
    items, sig = minhash.signature_matrix(sigs)
    return {item: i for i, item in enumerate(items)}, sig


def _named_pairs(matrix, pairs) -> set[tuple[str, str]]:
    names = sorted(matrix[0], key=matrix[0].get)
    return {(names[i], names[j]) for i, j in pairs.tolist()}


class TestSignatureMatrix:
    def test_shape_and_sorted_items(self, sigs, word_sets):
        items, sig = minhash.signature_matrix(sigs)
        assert items == sorted(word_sets)
        assert sig.shape == (len(word_sets), 256)

    def test_matches_signature_rows(self, sigs, matrix):
        index, sig = matrix
        for r in sigs.collect():
            assert sig[index[r["item"]], r["hash_id"]] == r["min_hash"]


class TestEstimation:
    def test_estimates_track_exact(self, matrix, word_sets):
        index, sig = matrix
        exact = _exact_jaccard(word_sets)
        pairs = np.array([(index[a], index[b]) for a, b in exact])
        est = minhash.estimated_similarity(sig, pairs)
        for (pair, j), e in zip(exact.items(), est):
            assert e == pytest.approx(j, abs=0.09), pair

    def test_identical_estimates_one(self, matrix):
        index, sig = matrix
        pairs = np.array([(index["high_a"], index["identical"])])
        assert minhash.estimated_similarity(sig, pairs).tolist() == [1.0]

    def test_disjoint_estimates_zero(self, matrix):
        index, sig = matrix
        pairs = np.array([(index["disjoint"], index["high_a"])])
        assert minhash.estimated_similarity(sig, pairs)[0] < 0.05


class TestBanding:
    def test_bucket_count(self, matrix, word_sets):
        buckets = minhash.band_buckets(matrix[1], rows_per_band=2)
        assert buckets.shape == (len(word_sets), 128)  # 256/2 bands

    def test_buckets_equal_iff_band_equal(self):
        sig = np.array([[1, 2, 3], [1, 2, 4], [1, 5, 3]])
        buckets = minhash.band_buckets(sig, rows_per_band=2)
        # Bands {0, 1} and {2}: the last band may be short.
        assert buckets.shape == (3, 2)
        assert buckets[0, 0] == buckets[1, 0] != buckets[2, 0]
        assert buckets[0, 1] == buckets[2, 1] != buckets[1, 1]

    def test_candidates_match_brute_force(self):
        g = np.random.default_rng(0)
        sig = g.integers(0, 3, (9, 12))
        brute = {
            (i, j)
            for i, j in itertools.combinations(range(len(sig)), 2)
            for s in range(0, sig.shape[1], 3)
            if (sig[i, s:s + 3] == sig[j, s:s + 3]).all()
        }
        got = minhash.candidate_pairs(minhash.band_buckets(sig, rows_per_band=3))
        assert brute and set(map(tuple, got.tolist())) == brute

    def test_similar_pairs_proposed(self, matrix):
        pairs = _named_pairs(
            matrix, minhash.candidate_pairs(minhash.band_buckets(matrix[1], rows_per_band=2))
        )
        assert ("high_a", "high_b") in pairs
        assert ("high_a", "identical") in pairs

    def test_disjoint_pairs_not_proposed(self, matrix):
        pairs = _named_pairs(
            matrix, minhash.candidate_pairs(minhash.band_buckets(matrix[1], rows_per_band=4))
        )
        assert all("disjoint" not in p for p in pairs)

    def test_pairs_are_ordered_and_distinct(self, matrix):
        cands = minhash.candidate_pairs(minhash.band_buckets(matrix[1]))
        assert len(cands) and (cands[:, 0] < cands[:, 1]).all()
        assert len(np.unique(cands, axis=0)) == len(cands)

    def test_no_items_no_pairs(self):
        empty = np.zeros((0, 8), dtype=np.int64)
        assert minhash.candidate_pairs(minhash.band_buckets(empty)).shape == (0, 2)


class TestCoefficients:
    def test_deterministic_in_seed(self):
        assert minhash._coefficients(16, 1) == minhash._coefficients(16, 1)
        assert minhash._coefficients(16, 1) != minhash._coefficients(16, 2)

    def test_a_nonzero(self):
        a, _ = minhash._coefficients(64, 0)
        assert all(v >= 1 for v in a)
