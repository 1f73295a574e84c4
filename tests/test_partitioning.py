"""Tests for loose-schema attribute partitioning."""
import uuid

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.looseschema.partitioning import (
    BLOB_CLUSTER,
    attribute_tokens,
    best_partners,
    cluster_ids,
    manual_partition,
    partition_attributes,
)


@pytest.fixture(scope="module")
def attr_tokens(spark):
    """Four attributes: two near-identical text pairs + one loner."""
    def toks(prefix, n, start=0):
        return {f"{prefix}{i}" for i in range(start, start + n)}

    sets = {
        "1.name": toks("w", 100),
        "2.title": toks("w", 100, start=10),   # J = 9/11 with 1.name
        "1.price": toks("p", 80),
        "2.cost": toks("p", 80, start=8),      # J = 9/11 with 1.price
        "2.blurb": toks("z", 60),              # similar to nothing
    }
    rows = [(a, t) for a, s in sets.items() for t in s]
    return spark.createDataFrame(rows, "attribute string, token string")


class TestLearnedPartition:
    @pytest.fixture(scope="class")
    def partition(self, attr_tokens):
        return partition_attributes(attr_tokens, threshold=0.5).localCheckpoint(
            eager=True
        )

    def test_every_attribute_assigned_once(self, partition, attr_tokens):
        attrs = attribute_tokens(attr_tokens).select("attribute").distinct().count()
        assert partition.count() == attrs
        assert partition.select("attribute").distinct().count() == attrs

    def test_similar_attributes_clustered(self, partition):
        c = {r["attribute"]: r["cluster"] for r in partition.collect()}
        assert c["1.name"] == c["2.title"] != BLOB_CLUSTER
        assert c["1.price"] == c["2.cost"] != BLOB_CLUSTER

    def test_clusters_are_distinct(self, partition):
        c = {r["attribute"]: r["cluster"] for r in partition.collect()}
        assert c["1.name"] != c["1.price"]

    def test_loner_in_blob(self, partition):
        c = {r["attribute"]: r["cluster"] for r in partition.collect()}
        assert c["2.blurb"] == BLOB_CLUSTER

    def test_cluster_ids_dense_from_one(self, partition):
        ids = sorted(
            r["cluster"]
            for r in partition.select("cluster").distinct().collect()
            if r["cluster"] != BLOB_CLUSTER
        )
        assert ids == list(range(1, len(ids) + 1))

    def test_threshold_one_degenerates_to_blob(self, attr_tokens):
        p = partition_attributes(attr_tokens, threshold=1.0)
        assert {r["cluster"] for r in p.collect()} == {BLOB_CLUSTER}

    def test_tiny_threshold_merges_more(self, attr_tokens):
        p = partition_attributes(attr_tokens, threshold=0.01)
        non_blob = {r["attribute"] for r in p.collect() if r["cluster"] != BLOB_CLUSTER}
        assert {"1.name", "2.title", "1.price", "2.cost"} <= non_blob

    def test_deterministic(self, attr_tokens):
        p1 = sorted(map(tuple, partition_attributes(attr_tokens, threshold=0.5).collect()))
        p2 = sorted(map(tuple, partition_attributes(attr_tokens, threshold=0.5).collect()))
        assert p1 == p2


class TestOnDataset:
    def test_demo_clusters_learned(self, blocker_out):
        """The demo's 6(b) structure on the synthetic Abt-Buy: one text
        cluster {A.name, B.title, B.descr}, one price cluster
        {A.price, B.cost}; description & manufacturer in the blob."""
        c = {r["attribute"]: r["cluster"] for r in blocker_out["attr_clusters"].collect()}
        assert c["1.name"] == c["2.title"] == c["2.descr"] != BLOB_CLUSTER
        assert c["1.price"] == c["2.cost"] != BLOB_CLUSTER
        assert c["1.price"] != c["1.name"]
        assert c["2.manufacturer"] == BLOB_CLUSTER

    def test_transitive_closure_applied(self, blocker_out):
        """B.descr joins the text cluster only through A.name (its token
        set is dissimilar from B.title's) — evidence that the closure over
        best-partner pairs ran."""
        c = {r["attribute"]: r["cluster"] for r in blocker_out["attr_clusters"].collect()}
        assert c["2.descr"] == c["2.title"]


class TestDriverSteps:
    def test_best_partner_ties_go_to_larger_partner(self):
        node, partner = best_partners(np.array([[0, 1], [0, 2]]), np.array([0.5, 0.5]))
        assert dict(zip(node.tolist(), partner.tolist())) == {0: 2, 1: 0, 2: 0}

    def test_best_partner_prefers_higher_similarity(self):
        node, partner = best_partners(np.array([[0, 1], [0, 2]]), np.array([0.9, 0.5]))
        assert dict(zip(node.tolist(), partner.tolist())) == {0: 1, 1: 0, 2: 0}

    def test_cluster_ids_dense_in_order_of_smallest_member(self):
        ids = cluster_ids(7, np.array([5, 1, 6]), np.array([4, 3, 5]))
        assert ids.tolist() == [BLOB_CLUSTER, 1, BLOB_CLUSTER, 1, 2, 2, 2]


# Partition of the test dataset at each threshold, as produced by the
# Spark LSH joins + connected-components implementation this one replaced.
PINNED = {
    0.1: {"1.description": 1, "1.name": 1, "1.price": 2, "2.cost": 2,
          "2.descr": 1, "2.manufacturer": 1, "2.title": 1},
    0.3: {"1.description": 1, "1.name": 1, "1.price": 2, "2.cost": 2,
          "2.descr": 1, "2.manufacturer": 0, "2.title": 1},
    0.5: {"1.description": 0, "1.name": 1, "1.price": 2, "2.cost": 2,
          "2.descr": 0, "2.manufacturer": 0, "2.title": 1},
    1.0: {"1.description": 0, "1.name": 0, "1.price": 0, "2.cost": 0,
          "2.descr": 0, "2.manufacturer": 0, "2.title": 0},
}


@pytest.mark.parametrize("threshold", sorted(PINNED))
def test_partition_pinned_on_dataset(tokens, threshold):
    p = partition_attributes(tokens, threshold=threshold)
    assert p.schema.simpleString() == "struct<attribute:string,cluster:int>"
    assert {r["attribute"]: r["cluster"] for r in p.collect()} == PINNED[threshold]


def test_partition_runs_few_spark_jobs(spark, tokens):
    """Only the MinHash aggregate runs in Spark; the rest is driver-side."""
    sc = spark.sparkContext
    group = f"partition-{uuid.uuid4().hex}"
    sc.setJobGroup(group, "partition_attributes job count")
    try:
        partition_attributes(tokens).collect()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert 1 <= len(sc.statusTracker().getJobIdsForGroup(group)) <= 4


class TestManualPartition:
    def test_assignment_and_blob_default(self, spark, toy_tokens):
        p = manual_partition(
            spark, toy_tokens.select("attribute"), {"1.name": 1, "2.title": 1}
        )
        c = {r["attribute"]: r["cluster"] for r in p.collect()}
        assert c["1.name"] == c["2.title"] == 1
        assert c["1.abstract"] == BLOB_CLUSTER
        assert c["2.year"] == BLOB_CLUSTER

    def test_every_attribute_covered(self, spark, toy_tokens):
        p = manual_partition(spark, toy_tokens.select("attribute"), {"1.name": 5})
        n_attrs = toy_tokens.select("attribute").distinct().count()
        assert p.count() == n_attrs

    def test_empty_mapping_puts_everything_in_blob(self, spark, toy_tokens):
        p = manual_partition(spark, toy_tokens.select("attribute"), {})
        assert p.schema.simpleString() == "struct<attribute:string,cluster:int>"
        n_attrs = toy_tokens.select("attribute").distinct().count()
        assert p.count() == n_attrs
        assert {r["cluster"] for r in p.collect()} == {BLOB_CLUSTER}

    def test_unknown_attribute_in_map_is_ignored(self, spark, toy_tokens):
        p = manual_partition(
            spark, toy_tokens.select("attribute"), {"no.such": 9, "1.name": 1}
        )
        assert p.where(F.col("attribute") == "no.such").count() == 0
