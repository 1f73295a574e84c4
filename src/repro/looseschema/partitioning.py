"""Loose Schema Generator — Attribute Partitioning (Blast / SparkER §2.1).

Pipeline, as described in the paper:

1. LSH over attribute *values'* token sets groups attributes into
   overlapping similarity buckets (``repro.looseschema.minhash``).
2. Candidate attribute pairs get a similarity estimate; **for each
   attribute only the most similar partner is kept** (if it clears the
   threshold), yielding attribute pairs.
3. The transitive closure of those pairs partitions attributes into
   non-overlapping clusters.
4. Attributes in no cluster fall into the **blob** partition, cluster 0.

Only the MinHash signatures run in Spark: attributes are far fewer than
profiles, so the rest runs in numpy on the collected signature matrix (a
union-find computes the closure).

A ``manual`` override lets the demo's supervised mode (Figure 6c) replace
the learned partition with a user-drawn one.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.looseschema import minhash

BLOB_CLUSTER = 0
PARTITION_SCHEMA = "attribute string, cluster int"


def attribute_tokens(tokens: DataFrame) -> DataFrame:
    """Distinct ``(attribute, token)`` pairs — each attribute's token set."""
    return tokens.select("attribute", "token").distinct()


def best_partners(pairs: np.ndarray, sim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(node, partner)`` arrays: each node of the undirected ``pairs``
    with its most similar partner, ties going to the larger partner index."""
    node = np.concatenate([pairs[:, 0], pairs[:, 1]])
    partner = np.concatenate([pairs[:, 1], pairs[:, 0]])
    order = np.lexsort((partner, np.concatenate([sim, sim]), node))
    node, partner = node[order], partner[order]
    last = np.r_[node[1:] != node[:-1], True][:len(node)]
    return node[last], partner[last]


def cluster_ids(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Connected components of the edges ``src[k] — dst[k]`` over nodes
    ``0..n-1`` as dense ids 1..k, numbered in order of each component's
    smallest node; nodes on no edge get :data:`BLOB_CLUSTER`."""
    parent = list(range(n))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(src.tolist(), dst.tolist()):
        ra, rb = root(a), root(b)
        parent[max(ra, rb)] = min(ra, rb)  # the root stays the smallest node
    roots = np.array([root(x) for x in range(n)], dtype=np.int64)
    linked = np.zeros(n, dtype=bool)
    linked[src] = linked[dst] = True
    ids = np.searchsorted(np.unique(roots[linked]), roots) + 1
    return np.where(linked, ids, BLOB_CLUSTER)


def partition_attributes(
    tokens: DataFrame,
    *,
    threshold: float = 0.3,
    num_hashes: int = 128,
    rows_per_band: int = 2,
    seed: int = 42,
) -> DataFrame:
    """Learn the attribute partition; returns ``(attribute, cluster)``.

    Every attribute present in ``tokens`` appears in the output exactly
    once; cluster ids are 1..k for learned clusters (ordered by their
    smallest attribute name) and 0 for the blob. A ``threshold`` of 1.0
    degenerates to schema-agnostic blocking: no estimated similarity clears
    it, so everything lands in the blob.
    """
    sigs = minhash.signatures(
        attribute_tokens(tokens), item_col="attribute", token_col="token",
        num_hashes=num_hashes, seed=seed,
    )
    attrs, sig = minhash.signature_matrix(sigs)
    pairs = minhash.candidate_pairs(
        minhash.band_buckets(sig, rows_per_band=rows_per_band)
    )
    sim = minhash.estimated_similarity(sig, pairs)
    keep = sim >= threshold
    clusters = cluster_ids(len(attrs), *best_partners(pairs[keep], sim[keep]))
    return tokens.sparkSession.createDataFrame(
        list(zip(attrs, clusters.tolist())), PARTITION_SCHEMA
    )


def manual_partition(
    spark: SparkSession,
    attributes: DataFrame,
    clusters: dict[str, int],
) -> DataFrame:
    """Supervised mode: the user assigns attributes to clusters by hand.

    ``clusters`` maps source-qualified attribute names to cluster ids
    (use ids >= 1; unlisted attributes fall into the blob).
    """
    mapping = spark.createDataFrame(
        [(k, int(v)) for k, v in clusters.items()], PARTITION_SCHEMA
    )
    all_attrs = attributes.select("attribute").distinct()
    assigned = all_attrs.join(mapping, "attribute")
    return assigned.unionByName(
        all_attrs.join(mapping, "attribute", "left_anti")
        .withColumn("cluster", F.lit(BLOB_CLUSTER))
    )
