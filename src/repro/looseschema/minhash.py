"""MinHash signatures in Spark, LSH banding on the driver.

Used by loose-schema attribute partitioning: each attribute is represented
by the set of tokens occurring in its values; MinHash signatures estimate
Jaccard similarity between attributes, and LSH banding proposes candidate
attribute pairs without the quadratic all-pairs comparison.

The signatures are one Spark aggregate over the ``(item, token)`` rows.
The ``items × num_hashes`` signature matrix grows only with the number of
items (attributes), so it is collected once and banding, candidate pairs
and similarity estimates run in numpy on the driver.

Hash family: ``h_i(t) = (a_i * x + b_i) mod P`` over
``x = xxhash64(token) mod P``, with ``a_i, b_i`` drawn from a seeded
generator and ``P = 2^31 - 1`` (Mersenne prime). The modulus must be the
same size as the ``x`` domain so the affine map wraps around many times
and behaves like a random permutation — with a modulus much larger than
``a_i * x`` the map is monotone in ``x`` and every hash function elects
the same minimum token, collapsing the signature (we hit exactly that bug
with a 2^61-1 modulus). ``a_i * x < 2^62`` fits a signed 64-bit long. All
per-hash work is expressed by exploding a literal array of hash ids — no
UDFs on the hot path.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

_P = (1 << 31) - 1


def _coefficients(num_hashes: int, seed: int) -> tuple[list[int], list[int]]:
    g = np.random.default_rng(seed)
    a = g.integers(1, _P, num_hashes).tolist()
    b = g.integers(0, _P, num_hashes).tolist()
    return a, b


def signatures(
    item_tokens: DataFrame,
    *,
    item_col: str = "item",
    token_col: str = "token",
    num_hashes: int = 128,
    seed: int = 42,
) -> DataFrame:
    """MinHash signatures: one row per ``(item, hash_id, min_value)``.

    ``item_tokens`` must be distinct per (item, token).
    """
    a, b = _coefficients(num_hashes, seed)
    # xxhash64 is signed; fold into [0, P) before the affine map.
    x = (F.xxhash64(F.col(token_col)) % _P + _P) % _P
    hashed = item_tokens.select(
        F.col(item_col).alias("item"),
        x.alias("x"),
        F.posexplode(F.array([F.lit(v) for v in a])).alias("hash_id", "a"),
    ).withColumn("b", F.element_at(F.array([F.lit(v) for v in b]), F.col("hash_id") + 1))
    val = (F.col("a") * F.col("x") + F.col("b")) % _P
    return (
        hashed.select("item", "hash_id", val.alias("h"))
        .groupBy("item", "hash_id")
        .agg(F.min("h").alias("min_hash"))
    )


def signature_matrix(sigs: DataFrame) -> tuple[list[str], np.ndarray]:
    """Collect :func:`signatures` to the driver as ``(items, matrix)``:
    items sorted by name, ``matrix[i, h]`` item ``i``'s min-hash under hash
    function ``h`` (int64, ``items × num_hashes``)."""
    pdf = sigs.select("item", "hash_id", "min_hash").toPandas().sort_values(["item", "hash_id"])
    items = pdf["item"].unique().tolist()
    return items, pdf["min_hash"].to_numpy(np.int64).reshape(len(items), pdf["hash_id"].nunique())


def band_buckets(sig: np.ndarray, *, rows_per_band: int = 2) -> np.ndarray:
    """LSH banding: ``buckets[i, b]`` is item ``i``'s bucket in band ``b``,
    which holds hash ids ``b * rows_per_band`` up to the next band. Two
    items share a bucket exactly when their min-hashes agree on the band."""
    return np.column_stack([
        np.unique(sig[:, start:start + rows_per_band], axis=0, return_inverse=True)[1].ravel()
        for start in range(0, sig.shape[1], rows_per_band)
    ])


def candidate_pairs(buckets: np.ndarray) -> np.ndarray:
    """Distinct item-index pairs ``(i, j)``, ``i < j``, sharing a bucket in
    some band; shape ``(k, 2)``, sorted."""
    n, n_bands = buckets.shape
    # One key per (band, bucket): bucket ids are < n within each band.
    rows = pd.DataFrame({
        "key": (buckets + np.arange(n_bands) * n).ravel(),
        "item": np.repeat(np.arange(n), n_bands),
    })
    pairs = rows.merge(rows, on="key")[["item_x", "item_y"]].to_numpy(np.int64)
    return np.unique(pairs[pairs[:, 0] < pairs[:, 1]], axis=0)


def estimated_similarity(sig: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Estimated Jaccard of each item-index pair: the fraction of hash
    functions on which the two signatures agree."""
    return (sig[pairs[:, 0]] == sig[pairs[:, 1]]).mean(axis=1)
