"""Profile-pair similarity measures for the Entity Matcher.

SparkER delegates matching to "any existing tool" and demos Magellan's;
the substitute here computes the classic string-similarity features that
such tools use, with DataFrame joins (no per-pair UDF loops):

    jaccard   -- Jaccard of the profiles' full token sets
    cosine    -- cosine over TF-IDF token vectors
    lev_norm  -- normalized Levenshtein similarity of a designated
                 "name-like" attribute (Spark's built-in ``levenshtein``)

``add_similarities`` decorates a candidate-pair DataFrame with all three;
the two token measures come from one join of the pairs with the TF-IDF
token table.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def _token_similarities(pairs: DataFrame, tokens: DataFrame) -> DataFrame:
    """``(p1, p2, jaccard, cosine)``: Jaccard of the distinct token sets
    and cosine of the TF-IDF vectors, from one join of the pairs with a
    ``(pid, token, w)`` table and one aggregate of ``inter`` (shared
    tokens) and ``dot``.

    TF counts each token once per (profile, attribute) — the tokenizer's
    granularity; IDF = ln(N / df) over profiles. Profiles sharing no token
    get cosine 0.
    """
    tf = tokens.groupBy("pid", "token").agg(F.count(F.lit(1)).alias("tf"))
    n_profiles = tokens.select("pid").distinct().count()
    df = tf.groupBy("token").agg(F.count(F.lit(1)).alias("df"))
    vec = tf.join(df, "token").select(
        "pid", "token", (F.col("tf") * F.log(F.lit(float(n_profiles)) / F.col("df"))).alias("w")
    )
    stats = vec.groupBy("pid").agg(
        F.count(F.lit(1)).alias("n"), F.sqrt(F.sum(F.col("w") ** 2)).alias("norm")
    )
    v1 = vec.select(F.col("pid").alias("p1"), "token", F.col("w").alias("w1"))
    v2 = vec.select(F.col("pid").alias("p2"), "token", F.col("w").alias("w2"))
    shared = (
        pairs.join(v1, "p1")
        .join(v2, ["p2", "token"])
        .groupBy("p1", "p2")
        .agg(F.count(F.lit(1)).alias("inter"), F.sum(F.col("w1") * F.col("w2")).alias("dot"))
    )
    return (
        pairs.join(shared, ["p1", "p2"], "left")
        .fillna({"inter": 0, "dot": 0.0})
        .join(stats.toDF("p1", "n1", "norm1"), "p1")
        .join(stats.toDF("p2", "n2", "norm2"), "p2")
        .select(
            "p1",
            "p2",
            (F.col("inter") / (F.col("n1") + F.col("n2") - F.col("inter"))).alias("jaccard"),
            F.when(
                (F.col("norm1") > 0) & (F.col("norm2") > 0),
                F.col("dot") / (F.col("norm1") * F.col("norm2")),
            )
            .otherwise(F.lit(0.0))
            .alias("cosine"),
        )
    )


def jaccard(pairs: DataFrame, tokens: DataFrame) -> DataFrame:
    """``(p1, p2, jaccard)`` over the distinct token sets of each profile."""
    return _token_similarities(pairs, tokens).select("p1", "p2", "jaccard")


def cosine_tfidf(pairs: DataFrame, tokens: DataFrame) -> DataFrame:
    """``(p1, p2, cosine)`` over TF-IDF vectors (see :func:`_token_similarities`)."""
    return _token_similarities(pairs, tokens).select("p1", "p2", "cosine")


def name_values(profiles: DataFrame, name_attrs: list[str]) -> DataFrame:
    """One representative "name" string per profile: the first non-null
    value among ``name_attrs`` (source-qualified), lowercased."""
    order = {a: i for i, a in enumerate(name_attrs)}
    mapping = F.create_map(
        *[x for a in name_attrs for x in (F.lit(a), F.lit(order[a]))]
    )
    ranked = (
        profiles.where(F.col("attribute").isin(name_attrs))
        .withColumn("prio", mapping[F.col("attribute")])
    )
    return (
        ranked.groupBy("pid")
        .agg(F.min_by(F.lower("value"), "prio").alias("name"))
    )


def levenshtein_norm(pairs: DataFrame, profiles: DataFrame, name_attrs: list[str]) -> DataFrame:
    """``pairs`` plus ``lev_norm`` — 1 − editdistance/maxlen on the name
    strings; 0 when a side has no name value."""
    names = name_values(profiles, name_attrs)
    n1 = names.select(F.col("pid").alias("p1"), F.col("name").alias("name1"))
    n2 = names.select(F.col("pid").alias("p2"), F.col("name").alias("name2"))
    return (
        pairs.join(n1, "p1", "left")
        .join(n2, "p2", "left")
        .select(
            *pairs.columns,
            F.when(
                F.col("name1").isNotNull() & F.col("name2").isNotNull(),
                1.0
                - F.levenshtein("name1", "name2")
                / F.greatest(F.length("name1"), F.length("name2")),
            )
            .otherwise(F.lit(0.0))
            .alias("lev_norm"),
        )
    )


def add_similarities(
    pairs: DataFrame,
    tokens: DataFrame,
    profiles: DataFrame,
    *,
    name_attrs: list[str],
) -> DataFrame:
    """Candidate pairs decorated with all three features."""
    p = pairs.select("p1", "p2").distinct()
    return levenshtein_norm(_token_similarities(p, tokens), profiles, name_attrs)
