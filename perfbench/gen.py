"""Seeded input generation for the three benchmark workloads.

Everything the program under test receives is produced here, before it
starts: documents (id, timestamp, text) and topic queries.  The same seed
always yields the same inputs.  Alongside the documents the generator
records what the checker needs to know about the corpus — each document's
label set and, where SimHash dedup is on, whether the document survives
dedup — so the served digests can be checked against the corpus rather
than against what the program says it saw.

The workload shapes are fixed here and documented in ``README.md``.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from repro.datagen.arrivals import bursty_times
from repro.datagen.tweets import TweetGenerator
from repro.experiments.common import make_day_instance
from repro.index.query import LabelMatcher
from repro.index.simhash import SimHashIndex
from repro.topics.lda_sim import SyntheticTopicModel
from repro.topics.profiles import make_label_set

LAM = 300.0
NUM_LABELS = 5
# fig13-style day: 5 labels at 0.7 % of Table 2's rate gives ~4.5k posts;
# the day is fixed and the seed draws an exact-size sample of its posts,
# so every seed costs about the same
DAY_SCALE = 0.007
DAY_SEED = 20140328

COLD = {"posts": 3200, "setups": 10, "tail": 80, "min_digests": 50}
FIREHOSE = {
    "streams": 5, "docs": 4000, "setup_docs": 750, "chunk": 125,
    "model_seed": 20140328, "tail": 90,
}
CLUSTER = {
    "posts": 1600, "setup_posts": 403, "rounds": 7, "clients": 2,
    "digests_per_client": 4, "nodes": 3, "min_setups": 3, "tail": 90,
}


def _day_documents(seed: int, count: int) -> Dict[str, Any]:
    """``count`` posts, drawn by ``seed``, of one bursty fig13 day, as
    label-keyword documents.

    Timestamps are whole seconds, as tweets carry them.  A document's text
    is one keyword per label (``kwq0 kwq3``), so matching recovers exactly
    the generated label set."""
    instance = make_day_instance(
        seed=DAY_SEED, num_labels=NUM_LABELS, lam=LAM, scale=DAY_SCALE,
    )
    posts = list(instance.posts)
    if len(posts) < count:
        raise SystemExit(f"the day has {len(posts)} posts, need {count}")
    picked = random.Random(seed).sample(posts, count)
    picked.sort(key=lambda post: (round(post.value), post.uid))
    docs, labels = [], []
    for doc_id, post in enumerate(picked):
        names = sorted(post.labels)
        docs.append([doc_id, float(round(post.value)),
                     " ".join(f"kw{name}" for name in names)])
        labels.append(names)
    queries = [[f"q{i}", [f"kwq{i}"]] for i in range(NUM_LABELS)]
    return {"queries": queries, "docs": docs, "labels": labels}


def cold_digest(seed: int) -> Dict[str, Any]:
    data = _day_documents(seed, COLD["posts"])
    data["params"] = dict(COLD, lam=LAM)
    return data


def cluster_merge(seed: int) -> Dict[str, Any]:
    data = _day_documents(seed, CLUSTER["posts"])
    data["params"] = dict(CLUSTER, lam=LAM)
    return data


def _profile(model: SyntheticTopicModel) -> List[Any]:
    """A 5-topic ``make_label_set`` profile from the most popular broad
    topic (the generator's Zipf rank 0), so the profile sees traffic."""
    rng = random.Random(FIREHOSE["model_seed"])
    hot = sorted(model.by_broad())[0]
    while True:
        profile = make_label_set(rng, model, NUM_LABELS)
        if model.broad_of[profile[0].label] == hot:
            return profile


def live_firehose(seed: int) -> Dict[str, Any]:
    """Independent bursty tweet streams over a fixed topic model.

    The model, the profile and each stream's bursty arrival curve are
    part of the workload's definition (drawn from a fixed seed), so every
    seed serves the same five topics on the same days; the seed draws the
    tweets.  Each stream is replayed into its own service; a run replays
    all of them, so the figures average over several streams'
    view-drift rebuilds."""
    model = SyntheticTopicModel.train(
        random.Random(FIREHOSE["model_seed"])
    )
    profile = _profile(model)
    matcher = LabelMatcher(profile)
    arrivals = random.Random(FIREHOSE["model_seed"])
    rng = random.Random(seed)
    streams = []
    for _ in range(FIREHOSE["streams"]):
        times, _ = bursty_times(
            arrivals, base_rate=0.12, start=0.0, end=86_400.0, n_bursts=8,
            burst_rate=0.25, burst_decay=86_400.0 / 50.0,
        )
        if len(times) < FIREHOSE["docs"]:
            raise SystemExit(f"an arrival curve has only {len(times)} tweets")
        stamps = [float(round(t)) for t in times[:FIREHOSE["docs"]]]
        documents = TweetGenerator(model, rng).generate(stamps)
        kept_ids, _ = SimHashIndex(max_distance=3).deduplicate(
            (document.doc_id, document.text) for document in documents
        )
        kept = set(kept_ids)
        streams.append({
            "docs": [[d.doc_id, d.timestamp, d.text] for d in documents],
            "labels": [sorted(matcher.match(d.text)) for d in documents],
            "kept": [d.doc_id in kept for d in documents],
        })
    labels = sorted(query.label for query in profile)
    keys = [labels] + [[label] for label in labels] + [labels[:3]]
    return {
        "queries": [[query.label, sorted(query.keywords)]
                    for query in profile],
        "streams": streams,
        "params": dict(FIREHOSE, lam=LAM, keys=keys),
    }


WORKLOADS = {
    "cold_digest": cold_digest,
    "live_firehose": live_firehose,
    "cluster_merge": cluster_merge,
}
