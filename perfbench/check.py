"""Independent output checks for served digests.

Nothing here uses ``repro.core.coverage`` or any other part of the
program's verifier.  The checker knows the corpus from the generator's
own records (each document's timestamp and label set, and whether it
survives dedup) and checks each served digest against it:

* the digest's instance holds exactly the corpus posts that carry a
  requested label, with the right values and label sets;
* every selected post is one of them;
* every (post, requested label) pair is lambda-covered by a selected
  post carrying that label;
* ``max_l OPT_l <= size <= ratio * cap + slack``, with ``ratio`` 1 and
  ``slack`` 0 for fresh solves, cache hits and merges, and the view
  path's declared drift bound (``rebuild_ratio``, ``rebuild_slack``)
  for view reads.

``OPT_l``, the optimum for one label alone, comes from the exact
one-dimensional interval greedy, which splits the label's posts into
``OPT_l`` blocks, each lambda-covered by one post.  A cover for all
labels covers each, so ``max_l OPT_l <= size`` (coverage already implies
it; it checks the checker).

The cap is GreedySC's guarantee charged against those blocks.  Greedy
set cover pays 1 per chosen post, spread over the pairs it newly covers;
the pairs of any subset ``B`` of one post's pairs are together charged at
most ``H(|B|)`` (when ``j`` of them are still uncovered, that post would
cover ``j`` new pairs, so the chosen one covers at least ``j`` and each
pays at most ``1/j``).  The blocks of all labels partition the pairs and
each lies within one post's pairs, so GreedySC's cover has at most
``cap = sum over blocks of H(|block|)`` posts.  With blocks of a few posts
that is 2-3 times ``sum_l OPT_l``, well below the number of eligible
posts.  ``H(|P||L|) * sum_l OPT_l``, the textbook form, would exceed it
and could never fail.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple


def interval_blocks(values: Sequence[float], lam: float) -> List[int]:
    """The sizes of the blocks of a minimum lambda-cover of ``values``
    (sorted) by points from ``values``: take the leftmost uncovered value,
    select the farthest value within lambda of it, skip everything it
    covers, repeat.  One block per selected point."""
    blocks = []
    i = 0
    n = len(values)
    while i < n:
        center = values[bisect_right(values, values[i] + lam) - 1]
        end = bisect_right(values, center + lam)
        blocks.append(end - i)
        i = end
    return blocks


def harmonic(k: int) -> float:
    return sum(1.0 / i for i in range(1, k + 1))


class Corpus:
    """What the checker knows about the documents fed so far."""

    def __init__(self, docs: Sequence[Sequence],
                 labels: Sequence[Sequence[str]],
                 kept: Optional[Sequence[bool]] = None):
        self.value: Dict[int, float] = {}
        self.labels: Dict[int, FrozenSet[str]] = {}
        self.order: List[int] = []
        for index, (doc_id, timestamp, _text) in enumerate(docs):
            if kept is not None and not kept[index]:
                continue
            if not labels[index]:
                continue
            self.value[doc_id] = float(timestamp)
            self.labels[doc_id] = frozenset(labels[index])
            self.order.append(doc_id)
        self._cache: Dict[Tuple, "_Expected"] = {}

    def expected(self, fed: int, labels: Tuple[str, ...],
                 lam: float) -> "_Expected":
        """The eligible posts among documents ``0 .. fed - 1`` (document
        ids are arrival positions)."""
        key = (fed, labels, lam)
        found = self._cache.get(key)
        if found is None:
            if len(self._cache) > 64:
                self._cache.clear()
            wanted = frozenset(labels)
            eligible: Dict[int, FrozenSet[str]] = {}
            for uid in self.order:
                if uid >= fed:
                    break
                inter = self.labels[uid] & wanted
                if inter:
                    eligible[uid] = inter
            found = _Expected(eligible, self.value, labels, lam)
            self._cache[key] = found
        return found


class _Expected:
    def __init__(self, eligible: Dict[int, FrozenSet[str]],
                 value: Dict[int, float], labels: Tuple[str, ...],
                 lam: float):
        self.eligible = eligible
        self.value = value
        self.lam = lam
        self.by_label: Dict[str, List[float]] = {
            label: [] for label in labels
        }
        for uid, names in eligible.items():
            for name in names:
                self.by_label[name].append(value[uid])
        for values in self.by_label.values():
            values.sort()
        blocks = [interval_blocks(v, lam) for v in self.by_label.values()]
        self.opt_max = max((len(b) for b in blocks), default=0)
        self.cap = sum(harmonic(size) for b in blocks for size in b)


def size_limit(expected: _Expected, ratio: float = 1.0,
               slack: float = 0.0) -> float:
    """The largest cover size accepted: ``ratio * cap + slack``."""
    return ratio * expected.cap + slack


def check_digest(expected: _Expected, instance_posts, cover_posts,
                 limit: float) -> Optional[str]:
    """``None`` when the digest is right, else what is wrong with it.

    ``instance_posts`` and ``cover_posts`` are the served result's
    ``instance.posts`` and ``solution.posts``; ``limit`` is the largest
    size accepted (:func:`size_limit`)."""
    eligible = expected.eligible
    if len(instance_posts) != len(eligible):
        return (f"instance has {len(instance_posts)} posts, the corpus "
                f"has {len(eligible)} eligible")
    for post in instance_posts:
        names = eligible.get(post.uid)
        if names is None:
            return f"instance post {post.uid} is not an eligible corpus post"
        if frozenset(post.labels) != names:
            return f"instance post {post.uid} has labels {sorted(post.labels)}"
        if float(post.value) != expected.value[post.uid]:
            return f"instance post {post.uid} has value {post.value}"
    centers: Dict[str, List[float]] = {name: [] for name in expected.by_label}
    for post in cover_posts:
        names = eligible.get(post.uid)
        if names is None:
            return f"selected post {post.uid} is not an eligible corpus post"
        for name in names:
            centers[name].append(expected.value[post.uid])
    lam = expected.lam
    for name, values in expected.by_label.items():
        chosen = sorted(centers[name])
        if values and not chosen:
            return f"label {name} has posts but no selected post"
        j = 0
        for v in values:
            # the last center <= v + lam is the only candidate that can
            # cover v: every earlier one lies further below it
            while j + 1 < len(chosen) and chosen[j + 1] <= v + lam:
                j += 1
            if abs(chosen[j] - v) > lam:
                return f"({v}, {name}) is not lambda-covered"
    size = len(cover_posts)
    if size < expected.opt_max:
        return (f"size {size} is below the single-label optimum "
                f"{expected.opt_max}")
    if size > limit:
        return f"size {size} is above the bound {limit:.1f}"
    return None
