"""Benchmark-owned inputs: subscription strings and document bytes.

Everything the router benchmark feeds to the program is generated here from
``--seed``; nothing is imported from ``repro.workloads`` or
``repro.xmlmodel.generator``/``serialize``, so an edit to the library's
generators cannot change what the benchmark measures.  The families and
parameters mirror the legacy ones (``low_overlap_workload``,
``extraction_workload``, ``attribute_subscription_workload``,
``tagged_sections_document``, ``item_feed_document``) so the numbers stay
comparable with ``BENCH_multi_query_sdi.json``.

The *mix* of subscription shapes is a function of the position alone (which
tail length, which qualifier, which of the attribute shapes: the legacy
generators' probabilities, made exact), so every seed gives the same
workload in kind and the seed draws only the tags, ids and values.  Every
subscription and every document is a pure function of
``(seed, family, position)``: the first 1000 subscriptions of a 10000-wide
set are the 1000-wide set, the workloads that share a pool see the same
bytes, and the churn workload can draw fresh queries of its family for as
long as a run lasts.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

DEFAULT_SEED = 7

#: How many seconds of timed passes ``docs_per_pass`` below is sized for on
#: the 2-core reference sandbox; ``--seconds`` scales the counts linearly.
REFERENCE_SECONDS = 12

#: No pass is shorter than this (``--quick`` aside): three passes of 70
#: pooled leave exactly ten samples beyond the 95th percentile.
MIN_DOCS_PER_PASS = 70

CHUNK_BYTES = 4096

TAGS = tuple(f"t{index:02d}" for index in range(48))
FIRST_NAMES = (
    "anna", "bob", "carla", "dan", "eve", "frank", "grete", "holger",
    "ines", "jan", "klara", "lars", "mona", "nils",
)
TOPICS = (
    "databases", "streams", "xml", "xpath", "xquery", "optimization",
    "semistructured data", "information retrieval", "query rewriting",
)
ITEM_CATEGORIES = ("books", "music", "tools", "games", "news")
ITEM_CURRENCIES = ("EUR", "USD", "GBP")
#: Subscriptions qualify on ids 0..49 while a message carries 12 items, so
#: most id-qualified subscriptions miss — as in the legacy attribute bench.
ITEM_ID_SPACE = 50


def _rng(seed: int, family: str, position: int) -> random.Random:
    # str seeds are hashed with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"router-bench/{seed}/{family}/{position}")


# ---------------------------------------------------------------------------
# Subscription families
# ---------------------------------------------------------------------------

def _low_overlap(rng: random.Random, position: int) -> str:
    """Roots cycle through the wide vocabulary: almost no shared prefixes.
    Half the tails have two steps, a quarter end in a qualifier."""
    lap = position // len(TAGS)
    parts = [f"/descendant::{TAGS[position % len(TAGS)]}"]
    for _ in range(1 + lap % 2):
        axis = rng.choice(("child", "descendant", "child"))
        parts.append(f"{axis}::{rng.choice(TAGS)}")
    if position % 4 == 0:
        parts[-1] += f"[child::{rng.choice(TAGS)}]"
    return "/".join(parts)


def _extraction(rng: random.Random, position: int) -> str:
    """70% leaf-ish subtrees, 30% whole enclosing sections (nested captures)."""
    root = TAGS[position % len(TAGS)]
    if position % 10 in (0, 3, 7):
        return f"/descendant::{root}"
    leaf = rng.choice(TAGS)
    axis = rng.choice(("child", "descendant"))
    return f"/descendant::{root}/{axis}::{leaf}"


def _attribute(rng: random.Random, position: int) -> str:
    """Attribute-qualified shapes; 15% carry a reverse step to rewrite."""
    shapes = (
        lambda: f'//item[@id="{rng.randrange(ITEM_ID_SPACE)}"]/price',
        lambda: f'//item[@category="{rng.choice(ITEM_CATEGORIES)}"]',
        lambda: f'//item[@category="{rng.choice(ITEM_CATEGORIES)}"]/title',
        lambda: f'//price[@currency="{rng.choice(ITEM_CURRENCIES)}"]',
        lambda: "//item[@featured]/price",
        lambda: f'//item[@id="{rng.randrange(ITEM_ID_SPACE)}"]/@category',
        lambda: "/descendant::item/attribute::id",
        lambda: '//item[@featured="yes" or @category="books"]',
        lambda: f'//price[@currency][. = "{rng.randint(1, 99)}"]',
    )
    reverse_shapes = (
        lambda: (f'//price[@currency="{rng.choice(ITEM_CURRENCIES)}"]'
                 "/parent::item"),
        lambda: (f'//item/@id/parent::item[@category="'
                 f'{rng.choice(ITEM_CATEGORIES)}"]'),
        lambda: "//price/@currency/ancestor::item/title",
    )
    pool = reverse_shapes if position % 20 in (6, 13, 19) else shapes
    return pool[position % len(pool)]()


_FAMILIES = {
    "low_overlap": _low_overlap,
    "extraction": _extraction,
    "attribute": _attribute,
}


def subscription(seed: int, family: str, position: int) -> str:
    """The ``position``-th subscription of ``family`` under ``seed``."""
    return _FAMILIES[family](_rng(seed, family, position), position)


# ---------------------------------------------------------------------------
# Document pools
# ---------------------------------------------------------------------------

def _tagged_sections(rng: random.Random, sections: int,
                     children_per_section: int, depth: int) -> str:
    def build(level: int) -> str:
        tag = rng.choice(TAGS)
        if level >= depth:
            return f"<{tag}>{rng.choice(FIRST_NAMES)}</{tag}>"
        inner = "".join(build(level + 1) for _ in
                        range(rng.randint(1, children_per_section)))
        return f"<{tag}>{inner}</{tag}>"

    parts = ["<db>"]
    for index in range(sections):
        tag = TAGS[index % len(TAGS)]
        inner = "".join(build(1) for _ in range(children_per_section))
        parts.append(f"<{tag}>{inner}</{tag}>")
    parts.append("</db>")
    return "".join(parts)


def _item_feed(rng: random.Random, items: int) -> str:
    parts = ["<feed>"]
    for index in range(items):
        attributes = (f'id="{index}" '
                      f'category="{ITEM_CATEGORIES[index % len(ITEM_CATEGORIES)]}"')
        if index % 3 == 0:
            attributes += ' featured="yes"'
        price = rng.randint(1, 99)
        currency = rng.choice(ITEM_CURRENCIES)
        parts.append(
            f"<item {attributes}><title>{rng.choice(TOPICS)}</title>"
            f'<price currency="{currency}">{price}</price></item>')
    parts.append("</feed>")
    return "".join(parts)


_POOLS = {
    # ~175 B, 36 events: the legacy ``document_broker`` message.
    "small": lambda rng: _tagged_sections(rng, sections=4,
                                          children_per_section=2, depth=1),
    # ~21.6 KB, ~4.2k events: the legacy ``automaton_sdi`` document.
    "large": lambda rng: _tagged_sections(rng, sections=160,
                                          children_per_section=3, depth=2),
    # ~1.2 KB, 100 events: the legacy ``attribute_sdi`` message.
    "items": lambda rng: _item_feed(rng, items=12),
}


def document(seed: int, pool: str, position: int) -> bytes:
    """The ``position``-th document of ``pool`` under ``seed``, as UTF-8."""
    return _POOLS[pool](_rng(seed, "doc-" + pool, position)).encode("utf-8")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    family: str
    subscriptions: int
    delivery: str           # "verdict" | "ids" | "substream"
    pool: str
    pool_size: int
    docs_per_pass: int      # at REFERENCE_SECONDS
    churn_pairs: int = 0    # subscribe+unsubscribe pairs between submits


WORKLOADS: Tuple[Workload, ...] = (
    Workload("feed_small_verdict",
             "tiny documents at N=1000: per-document fixed cost (reset, "
             "result rows, accounting) dominates; tokenizer and automaton idle",
             "low_overlap", 1000, "verdict", "small", 500, 2900),
    Workload("stream_large_ids",
             "large documents at N=1000: tokenizer and warm automaton step "
             "split the time; fixed cost under 10%",
             "low_overlap", 1000, "ids", "large", 10, 190),
    Workload("wide_10k_ids",
             "stream_large_ids with N=10000 and nothing else changed: the "
             "difference between the two is the N=10k cliff",
             "low_overlap", 10000, "ids", "large", 10, 70),
    Workload("extract_substream",
             "payload extraction with nested, overlapping captures: SubtreeTee "
             "and re-serialization dominate on the same bytes as stream_large_ids",
             "extraction", 1000, "substream", "large", 10, 70),
    Workload("gated_attr_ids",
             "attribute-qualified subscriptions: gate/expectation/condition "
             "machinery does all the work; the only set-up that runs the rewriter",
             "attribute", 300, "ids", "items", 40, 70),
    Workload("churn_large_verdict",
             "5 subscribe + 5 unsubscribe between submits: targeted DFA "
             "invalidation, sync, vacuum and session rebuilds beside reads",
             "low_overlap", 1000, "verdict", "large", 10, 100, churn_pairs=5),
)

BY_NAME: Dict[str, Workload] = {workload.name: workload
                                for workload in WORKLOADS}


def docs_per_pass(workload: Workload, seconds: float, quick: bool) -> int:
    """The fixed document count of one pass — the same on every commit."""
    count = round(workload.docs_per_pass * seconds / REFERENCE_SECONDS)
    if quick:
        return max(10, count // 10)
    return max(MIN_DOCS_PER_PASS, count)


@dataclass(frozen=True)
class Inputs:
    """What the program sees: keyed queries and pre-chunked document bytes."""

    workload: Workload
    seed: int
    #: Standing subscriptions; key ``n`` is position ``n`` of the family.
    queries: List[str]
    documents: List[bytes]
    #: ``documents`` split into ``CHUNK_BYTES`` pieces, as a feed delivers them.
    feed: List[List[bytes]]
    sha256: str

    def churn_query(self, position: int) -> str:
        """A fresh query of the same family (positions past the standing set)."""
        return subscription(self.seed, self.workload.family, position)


#: How many spare churn queries the input digest covers.
_DIGEST_SPARES = 100


def generate(workload: Workload, seed: int) -> Inputs:
    queries = [subscription(seed, workload.family, position)
               for position in range(workload.subscriptions)]
    documents = [document(seed, workload.pool, position)
                 for position in range(workload.pool_size)]
    digest = hashlib.sha256()
    digest.update(repr((workload.family, workload.subscriptions,
                        workload.delivery, workload.pool, workload.pool_size,
                        workload.churn_pairs, CHUNK_BYTES)).encode())
    spares = _DIGEST_SPARES if workload.churn_pairs else 0
    for query in queries + [subscription(seed, workload.family, position)
                            for position in range(len(queries), len(queries) + spares)]:
        digest.update(query.encode("utf-8") + b"\n")
    for data in documents:
        digest.update(len(data).to_bytes(8, "big") + data)
    feed = [[data[start:start + CHUNK_BYTES]
             for start in range(0, len(data), CHUNK_BYTES)]
            for data in documents]
    return Inputs(workload, seed, queries, documents, feed, digest.hexdigest())


#: Input digests at the default seed.  A mismatch means the benchmark's
#: inputs changed: numbers before and after are not comparable.
PINNED_SHA256: Dict[str, str] = {
    "feed_small_verdict":
        "f680cf8e622f67668fe27ef8813cebf21bda6f84cdaf227c22fede866bc5970a",
    "stream_large_ids":
        "71cb6847fa75623bcd21f02a8e70eee349f8ca6d4ad8b4d7fea51d18b7c41937",
    "wide_10k_ids":
        "6e68067c9ae9d4c7543bc84a98c11beeec6e162d9eadd9ff4fcda99fef70070e",
    "extract_substream":
        "c189ca7a1fd0173856e47717a1df571e14a58b02601123487bc1a4572bdf1b05",
    "gated_attr_ids":
        "12981135d2f92576530b58d7c89d04ac5c063cb086604f830e2e86cb2d83bf59",
    "churn_large_verdict":
        "9951290dc5e9901e38afc3b764b15e7b3e42961c01b1108216ecc2c4c96d35ac",
}
