"""Hashtag co-occurrence network, camp partitioning and frequency clouds.

Nodes are hashtags, edge weights count tweets containing both tags (or
distinct users, with per-user dedup). Camps come from deterministic label
propagation: synchronous rounds with lexicographic tie-breaking, plus a
min-label merge that breaks the two-cycles synchronous updates can fall
into on bipartite structures. Exports are canonical (sorted nodes and
pairs) so identical graphs serialize identically.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence
from xml.sax.saxutils import quoteattr

from .ingest import TweetRecord
from .stance import Stance

__all__ = [
    "CooccurrenceGraph",
    "CampSummary",
    "CampPartition",
    "TagCounts",
    "build_graph",
    "partition_graph",
    "camp_clouds",
    "write_graphml",
    "write_dot",
    "write_clouds_csv",
]

DEFAULT_MIN_COUNT = 5
MAX_ROUNDS = 100  # label-propagation rounds before the partition is taken as it stands


@dataclass(frozen=True)
class CooccurrenceGraph:
    """Pruned co-occurrence counts: tag frequencies and pair weights."""

    node_freq: dict[str, int]
    edge_weight: dict[tuple[str, str], int]  # keys are sorted pairs, a < b

    @property
    def nodes(self) -> list[str]:
        return sorted(self.node_freq)

    @property
    def edges(self) -> list[tuple[str, str, int]]:
        return [(a, b, w) for (a, b), w in sorted(self.edge_weight.items())]

    def neighbors(self) -> dict[str, list[tuple[str, int]]]:
        adj: dict[str, list[tuple[str, int]]] = {tag: [] for tag in self.node_freq}
        for (a, b), w in self.edge_weight.items():
            adj[a].append((b, w))
            adj[b].append((a, w))
        return adj


class TagCounts:
    """Single-pass hashtag counts: tags and tag pairs for the graph, tags per stance for the clouds.

    :func:`build_graph` and :func:`camp_clouds` each make one pass of it;
    a caller that needs both feeds each record to :meth:`add` and
    :meth:`add_labeled` in one pass.
    """

    def __init__(self, dedup_users: bool = False):
        self.dedup_users = dedup_users
        self.labeled = 0  # records given to add_labeled
        self._nodes: Counter = Counter()
        self._pairs: Counter = Counter()
        self._seen_node: set = set()
        self._seen_pair: set = set()
        self._per_stance: dict[str, Counter] = {s.value: Counter() for s in Stance}

    def add(self, record: TweetRecord) -> None:
        """Count the record's tags and tag pairs."""
        tags = sorted(set(record.hashtags))
        for tag in tags:
            if self.dedup_users:
                key = (record.user_id, tag)
                if key in self._seen_node:
                    continue
                self._seen_node.add(key)
            self._nodes[tag] += 1
        for a, b in combinations(tags, 2):
            if self.dedup_users:
                key = (record.user_id, a, b)
                if key in self._seen_pair:
                    continue
                self._seen_pair.add(key)
            self._pairs[(a, b)] += 1

    def add_labeled(self, record: TweetRecord, stance: Stance | str) -> None:
        """Count the record's tags under its stance label."""
        value = stance.value if isinstance(stance, Stance) else str(stance)
        counter = self._per_stance.setdefault(value, Counter())
        for tag in set(record.hashtags):
            counter[tag] += 1
        self.labeled += 1

    def graph(self, min_count: int = DEFAULT_MIN_COUNT) -> CooccurrenceGraph:
        """The counts of :meth:`add`, pruned below ``min_count``."""
        kept = {t: c for t, c in self._nodes.items() if c >= min_count}
        edges = {
            pair: w
            for pair, w in self._pairs.items()
            if w >= min_count and pair[0] in kept and pair[1] in kept
        }
        return CooccurrenceGraph(node_freq=kept, edge_weight=edges)

    def clouds(self) -> dict[str, list[tuple[str, int]]]:
        """The counts of :meth:`add_labeled`, ranked as :func:`camp_clouds` returns them."""
        return {
            stance: sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            for stance, counts in self._per_stance.items()
        }


def build_graph(
    records: Iterable[TweetRecord],
    min_count: int = DEFAULT_MIN_COUNT,
    dedup_users: bool = False,
) -> CooccurrenceGraph:
    """Count tag and pair occurrences, then prune below ``min_count``.

    With ``dedup_users`` each (user, tag) and (user, pair) counts once, so
    a flooding account contributes at most 1 to any weight.
    """
    counts = TagCounts(dedup_users)
    for record in records:
        counts.add(record)
    return counts.graph(min_count)


@dataclass(frozen=True)
class CampSummary:
    camp_id: int
    size: int
    total_freq: int
    top_tags: tuple[str, ...]


@dataclass(frozen=True)
class CampPartition:
    """Every retained tag assigned to exactly one camp (0 = largest)."""

    camp_of: dict[str, int]
    camps: tuple[CampSummary, ...]


def _propagate_labels(graph: CooccurrenceGraph) -> dict[str, str]:
    labels = {tag: tag for tag in graph.node_freq}
    adj = graph.neighbors()
    order = sorted(graph.node_freq)
    previous: dict[str, str] | None = None
    for _ in range(MAX_ROUNDS):
        votes: dict[str, str] = {}
        changed = False
        for tag in order:
            neigh = adj[tag]
            if not neigh:
                votes[tag] = labels[tag]
                continue
            weight_by_label: dict[str, int] = defaultdict(int)
            for other, w in neigh:
                weight_by_label[labels[other]] += w
            best = min(weight_by_label, key=lambda lab: (-weight_by_label[lab], lab))
            votes[tag] = best
            changed = changed or best != labels[tag]
        if not changed:
            break
        if previous is not None and votes == previous:
            # Two-cycle (bipartite oscillation): merge the two alternating
            # labels per node deterministically and keep going.
            votes = {tag: min(votes[tag], labels[tag]) for tag in order}
        previous = labels
        labels = votes
    return labels


def partition_graph(graph: CooccurrenceGraph) -> CampPartition:
    """Deterministic camp assignment for every retained tag.

    Camps are numbered by descending total frequency (ties by smallest
    member tag).
    """
    if not graph.node_freq:
        raise ValueError("cannot partition an empty graph")
    labels = _propagate_labels(graph)

    members: dict[str, list[str]] = defaultdict(list)
    for tag in sorted(labels):
        members[labels[tag]].append(tag)
    ranked = sorted(
        members.values(),
        key=lambda tags: (-sum(graph.node_freq[t] for t in tags), tags[0]),
    )
    camp_of: dict[str, int] = {}
    camps = []
    for camp_id, tags in enumerate(ranked):
        for tag in tags:
            camp_of[tag] = camp_id
        by_freq = sorted(tags, key=lambda t: (-graph.node_freq[t], t))
        camps.append(
            CampSummary(
                camp_id=camp_id,
                size=len(tags),
                total_freq=sum(graph.node_freq[t] for t in tags),
                top_tags=tuple(by_freq[:10]),
            )
        )
    return CampPartition(camp_of=camp_of, camps=tuple(camps))


def camp_clouds(
    labeled: Iterable[tuple[TweetRecord, Stance | str]]
) -> dict[str, list[tuple[str, int]]]:
    """Tag frequencies conditioned on the tweet's stance label.

    Returns, for every stance value, tags with their counts sorted by
    descending count then tag. A tag used in several camps appears in each
    with its respective count, and per-tag counts summed over all stances
    equal the tag's corpus frequency.
    """
    counts = TagCounts()
    for record, stance in labeled:
        counts.add_labeled(record, stance)
    return counts.clouds()


# -- exports ------------------------------------------------------------


def write_graphml(
    graph: CooccurrenceGraph, fh, partition: CampPartition | None = None
) -> None:
    """Canonical GraphML with frequency/camp node attributes and edge weights."""
    fh.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    fh.write('<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n')
    fh.write('  <key id="freq" for="node" attr.name="frequency" attr.type="int"/>\n')
    fh.write('  <key id="camp" for="node" attr.name="camp" attr.type="int"/>\n')
    fh.write('  <key id="weight" for="edge" attr.name="weight" attr.type="int"/>\n')
    fh.write('  <graph edgedefault="undirected">\n')
    for tag in graph.nodes:
        fh.write(f"    <node id={quoteattr(tag)}>\n")
        fh.write(f'      <data key="freq">{graph.node_freq[tag]}</data>\n')
        if partition is not None:
            fh.write(f'      <data key="camp">{partition.camp_of[tag]}</data>\n')
        fh.write("    </node>\n")
    for a, b, w in graph.edges:
        fh.write(f"    <edge source={quoteattr(a)} target={quoteattr(b)}>\n")
        fh.write(f'      <data key="weight">{w}</data>\n')
        fh.write("    </edge>\n")
    fh.write("  </graph>\n</graphml>\n")


def write_dot(graph: CooccurrenceGraph, fh, partition: CampPartition | None = None) -> None:
    """Canonical undirected DOT; camp recorded as a node attribute."""

    def q(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    fh.write("graph hashtags {\n")
    for tag in graph.nodes:
        attrs = [f"frequency={graph.node_freq[tag]}"]
        if partition is not None:
            attrs.append(f"camp={partition.camp_of[tag]}")
        fh.write(f"  {q(tag)} [{', '.join(attrs)}];\n")
    for a, b, w in graph.edges:
        fh.write(f"  {q(a)} -- {q(b)} [weight={w}];\n")
    fh.write("}\n")


def write_clouds_csv(clouds: dict[str, list[tuple[str, int]]], fh, top_k: int) -> None:
    """The ``top_k`` first tags of each camp's cloud, one row per tag."""
    writer = csv.writer(fh)
    writer.writerow(["camp", "rank", "tag", "count"])
    for stance in sorted(clouds):
        for rank, (tag, count) in enumerate(clouds[stance][:top_k], start=1):
            writer.writerow([stance, rank, tag, count])
