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
from typing import Iterable
from xml.sax.saxutils import quoteattr

from .ingest import TweetRecord
from .stance import Stance

__all__ = [
    "CooccurrenceGraph",
    "CampSummary",
    "CampPartition",
    "TagCounts",
    "partition_graph",
    "write_graphml",
    "write_dot",
    "write_clouds_csv",
]

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
    """Hashtag counts of a corpus, folded in one pass: tags and pairs for :meth:`graph`.

    With ``dedup_users`` each (user, tag) and (user, pair) counts once, so a
    flooding account adds at most 1 to any weight. A record whose ``stance``
    is set also counts its tags, never deduplicated, toward that stance's
    cloud (:meth:`clouds`); ``labeled`` counts those records.
    """

    def __init__(self, records: Iterable[TweetRecord], dedup_users: bool = False):
        self.labeled = 0
        self._nodes: Counter = Counter()
        self._pairs: Counter = Counter()
        self._per_stance: dict[str, Counter] = {s.value: Counter() for s in Stance}
        seen_node: set = set()
        seen_pair: set = set()
        for record in records:
            tags = sorted(set(record.hashtags))
            for tag in tags:
                if dedup_users:
                    key = (record.user_id, tag)
                    if key in seen_node:
                        continue
                    seen_node.add(key)
                self._nodes[tag] += 1
            for a, b in combinations(tags, 2):
                if dedup_users:
                    key = (record.user_id, a, b)
                    if key in seen_pair:
                        continue
                    seen_pair.add(key)
                self._pairs[(a, b)] += 1
            if record.stance is not None:
                self._per_stance.setdefault(record.stance, Counter()).update(tags)
                self.labeled += 1

    def graph(self, min_count: int) -> CooccurrenceGraph:
        """Tag and pair counts, pruned below ``min_count``."""
        kept = {t: c for t, c in self._nodes.items() if c >= min_count}
        edges = {
            pair: w
            for pair, w in self._pairs.items()
            if w >= min_count and pair[0] in kept and pair[1] in kept
        }
        return CooccurrenceGraph(node_freq=kept, edge_weight=edges)

    def clouds(self) -> dict[str, list[tuple[str, int]]]:
        """Each stance's tags with their counts, by descending count then tag.

        A tag used in several camps appears in each; summed over the stances,
        a tag's counts equal its frequency among labeled records.
        """
        return {
            stance: sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            for stance, counts in self._per_stance.items()
        }


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
