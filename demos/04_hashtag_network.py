"""Hashtag co-occurrence camps, from corpus to GraphML.

Uses a corpus with three planted hashtag blocks, recovers them by label
propagation over the co-occurrence graph, and writes the annotated graph
for Gephi (GraphML) or Graphviz (DOT).

Run with: python3 demos/04_hashtag_network.py
"""

from pathlib import Path

from electrend.hashtags import TagCounts, partition_graph, write_dot, write_graphml
from electrend.synth import generate_planted_tag_corpus

records, planted = generate_planted_tag_corpus()
print(len(records), "tweets carrying", len(planted), "distinct planted tags")

graph = TagCounts(records).graph(3)
print("graph after pruning:", len(graph.nodes), "tags,", len(graph.edges), "edges")
print()

partition = partition_graph(graph)
for camp in partition.camps:
    tags = ", ".join(camp.top_tags[:6])
    print(f"camp {camp.camp_id}: {camp.size} tags, weight {camp.total_freq:5d}  [{tags}]")
print()

# how well do the recovered camps line up with the planted blocks?
hits = 0
for tag, camp_id in partition.camp_of.items():
    block_mates = [t for t, c in partition.camp_of.items() if c == camp_id]
    want = max(set(planted[t] for t in block_mates), key=[planted[t] for t in block_mates].count)
    hits += planted[tag] == want
print(f"purity: {hits}/{len(partition.camp_of)} tags in their majority block")
print()

out = Path("demo_out")
out.mkdir(exist_ok=True)
with open(out / "hashtags.graphml", "w", encoding="utf-8") as fh:
    write_graphml(graph, fh, partition)
with open(out / "hashtags.dot", "w", encoding="utf-8") as fh:
    write_dot(graph, fh)
print("wrote", out / "hashtags.graphml", "and", out / "hashtags.dot")
print("node attributes carry frequency and camp id; edge weight is pair count")
