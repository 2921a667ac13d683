"""Co-occurrence graph construction, camp partitioning and exports."""

import io
import itertools
import xml.etree.ElementTree as ET
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from electrend.hashtags import (
    build_graph,
    camp_clouds,
    partition_graph,
    write_clouds_csv,
    write_dot,
    write_graphml,
)
from electrend.synth import generate_planted_tag_corpus
from conftest import rec


def tag_rec(tags, user="u1"):
    return rec(user=user, text=" ".join(f"#{t}" for t in tags), tags=list(tags))


class TestBuildGraph:
    def test_triangle_from_one_tweet(self):
        g = build_graph([tag_rec(["a", "b", "c"])], min_count=1)
        assert g.nodes == ["a", "b", "c"]
        assert g.edges == [("a", "b", 1), ("a", "c", 1), ("b", "c", 1)]

    def test_weight_accumulates(self):
        g = build_graph([tag_rec(["a", "b"]), tag_rec(["b", "a"])], min_count=1)
        assert g.edges == [("a", "b", 2)]
        assert g.node_freq == {"a": 2, "b": 2}

    def test_five_tweet_fixture_matches_brute_force(self):
        tweets = [
            ["a", "b", "c"],
            ["a", "b"],
            ["b", "c", "d"],
            ["d"],
            ["a", "d"],
        ]
        records = [tag_rec(t) for t in tweets]
        g = build_graph(records, min_count=1)

        freq = Counter()
        pairs = Counter()
        for tags in tweets:
            uniq = sorted(set(tags))
            freq.update(uniq)
            pairs.update(itertools.combinations(uniq, 2))
        assert g.node_freq == dict(freq)
        assert {(a, b): w for a, b, w in g.edges} == dict(pairs)

    def test_duplicate_tags_in_one_tweet_count_once(self):
        g = build_graph([tag_rec(["a", "a", "b"])], min_count=1)
        assert g.node_freq == {"a": 1, "b": 1}
        assert g.edges == [("a", "b", 1)]

    def test_min_count_prunes_rare_tags_and_edges(self):
        records = [tag_rec(["a", "b"]) for _ in range(5)] + [tag_rec(["a", "z"])]
        g = build_graph(records, min_count=2)
        assert "z" not in g.node_freq
        assert g.edges == [("a", "b", 5)]

    def test_user_dedup_counts_each_user_once(self):
        records = [tag_rec(["a", "b"], user="u1") for _ in range(4)] + [
            tag_rec(["a", "b"], user="u2")
        ]
        plain = build_graph(records, min_count=1)
        dedup = build_graph(records, min_count=1, dedup_users=True)
        assert plain.edges == [("a", "b", 5)]
        assert dedup.edges == [("a", "b", 2)]
        assert dedup.node_freq == {"a": 2, "b": 2}

    def test_empty_corpus(self):
        g = build_graph([], min_count=1)
        assert g.nodes == [] and g.edges == []

    @settings(max_examples=40)
    @given(
        tweets=st.lists(
            st.lists(st.sampled_from("abcdef"), min_size=0, max_size=4), max_size=12
        ),
        low=st.integers(1, 3),
        raise_by=st.integers(0, 3),
    )
    def test_pruning_monotone(self, tweets, low, raise_by):
        records = [tag_rec(t) for t in tweets if t]
        small = build_graph(records, min_count=low + raise_by)
        big = build_graph(records, min_count=low)
        assert set(small.node_freq) <= set(big.node_freq)
        assert {(a, b) for a, b, _ in small.edges} <= {(a, b) for a, b, _ in big.edges}

    @settings(max_examples=40)
    @given(
        tweets=st.lists(
            st.lists(st.sampled_from("abcde"), min_size=2, max_size=4), max_size=10
        )
    )
    def test_edges_canonical_and_symmetric(self, tweets):
        g = build_graph([tag_rec(t) for t in tweets], min_count=1)
        for a, b, w in g.edges:
            assert a < b
            assert w >= 1
        assert g.edges == sorted(g.edges)


class TestPartition:
    def test_single_node(self):
        g = build_graph([tag_rec(["solo"]) ], min_count=1)
        p = partition_graph(g)
        assert p.camp_of == {"solo": 0}
        assert len(p.camps) == 1
        assert p.camps[0].top_tags[0] == "solo"

    def test_two_disconnected_cliques(self):
        records = []
        for _ in range(4):
            records.append(tag_rec(["a", "b", "c"]))
            records.append(tag_rec(["x", "y", "z"]))
        p = partition_graph(build_graph(records, min_count=1))
        assert len(p.camps) == 2
        groups = {}
        for tag, camp in p.camp_of.items():
            groups.setdefault(camp, set()).add(tag)
        assert sorted(groups.values(), key=min) == [{"a", "b", "c"}, {"x", "y", "z"}]

    def test_deterministic(self):
        records, _ = generate_planted_tag_corpus(n_tweets=300, rng_seed=3)
        g = build_graph(records, min_count=3)
        p1 = partition_graph(g)
        p2 = partition_graph(g)
        assert p1.camp_of == p2.camp_of

    def test_camps_ranked_by_total_frequency(self):
        records = [tag_rec(["a", "b"]) for _ in range(10)] + [
            tag_rec(["x", "y"]) for _ in range(3)
        ]
        p = partition_graph(build_graph(records, min_count=1))
        assert p.camps[0].total_freq >= p.camps[1].total_freq
        assert "a" in p.camps[0].top_tags

    def test_planted_three_blocks_recovered(self):
        records, planted = generate_planted_tag_corpus()
        g = build_graph(records, min_count=3)
        p = partition_graph(g)
        total = correct = 0
        camp_members = {}
        for tag, camp in p.camp_of.items():
            camp_members.setdefault(camp, []).append(tag)
        for members in camp_members.values():
            majority = Counter(planted[t] for t in members).most_common(1)[0][1]
            correct += majority
            total += len(members)
        assert total == 24  # all planted tags survive pruning
        assert correct / total >= 0.95

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            partition_graph(build_graph([], min_count=1))


class TestClouds:
    def test_single_tweet_both_tags(self):
        clouds = camp_clouds([(tag_rec(["a", "b"]), "pro_ff")])
        assert clouds["pro_ff"] == [("a", 1), ("b", 1)]

    def test_tag_in_two_camps_counted_in_each(self):
        labeled = [
            (tag_rec(["comun", "ff1"]), "pro_ff"),
            (tag_rec(["comun"]), "pro_mp"),
            (tag_rec(["comun"]), "pro_mp"),
        ]
        clouds = camp_clouds(labeled)
        assert ("comun", 1) in clouds["pro_ff"]
        assert clouds["pro_mp"] == [("comun", 2)]

    def test_counts_are_marginals_of_corpus_frequency(self):
        labeled = []
        stances = ["pro_ff", "pro_mp", "pro_third", "neutral"]
        for i in range(40):
            tags = ["a"] if i % 2 else ["a", "b"]
            labeled.append((tag_rec(tags), stances[i % 4]))
        clouds = camp_clouds(labeled)
        totals = Counter()
        for ranked in clouds.values():
            for tag, count in ranked:
                totals[tag] += count
        corpus_freq = Counter()
        for record, _ in labeled:
            corpus_freq.update(set(record.hashtags))
        assert totals == corpus_freq

    def test_ranked_by_count_then_tag(self):
        labeled = [(tag_rec(["b"]), "pro_ff"), (tag_rec(["b"]), "pro_ff"), (tag_rec(["a"]), "pro_ff")]
        clouds = camp_clouds(labeled)
        assert clouds["pro_ff"] == [("b", 2), ("a", 1)]


class TestExports:
    def graph(self):
        records = [tag_rec(["a", "b"]) for _ in range(3)] + [tag_rec(['q"uote'])] * 2
        return build_graph(records, min_count=1)

    def test_graphml_well_formed_with_attributes(self):
        g = self.graph()
        p = partition_graph(g)
        buf = io.StringIO()
        write_graphml(g, buf, p)
        root = ET.fromstring(buf.getvalue())
        ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
        nodes = root.findall(".//g:node", ns)
        edges = root.findall(".//g:edge", ns)
        assert {n.get("id") for n in nodes} == {"a", "b", 'q"uote'}
        assert len(edges) == 1
        freq = {n.get("id"): n.find("g:data[@key='freq']", ns).text for n in nodes}
        assert freq["a"] == "3"

    def test_dot_escapes_and_lists_edges(self):
        g = self.graph()
        buf = io.StringIO()
        write_dot(g, buf)
        text = buf.getvalue()
        assert text.startswith("graph hashtags {")
        assert '"a" -- "b" [weight=3];' in text
        assert '"q\\"uote"' in text

    def test_clouds_csv_rows(self):
        clouds = {"pro_ff": [("x", 5), ("y", 2)], "pro_mp": [("z", 1)]}
        buf = io.StringIO()
        write_clouds_csv(clouds, buf, top_k=1)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "camp,rank,tag,count"
        assert "pro_ff,1,x,5" in lines
        assert all("y" not in ln for ln in lines)  # top_k applied

    def test_export_determinism(self):
        records, _ = generate_planted_tag_corpus(n_tweets=200, rng_seed=5)
        g = build_graph(records, min_count=2)
        p = partition_graph(g)
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            write_graphml(g, buf, p)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]
