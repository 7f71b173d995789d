from __future__ import annotations

import pytest

from kgqa.config import PipelineConfig
from kgqa.extraction import (
    EntityKey,
    KeySet,
    PairKey,
    SubgraphKey,
    TripleKey,
    build_key_set,
    entity_mentions,
    extract_global_keys,
    extract_local_keys,
    first_seen,
    group_subgraphs,
    parse_global_reply,
    parse_local_reply,
    serialize_key,
)
from kgqa.llm import ScriptRule, ScriptedBackend

from conftest import one_node_map

CFG = PipelineConfig()


def backend_for(head_snippet: str, reply: str) -> ScriptedBackend:
    return ScriptedBackend([ScriptRule(patterns=(head_snippet,), reply=reply)])


class TestSerializeKey:
    def test_entity(self):
        assert serialize_key(EntityKey("Paris")) == "Paris"

    def test_pair(self):
        assert serialize_key(PairKey("Paris", "capital of")) == "Paris capital of"

    def test_triple(self):
        key = TripleKey("manager", "recruited", "David Beckham")
        assert serialize_key(key) == "manager recruited David Beckham"

    def test_subgraph_joined(self):
        sg = SubgraphKey(
            (
                TripleKey("manager", "recruited", "David Beckham"),
                TripleKey("manager", "manage", "Manchester United"),
            )
        )
        assert (
            serialize_key(sg)
            == "manager recruited David Beckham; manager manage Manchester United"
        )

    def test_subgraph_requires_two_triples(self):
        with pytest.raises(ValueError):
            SubgraphKey((TripleKey("a", "b", "c"),))


class TestParseLocalReply:
    def test_entity_and_triple_forms(self):
        keys = parse_local_reply("<David Beckham>, <manager-recruited-David Beckham>")
        assert keys == [
            EntityKey("David Beckham"),
            TripleKey("manager", "recruited", "David Beckham"),
        ]

    def test_pair_form(self):
        assert parse_local_reply("<Paris-population>") == [PairKey("Paris", "population")]

    def test_duplicate_entities_deduplicated(self):
        assert parse_local_reply("<Paris> and <paris>") == [EntityKey("Paris")]

    def test_hyphenated_tail_preserved(self):
        keys = parse_local_reply("<club-founded-Boca-Juniors>")
        assert keys == [TripleKey("club", "founded", "Boca-Juniors")]

    def test_empty_reply(self):
        assert parse_local_reply("") == []

    def test_junk_angle_forms_skipped(self):
        assert parse_local_reply("<-> <--> < - >") == []


class TestExtractLocal:
    def test_beckham_keys(self, golden_backend):
        m = one_node_map("Which football manager recruited David Beckham?")
        keys = extract_local_keys(m, golden_backend, CFG)
        assert EntityKey("David Beckham") in keys
        assert TripleKey("manager", "recruited", "David Beckham") in keys

    def test_empty_reply_yields_no_keys(self):
        m = one_node_map("Q?")
        assert extract_local_keys(m, backend_for("extract the entities", ""), CFG) == []

    def test_unparseable_reply_warns(self):
        m = one_node_map("Q?")
        warnings: list[str] = []
        keys = extract_local_keys(
            m, backend_for("extract the entities", "no angle brackets"), CFG, warnings=warnings
        )
        assert keys == []
        assert warnings

    def test_uses_exploration_temperature(self, golden_backend):
        m = one_node_map("Q?")
        extract_local_keys(m, golden_backend, CFG)
        assert golden_backend.records[0].temperature == 0.4


class TestGroupSubgraphs:
    def test_shared_mention_forms_subgraph(self):
        t1 = TripleKey("manager", "recruited", "David Beckham")
        t2 = TripleKey("manager", "manage", "Manchester United")
        grouped = group_subgraphs([t1, t2])
        assert grouped == [SubgraphKey((t1, t2))]

    def test_disjoint_triples_demoted(self):
        t1 = TripleKey("a", "r", "b")
        t2 = TripleKey("c", "r", "d")
        assert group_subgraphs([t1, t2]) == [t1, t2]

    def test_chained_components_merge(self):
        t1 = TripleKey("a", "r", "b")
        t2 = TripleKey("b", "r", "c")
        t3 = TripleKey("c", "r", "d")
        grouped = group_subgraphs([t1, t2, t3])
        assert grouped == [SubgraphKey((t1, t2, t3))]


class TestExtractGlobal:
    def test_beckham_subgraph(self, golden_backend):
        m = one_node_map("Q?")
        keys = extract_global_keys(m, golden_backend, CFG)
        assert keys == [
            SubgraphKey(
                (
                    TripleKey("manager", "recruited", "David Beckham"),
                    TripleKey("manager", "manage", "Manchester United"),
                )
            )
        ]

    def test_france_example_single_subgraph(self):
        reply = (
            '[("France", "capital", "Paris"), ("France", "president", "Current President"),'
            ' ("Paris", "population", "Population Number")]'
        )
        m = one_node_map("Q?")
        keys = extract_global_keys(m, backend_for("extract the subgraphs", reply), CFG)
        assert len(keys) == 1
        assert isinstance(keys[0], SubgraphKey)
        assert len(keys[0].triples) == 3

    def test_disjoint_triples_demote_to_triple_keys(self):
        reply = '[("a", "r", "b"), ("c", "r", "d")]'
        m = one_node_map("Q?")
        keys = extract_global_keys(m, backend_for("extract the subgraphs", reply), CFG)
        assert keys == [TripleKey("a", "r", "b"), TripleKey("c", "r", "d")]

    def test_unparseable_reply_warns(self):
        m = one_node_map("Q?")
        warnings: list[str] = []
        keys = extract_global_keys(
            m, backend_for("extract the subgraphs", "prose only"), CFG, warnings=warnings
        )
        assert keys == []
        assert warnings


class TestKeySet:
    def test_build_routes_subgraphs_to_global(self):
        t = TripleKey("a", "r", "b")
        sg = SubgraphKey((TripleKey("x", "r", "y"), TripleKey("y", "r", "z")))
        ks = build_key_set([EntityKey("e"), t, sg])
        assert ks.local_keys == [EntityKey("e"), t]
        assert ks.global_keys == [sg]

    def test_dedupe_across_variants_kept_separate(self):
        # an entity and a pair that serialize differently both survive
        ks = build_key_set([EntityKey("a b"), PairKey("a", "b")])
        assert len(ks.local_keys) == 2

    def test_mentions_include_subgraph_constituents(self):
        sg = SubgraphKey((TripleKey("x", "r", "y"), TripleKey("y", "r", "z")))
        ks = build_key_set([EntityKey("e"), sg])
        assert ks.mentions() == ["e", "x", "y", "z"]

    def test_entity_mentions_per_variant(self):
        assert entity_mentions(EntityKey("a")) == ["a"]
        assert entity_mentions(PairKey("a", "r")) == ["a"]
        assert entity_mentions(TripleKey("a", "r", "b")) == ["a", "b"]

    def test_scoring_pairs_expand_subgraphs(self):
        sg = SubgraphKey((TripleKey("x", "r", "y"), TripleKey("y", "r", "z")))
        ks = KeySet(local_keys=[EntityKey("e")], global_keys=[sg])
        texts = [text for _, text in ks.scoring_pairs()]
        assert texts == ["e", "x r y; y r z", "x r y", "y r z"]

    def test_scoring_pairs_keep_the_first_pair_of_each_text(self):
        # The subgraph restates the local triple key: its constituent's pair
        # is dropped, and the local key keeps the text.
        local = TripleKey("manager", "recruited", "David Beckham")
        sg = SubgraphKey((local, TripleKey("manager", "manage", "Manchester United")))
        ks = KeySet(local_keys=[EntityKey("David Beckham"), local], global_keys=[sg])
        assert ks.scoring_pairs() == [
            (EntityKey("David Beckham"), "David Beckham"),
            (local, "manager recruited David Beckham"),
            (sg, "manager recruited David Beckham; manager manage Manchester United"),
            (sg, "manager manage Manchester United"),
        ]

    def test_scoring_pairs_dedupe_exact_text_only(self):
        # Texts that differ only in case may embed differently under another
        # embedder, so both are scored.
        ks = KeySet(local_keys=[EntityKey("Paris"), PairKey("paris", "capital")])
        sg = SubgraphKey((TripleKey("paris", "capital", "x"), TripleKey("x", "r", "y")))
        ks.global_keys.append(sg)
        ks.global_keys.append(SubgraphKey((TripleKey("x", "r", "y"), TripleKey("PARIS", "capital", "x"))))
        texts = [text for _, text in ks.scoring_pairs()]
        assert texts == [
            "Paris",
            "paris capital",
            "paris capital x; x r y",
            "paris capital x",
            "x r y",
            "x r y; PARIS capital x",
            "PARIS capital x",
        ]

    def test_mentions_drop_blanks_and_repeats(self):
        ks = KeySet(local_keys=[EntityKey(" "), EntityKey("David  Beckham"), TripleKey("david beckham", "r", "!")])
        assert ks.mentions() == ["David  Beckham", "!"]


class TestFirstSeen:
    def test_keeps_the_first_item_of_each_identity_in_order(self):
        assert first_seen(["b", "A", "a", "B", "c"], str.lower) == ["b", "A", "c"]

    def test_dedupe_keeps_the_first_key_of_each_type_and_normalised_text(self):
        keys = [EntityKey("Paris"), PairKey("a", "b"), EntityKey(" paris "), EntityKey("a b"), PairKey("A", "B")]
        ks = build_key_set(keys)
        assert ks.local_keys == [EntityKey("Paris"), PairKey("a", "b"), EntityKey("a b")]
