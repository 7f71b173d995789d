"""Benchmark workloads and the seeded generator of their graphs and datasets.

Every input is a pure function of (workload, seed). The generator never
iterates an unsorted set, so the same seed gives byte-identical files under
any ``PYTHONHASHSEED``.

Graph shape. Entities are "things" (three-token names) and "values"
(one-token names). Things link to things through a configuration model over a fixed
power-law degree sequence: the degree of the thing at each rank is the same
for every seed, and the seed only picks names and wiring. That keeps hub
sizes, and with them the per-question cost, steady across seeds. Each thing
also carries two attribute triples ``(thing, attribute, value)``; every value
has the same in-degree, so values never become hubs.

Questions ask for one attribute of one thing: "What is the <attribute> of
<thing>?". Gold answers are every tail ``t`` with ``(thing, attribute, t)``
in the generated graph.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

ATTRIBUTES = (
    "birth place", "home port", "founding year", "chief export",
    "patron saint", "ruling house", "native tongue", "guild color",
    "market day", "harbor code", "river source", "crest animal",
)
LINKS = ("allied with", "trades with", "borders on", "rivals", "supplies", "governs", "mentors")
ATTRIBUTES_PER_THING = 2
HUB_CAP = 512  # PipelineConfig's default hub_cap
DEGREE_EXPONENT = 0.5  # power law of link degree over degree rank

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]


@dataclass(frozen=True)
class Workload:
    name: str
    things: int
    values: int
    link_triples: int
    hops: int
    questions: int
    targets: str  # "hubs": the top-degree things; "below_hub_cap": things under hub_cap degree; "any"
    mentions: str  # "exact": the thing's name; "fuzzy": "the <name>" plus an unresolvable source
    branching: tuple[int, ...]  # sub-questions per level of the decomposition tree
    llm_base_s: float  # stub delay per call
    llm_per_kchar_s: float  # stub delay per 1000 prompt characters
    workers: int
    expected_em: float
    expected_llm_calls: int  # per question, implied by ``branching`` and the verifier
    setup_reps: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hub_expand",
            things=15000, values=5000, link_triples=70000,
            hops=2, questions=120, targets="hubs", mentions="exact", branching=(),
            llm_base_s=0.0, llm_per_kchar_s=0.0, workers=1,
            expected_em=1.0, expected_llm_calls=5, setup_reps=3,
        ),
        Workload(
            name="fuzzy_resolve",
            things=15000, values=5000, link_triples=70000,
            hops=1, questions=100, targets="below_hub_cap", mentions="fuzzy", branching=(),
            llm_base_s=0.0, llm_per_kchar_s=0.0, workers=1,
            expected_em=0.9, expected_llm_calls=5, setup_reps=3,
        ),
        Workload(
            name="deep_tree_llm",
            things=1500, values=500, link_triples=7000,
            hops=1, questions=120, targets="any", mentions="exact", branching=(3, 2),
            llm_base_s=0.005, llm_per_kchar_s=0.001, workers=2,
            expected_em=1.0, expected_llm_calls=29, setup_reps=5,
        ),
    )
}


def _words(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct three-syllable pseudo-words, capitalised."""
    space = len(_SYLLABLES) ** 3
    out = []
    for index in rng.sample(range(space), count):
        a, rest = divmod(index, len(_SYLLABLES) ** 2)
        b, c = divmod(rest, len(_SYLLABLES))
        out.append((_SYLLABLES[a] + _SYLLABLES[b] + _SYLLABLES[c]).capitalize())
    return out


def degree_sequence(w: Workload) -> list[int]:
    """Link degree of the thing at each rank; identical for every seed."""
    stubs = 2 * w.link_triples
    weights = [(rank + 1) ** -DEGREE_EXPONENT for rank in range(w.things)]
    scale = stubs / sum(weights)
    degrees = [max(1, round(scale * x)) for x in weights]
    if sum(degrees) % 2:
        degrees[0] += 1
    return degrees


@dataclass
class Generated:
    triples: list[tuple[str, str, str]]
    dataset: list[dict]


def generate(w: Workload, seed: int) -> Generated:
    rng = random.Random(f"{w.name}:{seed}")
    words = _words(rng, 3 * w.things + w.values + 3 * w.questions)
    things = [" ".join(words[3 * i : 3 * i + 3]) for i in range(w.things)]
    values = words[3 * w.things : 3 * w.things + w.values]
    spare = words[3 * w.things + w.values :]
    decoys = [" ".join(spare[3 * i : 3 * i + 3]) for i in range(w.questions)]

    # Things are listed in rank order, so things[0] has the largest degree.
    stubs = [i for i, d in enumerate(degree_sequence(w)) for _ in range(d)]
    rng.shuffle(stubs)
    seen: set[tuple[int, str, int]] = set()
    triples: list[tuple[str, str, str]] = []
    degree = [0] * w.things
    for k in range(0, len(stubs) - 1, 2):
        head, tail = stubs[k], stubs[k + 1]
        relation = LINKS[rng.randrange(len(LINKS))]
        if head == tail or (head, relation, tail) in seen:
            continue
        seen.add((head, relation, tail))
        triples.append((things[head], relation, things[tail]))
        degree[head] += 1
        degree[tail] += 1

    value_stubs = [i % w.values for i in range(w.things * ATTRIBUTES_PER_THING)]
    rng.shuffle(value_stubs)
    attributes: dict[int, list[tuple[str, str]]] = {}
    for i in range(w.things):
        chosen = sorted(rng.sample(ATTRIBUTES, ATTRIBUTES_PER_THING))
        attributes[i] = []
        for j, relation in enumerate(chosen):
            value = values[value_stubs[i * ATTRIBUTES_PER_THING + j]]
            triples.append((things[i], relation, value))
            attributes[i].append((relation, value))
            degree[i] += 1

    if w.targets == "hubs":
        order = sorted(range(w.things), key=lambda i: (-degree[i], things[i]))
        targets = order[: w.questions]
        rng.shuffle(targets)
    elif w.targets == "below_hub_cap":
        eligible = [i for i in range(w.things) if degree[i] < HUB_CAP]
        targets = rng.sample(eligible, w.questions)
    else:
        targets = rng.sample(range(w.things), w.questions)

    dataset = []
    for q, i in enumerate(targets):
        relation = rng.choice(sorted(r for r, _ in attributes[i]))
        gold = sorted(v for r, v in attributes[i] if r == relation)
        if w.mentions == "fuzzy":
            question = f"What is the {relation} of the {things[i]}, as told by {decoys[q]}?"
        else:
            question = f"What is the {relation} of {things[i]}?"
        dataset.append({"id": f"{w.name}-{seed}-{q}", "question": question, "answers": gold})
    return Generated(triples=triples, dataset=dataset)


def write_inputs(w: Workload, seed: int, directory: Path) -> tuple[Path, Path]:
    """Write ``graph.tsv`` and ``dataset.jsonl`` for (workload, seed)."""
    generated = generate(w, seed)
    directory.mkdir(parents=True, exist_ok=True)
    graph_path = directory / "graph.tsv"
    dataset_path = directory / "dataset.jsonl"
    with open(graph_path, "w", encoding="utf-8") as f:
        f.writelines(f"{h}\t{r}\t{t}\n" for h, r, t in generated.triples)
    with open(dataset_path, "w", encoding="utf-8") as f:
        f.writelines(json.dumps(record, ensure_ascii=False) + "\n" for record in generated.dataset)
    return graph_path, dataset_path
