"""Cross-module invariants: properties that tie the whole system together.

1. **Tuning invariance** — delta_b, eta, rho and the SDist backend tune
   *performance*; answers must be bit-identical across any setting.
2. **Ingest-order invariance** — messages of different objects commute:
   any interleaving with the same timestamps yields the same answers.
3. **Snapshot invariance** — save/load never changes an answer, for any
   configuration.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.core.messages import Message
from repro.persist import load_index, save_index
from repro.roadnet.generators import grid_road_network
from repro.roadnet.location import NetworkLocation

_GRAPH = grid_road_network(7, 7, seed=33)


def _messages(rng, objects=15, rounds=4):
    msgs = []
    t = 0.0
    for obj in range(objects):
        t += 0.01
        e = rng.randrange(_GRAPH.num_edges)
        msgs.append(Message(obj, e, rng.uniform(0, _GRAPH.edge(e).weight), t))
    for _ in range(rounds):
        for obj in rng.sample(range(objects), objects // 2):
            t += 0.01
            e = rng.randrange(_GRAPH.num_edges)
            msgs.append(Message(obj, e, rng.uniform(0, _GRAPH.edge(e).weight), t))
    return msgs, t


def _answers(index, rng, t, queries=4):
    out = []
    for _ in range(queries):
        e = rng.randrange(_GRAPH.num_edges)
        q = NetworkLocation(e, rng.uniform(0, _GRAPH.edge(e).weight))
        out.append(
            [round(d, 9) for d in index.knn(q, 5, t_now=t).distances()]
        )
    return out


@settings(max_examples=8, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from((2, 8, 64)),
    st.integers(3, 5),
    st.floats(1.3, 3.0),
    st.sampled_from(("lockstep", "vectorized")),
)
def test_answers_invariant_to_tuning(seed, delta_b, eta, rho, backend):
    rng = random.Random(seed)
    msgs, t = _messages(rng)
    tuned = GGridIndex(
        _GRAPH,
        GGridConfig(delta_b=delta_b, eta=eta, rho=rho, sdist_backend=backend),
    )
    reference = GGridIndex(_GRAPH, GGridConfig())
    for m in msgs:
        tuned.ingest(m)
        reference.ingest(m)
    rng_a, rng_b = random.Random(seed + 1), random.Random(seed + 1)
    assert _answers(tuned, rng_a, t) == _answers(reference, rng_b, t)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10**6))
def test_answers_invariant_to_ingest_interleaving(seed):
    rng = random.Random(seed)
    msgs, t = _messages(rng)
    shuffled = list(msgs)
    random.Random(seed + 7).shuffle(shuffled)
    # per-object order must stay chronological (the server receives each
    # object's stream in order); cross-object interleaving is arbitrary
    per_object: dict[int, list[Message]] = {}
    for m in msgs:
        per_object.setdefault(m.obj, []).append(m)
    rebuilt: list[Message] = []
    cursors = {obj: 0 for obj in per_object}
    for m in shuffled:
        queue = per_object[m.obj]
        rebuilt.append(queue[cursors[m.obj]])
        cursors[m.obj] += 1

    a = GGridIndex(_GRAPH, GGridConfig(eta=3, delta_b=4))
    b = GGridIndex(_GRAPH, GGridConfig(eta=3, delta_b=4))
    for m in msgs:
        a.ingest(m)
    for m in rebuilt:
        b.ingest(m)
    rng_a, rng_b = random.Random(seed + 2), random.Random(seed + 2)
    assert _answers(a, rng_a, t) == _answers(b, rng_b, t)


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from((4, 32)), st.integers(3, 5))
def test_answers_invariant_to_snapshot(seed, delta_b, eta):
    import os
    import tempfile

    rng = random.Random(seed)
    msgs, t = _messages(rng)
    index = GGridIndex(_GRAPH, GGridConfig(delta_b=delta_b, eta=eta))
    for m in msgs:
        index.ingest(m)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "index.json")
        restored = load_index(save_index(index, path))
    rng_a, rng_b = random.Random(seed + 3), random.Random(seed + 3)
    assert _answers(index, rng_a, t) == _answers(restored, rng_b, t)
