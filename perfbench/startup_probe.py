"""Cold-start split of a fresh interpreter (run as a subprocess).

Prints one JSON line: ``import_s`` (``import repro.cli``), and the
wall-clock of a first and a second ``Trainer.fit`` on the same small
dataset.  The difference of the two fits is what a fresh process pays
on its first training for lazy imports and first-use set-up — every
cold ``repro attack``, pool child and worker pays it.
"""

from __future__ import annotations

import json
import time

start = time.perf_counter()
import repro.cli  # noqa: E402,F401  (the import being timed)

import_s = time.perf_counter() - start

from repro.benchgen import load_benchmark  # noqa: E402
from repro.experiments.common import lock_with  # noqa: E402
from repro.linkpred import (  # noqa: E402
    TrainConfig,
    Trainer,
    build_link_dataset,
    extract_attack_graph,
    sample_links,
)

locked = lock_with("D-MUX", load_benchmark("c1355", scale=0.1), key_size=6, seed=0)
graph = extract_attack_graph(locked.circuit)
dataset = build_link_dataset(graph, sample_links(graph, seed=0), h=3)
config = TrainConfig(epochs=2, learning_rate=1e-3, seed=0)
fits = []
for _ in range(2):
    trainer = Trainer(dataset, config)
    begin = time.perf_counter()
    trainer.fit()
    fits.append(time.perf_counter() - begin)
print(json.dumps({"import_s": import_s, "first_fit_s": fits[0], "second_fit_s": fits[1]}))
