"""Deterministic benchmark inputs, generated once per seed and kept as text.

The synthetic generators cost about 1.3 ms per record in pure Python, so a
~49k-record corpus would take a minute per run.  Inputs are therefore
generated once per ``(kind, seed)`` into ``perfbench/.cache/`` and read back
on later runs.  Only generator output is cached: every library, dictionary
and server answer is rebuilt by the code under test on every run.

* ``mixed``: the MIXED corpus (``repro.datasets.mixed``), plain SMILES.
* ``training``: its first ``TRAINING_RECORDS`` records, the dictionary's
  training sample (MIXED generation is prefix-stable, so this equals
  ``mixed[:TRAINING_RECORDS]`` at a third of the cost).
* ``scored``: EXSCALATE docking output as ``SMILES<TAB>score`` lines.
  ``exscalate.generate_scored`` gives the ligands and their best-pose
  scores; each ligand then gets further poses, each scoring worse than the
  one before, as a docking run reports them.  Lines are pose-major, so a
  256-record block holds 256 different ligands.
"""

from __future__ import annotations

import os
import random
from pathlib import Path
from typing import List

#: MIXED records packed by the ``pack`` workload, and the training sample.
MIXED_RECORDS = 4096
TRAINING_RECORDS = 3072
#: Distinct ligands in the scored corpus, and poses per ligand.
LIGANDS = 2048
POSES = 24
#: Offset keeping the scored ligands apart from MIXED's EXSCALATE third,
#: so the dictionary is never trained on the very molecules it serves.
SCORED_SEED_OFFSET = 1_000_003
#: Bumped whenever generation changes, so stale cache files are ignored.
FORMAT_VERSION = 1


def _generate(kind: str, seed: int) -> List[str]:
    if kind in ("mixed", "training"):
        from repro.datasets import mixed

        count = MIXED_RECORDS if kind == "mixed" else TRAINING_RECORDS
        return mixed.generate(count, seed=seed)
    if kind == "scored":
        from repro.datasets import exscalate

        ligands = exscalate.generate_scored(
            LIGANDS, seed=exscalate.DEFAULT_SEED + SCORED_SEED_OFFSET + seed
        )
        rng = random.Random(seed)
        scores = [score for _, score in ligands]
        lines: List[str] = []
        for _ in range(POSES):
            lines.extend(f"{smiles}\t{score:.3f}" for (smiles, _), score in zip(ligands, scores))
            scores = [score + rng.expovariate(1.25) for score in scores]
        return lines
    raise ValueError(f"unknown input kind {kind!r}")


def load(kind: str, seed: int, cache_dir: Path) -> List[str]:
    """The *kind* corpus for *seed*, from the cache or freshly generated."""
    path = cache_dir / f"{kind}-v{FORMAT_VERSION}-seed{seed}.txt"
    if path.is_file():
        return path.read_text(encoding="utf-8").split("\n")[:-1]
    lines = _generate(kind, seed)
    cache_dir.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    partial.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    os.replace(partial, path)
    return lines
