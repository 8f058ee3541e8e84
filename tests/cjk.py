"""CJK copies of synthetic corpora: the paper's Chinese setting as a fixture.

The synthetic generator writes lowercase ASCII words joined by spaces and
hyphens. CJK maps each letter and the hyphen onto a CJK ideograph
(U+4E00 + 37*i) and drops the spaces, since Chinese text has none. ASTRAL maps
them into CJK Extension B (U+20000 + i), outside the Basic Multilingual Plane,
so the featurizer meets 4-byte UTF-8 characters. Indices and labels
stay as they are.
"""

from dataclasses import replace
from pathlib import Path

from pvireduce import load_dataset, serialize

_SYMBOLS = "abcdefghijklmnopqrstuvwxyz-"
CJK = {ord(ch): 0x4E00 + 37 * i for i, ch in enumerate(_SYMBOLS)} | {ord(" "): None}
ASTRAL = {ord(ch): 0x20000 + i for i, ch in enumerate(_SYMBOLS)} | {ord(" "): None}


def translate(dataset, table):
    """`dataset` with both texts of every instance mapped through `table`."""
    instances = tuple(replace(inst, premise=inst.premise.translate(table),
                              hypothesis=inst.hypothesis.translate(table))
                      for inst in dataset)
    for inst in instances:
        if any(ch.isascii() for ch in inst.premise + inst.hypothesis):
            raise ValueError(f"instance {inst.original_index} keeps ASCII text: {inst!r}")
    return replace(dataset, instances=instances)


def translate_corpus(source, dest, table) -> None:
    """Load a JSONL or TSV corpus (by its suffix), translate it, write it to `dest`."""
    fmt = Path(source).suffix.lstrip(".")
    Path(dest).parent.mkdir(parents=True, exist_ok=True)
    serialize(translate(load_dataset(source, fmt), table), dest, fmt)
