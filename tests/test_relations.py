"""Metamorphic relations: two related inputs whose outputs must relate,
with no reference implementation to share a defect with.

Order: permuting the node declarations, the edges, the strategies, the
``scm`` equations and each table's entries of a bundled spec leaves every
subcommand's exit code, stdout and stderr byte-identical."""

import random
import re

import pytest

from conftest import STUDY_FILES, spec_text

EQUATION = r"\w+ := (?:noise \{[^{}]*\}\s*)?(?:table \([^()]*\) \{[^{}]*\}\s*)?;"
# Each kind of block as a pattern whose group 1 holds its items, and the
# pattern of one item; only space lies between the items of a block.
ORDERED_BLOCKS = [
    (r"((?:node \w+ *\{[^{}]*\}\s*)+)", r"node \w+ *\{[^{}]*\}"),
    (r"edges \{([^{}]*)\}", r"\w+ -> \w+;"),
    (r"((?:strategy \w+:[^;]*;\s*)+)", r"strategy \w+:[^;]*;"),
    (r"table \([^()]*\) \{([^{}]*)\}", r"\([^()]*\) -> -?\d+;"),
    (rf"scm \{{((?:\s*{EQUATION})+)", EQUATION),
]

CALLS = [
    ["validate", "--json"],
    ["swig"],
    ["identify"],
    ["identify", "--json"],
    ["render"],
    ["render", "--format", "dot"],
    ["simulate", "--seed", "3"],
]


def permuted(text: str, rng: random.Random) -> str:
    """``text`` with the items of every ordered block shuffled."""
    for block, item in ORDERED_BLOCKS:

        def shuffle(m: re.Match) -> str:
            region = m[1]
            items = re.findall(item, region)
            assert not re.sub(item, "", region).strip(), region
            rng.shuffle(items)
            lead = region[: len(region) - len(region.lstrip())]
            trail = region[len(region.rstrip()) :]
            body = lead + " ".join(items) + trail
            return m[0][: m.start(1) - m.start()] + body + m[0][m.end(1) - m.start() :]

        text = re.sub(block, shuffle, text)
    return text


@pytest.mark.parametrize("name", STUDY_FILES)
def test_permuted_blocks_leave_every_output_unchanged(name, run_cli, tmp_path):
    text = spec_text(name)
    path = tmp_path / name
    path.write_text(text)
    expected = [run_cli(argv[0], str(path), *argv[1:]) for argv in CALLS]
    texts = {permuted(text, random.Random(seed)) for seed in range(4)}
    assert texts != {text}
    for other in texts:
        path.write_text(other)
        assert [run_cli(argv[0], str(path), *argv[1:]) for argv in CALLS] == expected
