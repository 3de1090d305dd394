"""README.md states parts of the CLI contract by hand; these checks hold
those parts to the code, so that a change on either side alone fails."""

import re
from pathlib import Path

from qtunnel import config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_keys_and_scenarios_match_the_config():
    keys = re.search(r"Keys: `([^`]*)`", README).group(1).split()
    assert set(keys) == set(config.KEY_TYPES)
    lines = README.splitlines()
    start = next(i for i, line in enumerate(lines) if re.match(r"\| scenario\s+\|", line))
    rows = []
    for line in lines[start + 2:]:  # past the header row and its rule
        if not line.startswith("|"):
            break
        rows.append(line.split("|")[1].strip().strip("`"))
    assert tuple(rows) == config.SCENARIOS
