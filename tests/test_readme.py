"""README.md states parts of the CLI contract by hand; these checks hold
those parts to the code, so that a change on either side alone fails."""

import inspect
import re
from pathlib import Path

from qtunnel import cli, config, errors

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def table(first_header: str) -> list[list[str]]:
    """The cells of each body row of the README table whose header row
    starts with ``first_header``, stripped of spaces."""
    lines = README.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if re.match(rf"\| {first_header}\s+\|", line))
    rows = []
    for line in lines[start + 2:]:  # past the header row and its rule
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.split("|")[1:-1]])
    return rows


def test_keys_and_scenarios_match_the_config():
    keys = re.search(r"Keys: `([^`]*)`", README).group(1).split()
    assert set(keys) == set(config.KEY_TYPES)
    assert tuple(row[0].strip("`") for row in table("scenario")) == config.SCENARIOS


def test_scenario_columns_match_the_csv_header():
    for scenario, columns, _ in table("scenario"):
        scenario = scenario.strip("`")
        header, _ = cli._RUNNERS[scenario](config.RunConfig(scenario))
        # sweep's first column is its sweep key, a by default
        listed = columns.strip("`").replace("<sweep_key>", "a")
        assert listed.split(", ") == header.splitlines()[1].split(","), scenario


def test_exit_codes_match_cli_main(tmp_path, monkeypatch, capsys):
    codes = {failure: int(code) for failure, code, _ in table("failure")}
    assert set(codes) == {"`ConfigError`", "`DomainError`", "unwritable `--out`",
                          "any other `QTunnelError`"}
    out = str(tmp_path / "out.csv")
    qtunnel_errors = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                      if issubclass(cls, errors.QTunnelError)]
    for cls in [config.ConfigError, *qtunnel_errors]:
        def failing(cfg, cls=cls):
            raise cls("planted")

        monkeypatch.setitem(cli._RUNNERS, "rect", failing)
        row = ("`ConfigError`" if cls is config.ConfigError else
               "`DomainError`" if issubclass(cls, errors.DomainError) else
               "any other `QTunnelError`")
        assert cli.main(["rect", "--out", out]) == codes[row], cls.__name__
    monkeypatch.undo()
    missing = str(tmp_path / "missing" / "out.csv")
    assert cli.main(["rect", "--out", missing]) == codes["unwritable `--out`"]
    capsys.readouterr()
