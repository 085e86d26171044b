"""The README quickstart and command line configs run as documented."""

import csv
import json
import re
from pathlib import Path

from zzbound.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_prints_its_documented_output(capsys):
    text = README.read_text(encoding="utf-8")
    # The first python block and the plain block right after it.
    found = re.search(r"```python\n(.*?)```\s*```\n(.*?)```", text, re.DOTALL)
    assert found, "README has no python block followed by an output block"
    code, expected = found.groups()
    exec(compile(code, str(README), "exec"), {"__name__": "readme_quickstart"})
    assert capsys.readouterr().out == expected


def _run_cli(tmp_path, command, cfg):
    cfg_path = tmp_path / f"{command}.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / f"{command}.csv"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, list(reader)


def test_readme_cli_configs_run_with_their_documented_columns(tmp_path):
    text = README.read_text(encoding="utf-8")
    blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", text, re.DOTALL)]
    bound_cfg = next(b for b in blocks if "scenario" in b)
    sweep_cfg = next(b for b in blocks if "grid" in b)

    columns, rows = _run_cli(tmp_path, "bound", bound_cfg)
    assert columns == ["method", "value", "converged", "runtime"]
    # Equal maps and zero noise means: the README names the closed form.
    assert [(r["method"], r["converged"]) for r in rows] == [("closed_form_q_linear", "true")]

    columns, rows = _run_cli(tmp_path, "sweep", sweep_cfg)
    assert columns == ["sweep_var", "sweep_value", "quantity", "method", "value", "stderr", "flag"]
    assert {float(r["sweep_value"]) for r in rows} == set(sweep_cfg["grid"])
