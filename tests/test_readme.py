import re
from pathlib import Path

import pytest

from codedcache.cli import run
from codedcache.model import ValidationWarning

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_prints_what_its_comments_claim(capsys):
    code = _quick_start()
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    # A claim is the comment's text up to the first run of two spaces; a
    # trailing "..." claims the printed number to 1e-3.
    claims = [
        (re.split(r"\s{2,}", line.split("#", 1)[1].strip())[0], out)
        for line, out in zip(prints, printed)
        if "#" in line
    ]
    assert [claim for claim, _ in claims] == ["H=;I=1,2;J=", "(75.0, 25.0)", "5.6996...", "6.0"]
    for claim, out in claims:
        if claim.endswith("..."):
            assert float(out) == pytest.approx(float(claim[:-3]), abs=1e-3)
        else:
            assert out == claim


def _cli_examples() -> list[list[str]]:
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].split() for line in block.replace("\\\n", " ").splitlines()]


def test_readme_cli_examples_exit_zero(tmp_path, monkeypatch):
    # CI runs selftest itself.
    monkeypatch.chdir(README.parent)
    examples = [argv for argv in _cli_examples() if argv[1] != "selftest"]
    assert len(examples) == 9 and all(argv[0] == "codedcache" for argv in examples)
    for i, (_, *argv) in enumerate(examples):
        if "--out" in argv:
            at = argv.index("--out")
            del argv[at : at + 2]
        argv += ["--out", str(tmp_path / f"example{i}.out")]
        if "configs/gap3level.json" in argv:
            # gap3level has a level of degree 3 on K = 10 caches.
            with pytest.warns(ValidationWarning, match="does not divide"):
                assert run(argv) == 0, argv
        else:
            assert run(argv) == 0, argv
