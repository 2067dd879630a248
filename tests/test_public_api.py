"""The public surface: every exported name resolves and the README lists it."""

import re
from pathlib import Path

import riskbands

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_resolves():
    assert len(riskbands.__all__) == len(set(riskbands.__all__))
    for name in riskbands.__all__:
        assert getattr(riskbands, name) is not None


def test_every_public_name_is_in_the_readme_api_list():
    text = README.read_text()
    section = text.split("## Library API", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"`(\w+)`", section))
    assert sorted(set(riskbands.__all__) - listed) == []
