"""The public surface: every exported name resolves, the README lists it, and
every name the benchmark's tracer wraps still exists."""

import importlib
import importlib.util
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


def test_every_descriptor_key_is_in_the_readme_descriptor_section():
    from riskbands import cli

    text = README.read_text()
    section = text.split("### Experiment descriptor", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"`([\w-]+)`", section))
    names = {*cli._DESCRIPTOR, *cli._GRID, *cli._METHOD, *cli._FAMILIES}
    names.update(*cli._FAMILIES.values())
    assert sorted(names - listed) == []


def _load_tracing():
    """The benchmark's tracer module, loaded from its file as the benchmark has it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # the tracer patches these by name; a renamed or removed one breaks --trace 1
    tracing = _load_tracing()
    for mod_name, attr, _, _ in tracing.TARGETS:
        owner = importlib.import_module(mod_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (mod_name, attr)


def test_tracer_installs_and_uninstalls():
    import riskbands.bounds
    import riskbands.harness

    tracing = _load_tracing()
    originals = (riskbands.bounds.wsr_band, riskbands.harness.wsr_band,
                 riskbands.harness.MethodSpec.__dict__["upper_band"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert riskbands.harness.wsr_band is not originals[1]
        assert riskbands.harness.wsr_band.__wrapped__ is originals[1]
    finally:
        tracer.uninstall()
    assert (riskbands.bounds.wsr_band, riskbands.harness.wsr_band,
            riskbands.harness.MethodSpec.__dict__["upper_band"]) == originals
