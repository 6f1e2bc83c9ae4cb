import argparse
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import pytest
from helpers import UNBOUNDED, number_fields

import icdscribe
from icdscribe.checkpoint import CKPT_FORMAT, CheckpointHeader
from icdscribe.cli import _build_parser
from icdscribe.config import CONFIG_FORMAT, RunConfig
from icdscribe.data import MANIFEST_FORMAT
from icdscribe.lm import LM_FORMAT
from icdscribe.metrics import EvalReport, UtteranceScore

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title):
    """The README text under the level-2 heading `title`, up to the next one."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end >= 0 else len(text)]


def subcommand_options():
    """{subcommand: the option strings its parser defines, without --help}."""
    (subparsers,) = [a for a in _build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    return {name: {s for a in parser._actions for s in a.option_strings
                   if s not in ("-h", "--help")}
            for name, parser in subparsers.choices.items()}


def options_named(text):
    return set(re.findall(r"--[a-z][a-z-]*", text))


def package_modules():
    return [m.name for m in pkgutil.iter_modules(icdscribe.__path__)]


def bound_constants():
    """(name, value) of every `MAX_` constant in the package's modules."""
    modules = [importlib.import_module(f"icdscribe.{name}") for name in package_modules()]
    return sorted({(name, value) for module in modules for name, value in vars(module).items()
                   if name.startswith("MAX_")})


@pytest.mark.parametrize("tag", [CONFIG_FORMAT, MANIFEST_FORMAT, LM_FORMAT, CKPT_FORMAT])
def test_artifacts_section_names_the_current_format(tag):
    assert f"`{tag}`" in section("Artifacts")


@pytest.mark.parametrize("name, value", bound_constants())
def test_config_rules_state_every_bound(name, value):
    artifacts = section("Artifacts")
    rules = artifacts[artifacts.index("Reading is strict") :]
    assert re.search(rf"(?<![\d,]){value:,}(?![\d,])", rules), name


def test_bounds_table_lists_every_within_declaration_once():
    rows = re.findall(r"^\| (run config|checkpoint header) \| `([\w.]+)` \| ([^|]+?) \|",
                      section("Artifacts"), re.M)
    declared = [(document, path, str(f.metadata.get("within")))
                for document, root in (("run config", RunConfig),
                                       ("checkpoint header", CheckpointHeader))
                for path, cls, f in number_fields(root)
                if f"{cls.__name__}.{f.name}" not in UNBOUNDED and not path.startswith("config.")]
    assert sorted(rows) == sorted(declared)


def cli_paragraph(command):
    """The one CLI reference paragraph that documents `command`."""
    paragraphs = [p for p in section("CLI reference").split("\n\n")
                  if p.startswith(f"`icdscribe {command} ")]
    assert len(paragraphs) == 1, command
    return paragraphs[0]


@pytest.mark.parametrize("command, defined", sorted(subcommand_options().items()))
def test_cli_reference_names_exactly_the_options_of_each_subcommand(command, defined):
    assert options_named(cli_paragraph(command)) == defined


def test_evaluate_paragraph_names_every_report_key():
    keys = {f.name for cls in (EvalReport, UtteranceScore) for f in dataclasses.fields(cls)}
    paragraph = cli_paragraph("evaluate")
    assert sorted(k for k in keys if f"`{k}`" not in paragraph) == []


def test_cli_reference_names_no_option_that_no_subcommand_defines():
    defined = set().union(*subcommand_options().values())
    assert options_named(section("CLI reference")) <= defined


@pytest.mark.parametrize("module", package_modules())
def test_module_map_has_a_row_for_every_module(module):
    assert f"\n| `icdscribe.{module}` | " in section("Module map")
