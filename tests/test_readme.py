from pathlib import Path

import pytest

from icdscribe.checkpoint import CKPT_FORMAT
from icdscribe.config import CONFIG_FORMAT
from icdscribe.data import MANIFEST_FORMAT
from icdscribe.lm import LM_FORMAT

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title):
    """The README text under the level-2 heading `title`, up to the next one."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end >= 0 else len(text)]


@pytest.mark.parametrize("tag", [CONFIG_FORMAT, MANIFEST_FORMAT, LM_FORMAT, CKPT_FORMAT])
def test_artifacts_section_names_the_current_format(tag):
    assert f"`{tag}`" in section("Artifacts")
