import re
from pathlib import Path

import sumlearn

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_library_names():
    """The names the README "Library" section imports from ``sumlearn``."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    lines = re.findall(r"^from sumlearn import (.+)$", section, flags=re.M)
    return [name.strip() for line in lines for name in line.split(",")]


def test_namespace_is_the_readme_library_api():
    names = readme_library_names()
    assert names, "README has no 'from sumlearn import' line under ## Library"
    assert sorted(names) == sorted(sumlearn.__all__)
    for name in names:
        assert getattr(sumlearn, name) is not None
    public = {name for name in vars(sumlearn)
              if not name.startswith("_") and callable(getattr(sumlearn, name))}
    assert public == set(names)
