import re
from pathlib import Path

import avfusion

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_names_resolve():
    """Every ``av.<name>`` in the README's Library block exists on avfusion."""
    library = README.read_text().split("## Library", 1)[1]
    block = library.split("```python", 1)[1].split("```", 1)[0]
    names = set(re.findall(r"\bav\.(\w+)", block))
    assert names
    assert sorted(n for n in names if not hasattr(avfusion, n)) == []
