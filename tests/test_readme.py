"""README's library quickstart runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs_as_written():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library quickstart\n+```python\n(.*?)^```$", text, re.M | re.S)
    assert block is not None, "README has no python block under 'Library quickstart'"
    names: dict = {}
    exec(compile(block[1], "README.md (Library quickstart)", "exec"), names)
    # what its comments state
    m, rep = names["m"], names["rep"]
    assert (m.n, m.p, m.groups.q) == (16, 256, 32)
    assert rep.mu == 0.25 and abs(rep.nu - 1 / 17) < 1e-15 and rep.mu_group is not None
    assert len(names["result"].ranking) == 4 and 0 <= names["fdp"] <= 1
