"""The tutorial's python blocks must execute, in order, as written.

Documentation that cannot run is documentation that has rotted; this test
concatenates every ```python``` block in docs/TUTORIAL.md and executes it.
"""

import re
from pathlib import Path

TUTORIAL = Path(__file__).resolve().parent.parent / "docs" / "TUTORIAL.md"


def test_tutorial_snippets_execute():
    text = TUTORIAL.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) >= 6, "tutorial lost its code blocks"
    code = "\n".join(blocks)
    code = "\n".join(line for line in code.splitlines() if line.strip() != "...")
    namespace = {}
    exec(compile(code, str(TUTORIAL), "exec"), namespace)  # noqa: S102
    # Spot-check the state the walkthrough builds up.
    record = namespace["record"]
    assert record.servers_used == ["U4"]
    assert namespace["service"].servers["U2"].has_title("movie-1")
    assert "U7" in namespace["service"].servers  # the expansion step ran


def test_tutorial_mentions_every_config_extension():
    text = TUTORIAL.read_text(encoding="utf-8")
    for flag in (
        "use_server_load_in_vra",
        "strict_qos_admission",
        "server_overrides",
        'PlacementConfig(kind="partial")',
    ):
        assert flag in text, flag
