"""The shared harness of the golden fixtures, on temporary fixture files:
``extend`` only adds pins, and ``check`` names the pin that differs."""

import json

import pytest

import golden

CLI = {"cli": {"a": {"code": 0, "err": "", "out": "x"}}, "written": {"a": "w"}}
DEMOS = {"one.py": "1\n"}


def _dump(data) -> bytes:
    """A fixture's bytes as the fixtures are written: indent 1, sorted keys,
    a trailing newline."""
    return (json.dumps(data, indent=1, sort_keys=True) + "\n").encode("utf-8")


@pytest.mark.parametrize("pinned, got, want", [
    (CLI, {"cli": {"b": {"code": 1, "err": "e", "out": ""}}, "written": {}},
     {"cli": {**CLI["cli"], "b": {"code": 1, "err": "e", "out": ""}}, "written": {"a": "w"}}),
    (DEMOS, {"one.py": "1\n", "two.py": "2\n"}, {"one.py": "1\n", "two.py": "2\n"}),
])
def test_extend_adds_new_pins_and_keeps_the_pinned(tmp_path, pinned, got, want):
    fixture = tmp_path / "pins.json"
    fixture.write_bytes(_dump(pinned))
    golden.extend(str(fixture), got)
    assert fixture.read_bytes() == _dump(want)


@pytest.mark.parametrize("pinned, changed, name", [
    (CLI, {"cli": {"a": {"code": 0, "err": "", "out": "y"}}, "written": {"a": "w"}}, "cli a"),
    (DEMOS, {"one.py": "9\n"}, "one.py"),
])
def test_a_changed_pin_is_named_and_not_written(tmp_path, pinned, changed, name):
    fixture = tmp_path / "pins.json"
    fixture.write_bytes(_dump(pinned))
    with pytest.raises(AssertionError, match=f"^{name}$"):
        golden.check(str(fixture), changed)
    with pytest.raises(SystemExit) as exit_:
        golden.extend(str(fixture), changed)
    assert name in exit_.value.code.splitlines()  # a message, so the exit status is 1
    assert fixture.read_bytes() == _dump(pinned)
