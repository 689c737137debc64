"""One way to run, check and extend the byte-identity pins under ``golden/``.

A fixture maps each section to ``{case key: pin}``; ``demo_outputs.json``
is one flat map.  Run as a script, each fixture module hands what the code
gives now to :func:`extend`, which only adds pins.  For a deliberate change
of output, delete the changed keys from the fixture first.
"""

import contextlib
import io
import json
import os
import sys

from autodiss.cli import main


def run(argv) -> dict:
    """Exit code, stdout and stderr of ``autodiss argv``, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


def run_forms(cases, out_file, pin=str) -> dict:
    """``cli`` and ``written`` sections: each ``(key, argv)`` case run in text
    and ``--json`` form, with ``pin`` of its stdout, stderr and ``out_file``."""
    cli, written = {}, {}
    for key, argv in cases:
        for label, prefix in (("text", []), ("json", ["--json"])):
            if os.path.exists(out_file):
                os.remove(out_file)
            got = run(prefix + argv)
            cli[f"{key}/{label}"] = {**got, "out": pin(got["out"]), "err": pin(got["err"])}
            if os.path.exists(out_file):
                with open(out_file, encoding="utf-8") as fh:
                    written[f"{key}/{label}"] = pin(fh.read())
    return {"cli": cli, "written": written}


def _sections(data: dict) -> dict:
    """``data``'s sections; a flat map of pins is one section named ``""``."""
    return data if all(isinstance(v, dict) for v in data.values()) else {"": data}


def _load(fixture: str) -> dict:
    with open(fixture, encoding="utf-8") as fh:
        return _sections(json.load(fh))


def check(fixture: str, got: dict, keys=None) -> None:
    """Assert that ``got`` has the fixture's sections, keys and pins; a failure
    names the section and key.  Given ``keys``, a flat fixture must hold just
    those, and only the cases in ``got`` are compared."""
    golden, got = _load(fixture), _sections(got)
    assert sorted(got) == sorted(golden), "sections"
    for section, pins in golden.items():
        assert sorted(keys or got[section]) == sorted(pins), f"keys of {section}"
        for key in got[section]:
            assert got[section][key] == pins[key], f"{section} {key}".strip()


def extend(fixture: str, got: dict) -> None:
    """Add the pins of ``got`` that ``fixture`` lacks; if a pinned value would
    change, write nothing and exit non-zero, naming each ``section key``."""
    pinned = _load(fixture) if os.path.exists(fixture) else {}
    changed = [f"{section} {key}".strip() for section, pins in _sections(got).items()
               for key, pin in pins.items() if pinned.get(section, {}).get(key, pin) != pin]
    if changed:
        sys.exit("these pins would change; delete them from the fixture for a deliberate "
                 "change of output:\n" + "\n".join(changed))
    data = {section: {**pins, **pinned.get(section, {})} for section, pins in _sections(got).items()}
    with open(fixture, "w", encoding="utf-8") as fh:
        json.dump(data.get("", data), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {fixture}")
