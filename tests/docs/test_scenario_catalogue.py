"""The scenario catalogue (``docs/scenarios.md``) matches the registry.

Every registered scenario has a ``### `name``` section, and the section's
**Knobs** list names exactly the builder's keyword parameters other than
the common ``horizon`` — so a knob added to or deleted from a builder
fails here until the catalogue follows.  Parenthesised remarks in a
Knobs list are commentary, not knobs.
"""

import inspect
import pathlib
import re

import pytest

from repro.testing import registered_scenarios, scenario

CATALOGUE = pathlib.Path(__file__).resolve().parent.parent.parent / "docs" / "scenarios.md"

_SECTION = re.compile(r"^### `([^`]+)`[ \t]*$", re.MULTILINE)
#: The Knobs bullet runs until the next bullet, blank line or heading.
_KNOBS = re.compile(r"^\* \*\*Knobs\*\*:(.*?)(?=^\* |^[ \t]*$|^#|\Z)", re.MULTILINE | re.DOTALL)


def documented_knobs():
    """``{scenario name: [knob, ...] or None}`` from the catalogue's sections."""
    text = CATALOGUE.read_text(encoding="utf-8")
    heads = list(_SECTION.finditer(text))
    sections = {}
    for index, head in enumerate(heads):
        end = heads[index + 1].start() if index + 1 < len(heads) else len(text)
        match = _KNOBS.search(text, head.end(), end)
        if match is None:
            sections[head.group(1)] = None
            continue
        listed = re.sub(r"\([^)]*\)", "", match.group(1))
        sections[head.group(1)] = re.findall(r"`(\w+)`", listed)
    return sections


def builder_knobs(name):
    parameters = inspect.signature(scenario(name).builder).parameters
    return [parameter for parameter in parameters if parameter != "horizon"]


SCENARIOS = registered_scenarios()


@pytest.mark.parametrize("name", SCENARIOS)
def test_every_scenario_documents_its_knobs(name):
    sections = documented_knobs()
    assert name in sections, f"docs/scenarios.md has no section for {name!r}"
    knobs = sections[name]
    assert knobs is not None, f"the {name!r} section has no **Knobs** list"
    assert len(knobs) == len(set(knobs)), f"{name!r} lists a knob twice: {knobs}"
    assert sorted(knobs) == sorted(builder_knobs(name))


def test_catalogue_lists_only_registered_scenarios():
    stale = set(documented_knobs()) - set(registered_scenarios())
    assert not stale, f"docs/scenarios.md documents unregistered scenarios: {sorted(stale)}"
