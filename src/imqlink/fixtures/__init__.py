"""Bundled example diagrams; see SOURCES.md for what each one depicts."""

from __future__ import annotations

from importlib import resources

FIXTURE_NAMES = (
    "hopf2",
    "sixthree",
    "trefoil",
    "fig8",
    "t22t24",
    "fig5l",
    "figt",
    "lprime",
    "ldprime",
)


def fixture_text(name: str) -> str:
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}")
    return (resources.files(__package__) / f"{name}.json").read_text("utf-8")
