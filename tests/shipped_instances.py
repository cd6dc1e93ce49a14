"""The shipped instance files in demos/instances, the one copy of the corpus."""

import functools
from pathlib import Path

from tracktree import load_instance

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "demos" / "instances"


@functools.cache
def _load_all():
    return {path.stem: load_instance(path) for path in sorted(INSTANCE_DIR.glob("*.ini"))}


def shipped():
    """Every shipped instance by file stem: E1-E4, crossing and fig1."""
    return dict(_load_all())


def group_instances():
    """The group-mode instances E1-E4 by file stem, in that order."""
    return {stem: spec for stem, spec in _load_all().items() if spec.mode == "group"}
