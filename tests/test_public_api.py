"""The package's public names: ``from multinav import *`` must import cleanly."""

from __future__ import annotations

import multinav


def test_all_is_sorted_and_every_name_resolves():
    assert multinav.__all__ == sorted(multinav.__all__)
    assert [name for name in multinav.__all__ if not hasattr(multinav, name)] == []
    namespace: dict = {}
    exec("from multinav import *", namespace)
    assert set(multinav.__all__) <= set(namespace)
