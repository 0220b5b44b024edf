"""Shared fixtures: counters on the steps an equilibrium result computes lazily."""

from functools import cached_property

import pytest

from pigouq.equilibria import EquilibriumResult


@pytest.fixture
def computed(monkeypatch):
    """``computed(name)``: a list that gets a result's matrix each time the result computes ``name``.

    ``name`` is a cached property of :class:`EquilibriumResult`: ``"_square"``
    is the full square pass that ``mixed`` and ``diagnostics`` read, and
    ``"_pure_selection"`` the dominance and pure-scan rules run on the
    result's own game. A value that :func:`~pigouq.equilibria.solve_family`
    or the over-k pass fills in from an earlier game is not computed, so
    it adds nothing.
    """

    def watch(name):
        seen = []
        real = vars(EquilibriumResult)[name].func

        def counting(self):
            seen.append(self.matrix)
            return real(self)

        view = cached_property(counting)
        view.__set_name__(EquilibriumResult, name)
        monkeypatch.setattr(EquilibriumResult, name, view)
        return seen

    return watch
