"""The demos run to the end; crossing_identity and edge_vectors assert
census results as they go."""

import pytest

from helpers import load_demo


@pytest.mark.parametrize(
    "name", ["bound_tables", "crossing_identity", "edge_vectors", "halving_search", "hull_reduction"]
)
def test_demo_runs(name, capsys):
    load_demo(name).main()
    assert capsys.readouterr().out
