"""The demos run to the end; crossing_identity and edge_vectors assert
census results as they go, and landing_growth checks every reduction
it makes and prints one digest of them all."""

import pytest

from helpers import load_demo

# The sha256 that landing_growth prints over the repr of every output
# set and trace of its 240 reductions, so any change to what the
# reduction returns shows here.  It may change only with a change to
# the trace format, and the change that alters it names the new digest
# in CHANGES.md.
LANDING_GROWTH_DIGEST = "bff4b1da42f7f4ef11b0d6de50a0f98f5039bc63165d8b5921415d465a4b85df"


@pytest.mark.parametrize(
    "name",
    ["bound_tables", "crossing_identity", "edge_vectors", "halving_search", "hull_reduction", "landing_growth"],
)
def test_demo_runs(name, capsys):
    assert not load_demo(name).main()
    out = capsys.readouterr().out
    assert out
    if name == "landing_growth":
        # 240 seeded random-disc sets with radii up to 2^40; without a
        # retry in the reduction, a gap in its proofs would raise here
        assert "240 sets, 0 failed checks" in out
        assert "sha256 of outputs and traces: %s\n" % LANDING_GROWTH_DIGEST in out
