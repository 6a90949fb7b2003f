"""Golden content hashes of generated L2 traces.

``golden_traces.json`` pins :meth:`Trace.content_hash` of
``generate_l2_trace`` for every SPEC-named profile at several lengths and
seeds.  The pins were recorded from the record-by-record generator before
generation became columnar; any change to the generator's draws, their
order, address composition or the merge shows up here.  Never regenerate the
file to make this test pass.
"""

import json
from pathlib import Path

import pytest

from repro.config import paper_l2_config
from repro.workloads import all_profiles, generate_l2_trace, get_profile

GOLDEN = json.loads((Path(__file__).parent / "golden_traces.json").read_text())


def _pins_of(name):
    return sorted(
        (int(key.split("/")[1]), int(key.split("/")[2]), digest)
        for key, digest in GOLDEN["pins"].items()
        if key.split("/")[0] == name
    )


def test_every_profile_is_pinned():
    pinned = {key.split("/")[0] for key in GOLDEN["pins"]}
    assert pinned == {profile.name for profile in all_profiles()}
    for name in ("mcf", "h264ref"):
        assert {n for n, _, _ in _pins_of(name)} == {1, 997, 20_000, 100_000}


@pytest.mark.parametrize("name", sorted(p.name for p in all_profiles()))
def test_generated_trace_matches_golden_hash(name):
    config = paper_l2_config()
    profile = get_profile(name)
    for num_accesses, seed, digest in _pins_of(name):
        trace = generate_l2_trace(profile, config, num_accesses=num_accesses, seed=seed)
        assert len(trace) == num_accesses
        assert trace.content_hash() == digest, (name, num_accesses, seed)
