import datetime as dt
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from portcall import codec, synth

UTC = dt.timezone.utc
RX0 = dt.datetime(2019, 9, 1, tzinfo=UTC)


def decode_all(lines, rx=RX0):
    """Run lines through a fresh decoder as one block; returns (positions, statics, errors)."""
    lines = list(lines)
    dec = codec.MessageDecoder()
    positions, statics, errors = [], [], []
    for o in dec.feed_block(lines, [rx] * len(lines)) + dec.finish():
        if o.kind == "position":
            positions.append(o.message)
        elif o.kind == "static":
            statics.append(o.message)
        elif o.kind == "error":
            errors.append(o)
    return positions, statics, errors


@pytest.fixture(scope="session")
def port_layout():
    return synth.build_port()


@pytest.fixture(scope="session")
def mixed_scenario():
    """Noisy three-day scenario shared by the validation/metrics tests."""
    scenario = synth.mixed_port_scenario(n_vessels=10, days=3, error_p=0.3, seed=11)
    lines, truth = synth.generate(scenario)
    return scenario, lines, truth


@pytest.fixture(scope="session")
def mixed_positions(mixed_scenario):
    _, lines, _ = mixed_scenario
    positions, statics, errors = decode_all(lines)
    assert not errors
    return positions, statics


@pytest.fixture(scope="session")
def clean_scenario():
    scenario = synth.mixed_port_scenario(n_vessels=6, days=2, error_p=0.0, seed=23)
    lines, truth = synth.generate(scenario)
    return scenario, lines, truth
