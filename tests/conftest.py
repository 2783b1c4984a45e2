import datetime as dt
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from portcall import codec, synth
from portcall.codec import Positions
from portcall.columnar import Validated

UTC = dt.timezone.utc
RX0 = dt.datetime(2019, 9, 1, tzinfo=UTC)


def expanded(block) -> list:
    """A DecodedBlock in order: each row of its positions and each position outcome as its PositionReport, every
    other outcome as it is."""
    reports, items, done = list(block.positions), [], 0
    for outcome, row in zip(block.outcomes, block.rows):
        items += reports[done:row] + [outcome.message if outcome.kind == "position" else outcome]
        done = row
    return items + reports[done:]


def each_report(sink):
    """A positions_sink that hands each row of a slice to `sink` as its PositionReport."""
    def positions_sink(rows, lines):
        for report in rows:
            sink(report)
    return positions_sink


def columns(reports) -> Positions:
    """Position reports as the column set that validate takes, in order."""
    return Positions.of_reports(list(reports))


def validated_columns(messages) -> Validated:
    """Validated messages as the column set that voyages take, in order."""
    return Validated.of_messages(list(messages))


def as_fed(outcomes) -> list:
    """Outcomes of feed as `expanded` gives them: each position as its report."""
    return [o.message if o.kind == "position" else o for o in outcomes]


def decode_all(lines, rx=RX0):
    """Run lines through a fresh decoder as one block; returns (positions, statics, errors)."""
    lines = list(lines)
    dec = codec.MessageDecoder()
    block = dec.feed_block(lines, [codec.epoch_us(rx)] * len(lines))
    positions, statics, errors = [], [], []
    for o in expanded(block) + dec.finish():
        if isinstance(o, codec.PositionReport):
            positions.append(o)
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
