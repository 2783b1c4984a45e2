import dataclasses
import datetime as dt
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import oracles
from portcall import codec, jsonl, synth
from portcall.codec import Positions, Statics
from portcall.columnar import Validated

UTC = dt.timezone.utc
RX0 = dt.datetime(2019, 9, 1, tzinfo=UTC)


# a buffered outcome as `expanded` and `as_fed` give it: without its raw line, which a static row does not keep
BUFFERED = codec.DecodeOutcome("buffered")


def messages(run) -> list:
    """The report of each row of a BlockRun, in order: a PositionReport or an `oracles.StaticReport`."""
    positions, statics = iter(oracles.reports(run.positions)), iter(oracles.reports(run.statics))
    return [next(statics) if static else next(positions) for static in run.static.tolist()]


def message_of(outcome):
    """The report of a position or static outcome's row."""
    (message,) = messages(outcome.run)
    return message


def with_messages(outcomes) -> list:
    """Outcomes with each one's run as the reports of its rows, so that those of separate decoders compare."""
    return [o if o.run is None else dataclasses.replace(o, run=messages(o.run)) for o in outcomes]


def _items(block) -> list:
    """Each item of `expanded(block)`, with True where a row gave it and False where an outcome did."""
    rows = [[BUFFERED, m] if isinstance(m, oracles.StaticReport) else [m] for m in messages(block)]
    items, done = [], 0
    for outcome, row in zip(block.outcomes, block.rows):
        items += [(item, True) for row_items in rows[done:row] for item in row_items] + [(*as_fed([outcome]), False)]
        done = row
    return items + [(item, True) for row_items in rows[done:] for item in row_items]


def expanded(block) -> list:
    """A DecodedBlock in order as `as_fed` gives outcomes: each position row as its PositionReport, each static
    row as BUFFERED and its StaticReport, and each outcome as `as_fed` gives it."""
    return [item for item, _ in _items(block)]


def kept(block, fed) -> list:
    """The outcomes among `fed`, those of feeding a block's lines one by one, that the block keeps as outcomes
    rather than as rows; `expanded(block)` must read as `as_fed(fed)`. They equal block.outcomes, raw lines
    included."""
    return [outcome for outcome, (_, row) in zip(fed, _items(block)) if not row]


def each_report(sink):
    """A sink of runs that hands each row of a run to `sink` as its PositionReport or StaticReport."""
    def run_sink(run, lines):
        for report in messages(run):
            sink(report)
    return run_sink


def as_run(reports) -> tuple:
    """Reports as a sink of runs receives them: their BlockRun and their stored documents, as JSONL."""
    reports = list(reports)
    return oracles.run_of(reports), "".join(jsonl.dumps(oracles.message_to_dict(r)) + "\n" for r in reports).encode()


def static_columns(reports) -> Statics:
    """Static reports as a Statics column set, in order."""
    return Statics(np.array([codec.epoch_us(r.timestamp) for r in reports], dtype=np.int64),
                   *(np.array([getattr(r, name) or 0 for r in reports], dtype=np.int64)
                     for name in ("mmsi", "ship_type", "length", "width")),
                   np.array([r.vessel_name for r in reports], dtype=object))


def columns(reports) -> Positions:
    """Position reports as the column set that validate takes, in order."""
    return oracles.of_rows(Positions, list(reports))


def validated_columns(messages) -> Validated:
    """Validated messages as the table that voyages take, in order."""
    messages = list(messages)
    return Validated(*columns(m.report for m in messages).columns(),
                     *(f.rule.column([getattr(m, f.row) for m in messages]) for f in Validated.own))


def as_fed(outcomes) -> list:
    """Outcomes of feed as `expanded` gives them: each position and static as its report, each buffered outcome as
    BUFFERED."""
    return [message_of(o) if o.kind in ("position", "static") else BUFFERED if o.kind == "buffered" else o
            for o in outcomes]


def decode_all(lines, rx=RX0):
    """Run lines through a fresh decoder as one block; returns (positions, statics, errors)."""
    lines = list(lines)
    dec = codec.MessageDecoder()
    block = dec.feed_block(*oracles.block(lines), [codec.epoch_us(rx)] * len(lines))
    positions, statics, errors = [], [], []
    for o in expanded(block) + dec.finish():
        if isinstance(o, codec.PositionReport):
            positions.append(o)
        elif isinstance(o, oracles.StaticReport):
            statics.append(o)
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
