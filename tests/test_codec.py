import datetime as dt
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import BUFFERED, as_fed, expanded, kept, message_of, with_messages
from portcall import codec

UTC = dt.timezone.utc
RX = dt.datetime(2019, 9, 12, 14, 28, 0, tzinfo=UTC)


def feed_one(line, rx=RX, decoder=None):
    dec = decoder or codec.MessageDecoder()
    outcomes = dec.feed(line, rx)
    assert len(outcomes) == 1
    return outcomes[0]


def checked(body: str) -> str:
    """body followed by its NMEA checksum."""
    return f"{body}*{oracles.xor_checksum(body):02X}"


class TestParseSentence:
    """What feed makes of a line's sentence fields: the error name and detail it gives, or no error."""

    def test_valid_sentence(self):
        line = oracles.position_sentence(mmsi=123456789, navstat=0, rot_raw=0, sog_raw=0,
                                         lon_raw=0, lat_raw=0, cog_raw=0, heading_raw=0)
        outcome = feed_one(line)
        assert (outcome.kind, outcome.error, outcome.detail) == ("position", None, None)
        assert message_of(outcome).mmsi == 123456789

    def test_checksum_computed_by_hand(self):
        body = "AIVDM,1,1,,A,13@ndh@01W1CwHhCcK4t=Ih00000,0"
        byhand = 0
        for ch in body:
            byhand ^= ord(ch)
        outcome = feed_one(f"!{body}*{byhand:02X}")
        assert (outcome.kind, outcome.error) == ("position", None)
        assert message_of(outcome).mmsi == 219000001

    def test_bad_checksum(self):
        line = oracles.position_sentence(mmsi=1, navstat=0, rot_raw=0, sog_raw=0,
                                         lon_raw=0, lat_raw=0, cog_raw=0, heading_raw=0)
        declared = int(line[-2:], 16)
        outcome = feed_one(line[:-2] + f"{declared ^ 1:02X}")
        assert outcome.error == "bad_checksum"
        assert outcome.detail == f"computed {declared:02X}, declared {declared ^ 1:02X}"

    def test_empty_line(self):
        outcome = feed_one("")
        assert (outcome.error, outcome.detail) == ("malformed", "empty line")

    MALFORMED_BODIES = {
        "AIVDM,1,1,,A,0": "expected 7 comma-separated fields, got 6",
        "AIVDM,0,1,,A,0,0": "fragment numbers must be >= 1",
        "AIVDM,1,2,,A,0,0": "fragment index 2 > count 1",
        "AIVDM,1,1,,A,0,7": "fill bits 7 outside 0..5",
        "AIVDM,2,1,,A,0,0": "multi-sentence group without a message id",
        "AIVDM,1,1,,A,,0": "empty payload",
        "AIVDM,x,1,,A,0,0": "non-integer fragment/fill field",
    }

    @pytest.mark.parametrize("body", MALFORMED_BODIES)
    def test_malformed_with_valid_checksum(self, body):
        outcome = feed_one(f"!{body}*{oracles.xor_checksum(body):02X}")
        assert (outcome.error, outcome.detail) == ("malformed", self.MALFORMED_BODIES[body])

    MALFORMED_LINES = {
        "AIVDM,1,1,,A,0,0*23": "line does not start with '!' or '$'",
        "!AIVDM,1,1,,A,0,0": "missing or short checksum field",
        "!AIVDM,1,1,,A,0,0*ZZ": "checksum 'ZZ' is not hex",
    }

    @pytest.mark.parametrize("line", MALFORMED_LINES)
    def test_malformed_structure(self, line):
        outcome = feed_one(line)
        assert (outcome.error, outcome.detail) == ("malformed", self.MALFORMED_LINES[line])

    POSITION = oracles.position_sentence(mmsi=1, navstat=0, rot_raw=0, sog_raw=0, lon_raw=0, lat_raw=0, cog_raw=0,
                                         heading_raw=0)
    LOOSE = {  # fields that Python's int() reads, or a channel outside A, B, 1, 2 and none
        "!" + checked(POSITION[1:-3].replace(",1,1,", ", 1,1,")): "non-integer fragment/fill field",
        "!" + checked(POSITION[1:-3].replace(",1,1,", ",1,+1,")): "non-integer fragment/fill field",
        "!" + checked(POSITION[1:-3].replace(",A,", ",ZZ,")): "channel 'ZZ' is not A, B, 1 or 2",
        f"\\{checked('c:1_568_298_480')}\\{POSITION}": "TAG block time 'c:1_568_298_480' is not an integer",
        f"\\{checked('c: 1568298480')}\\{POSITION}": "TAG block time 'c: 1568298480' is not an integer",
        f"\\{checked('c:+1568298480')}\\{POSITION}": "TAG block time 'c:+1568298480' is not an integer",
    }

    @pytest.mark.parametrize("line", LOOSE)
    def test_what_int_reads_is_malformed_through_feed_and_feed_block(self, line):
        """Each number is ASCII digits and the channel one _BLOCK_LINE admits, in the line parser too."""
        outcome = feed_one(line)
        assert (outcome.error, outcome.detail) == ("malformed", self.LOOSE[line])
        block = codec.MessageDecoder().feed_block(*oracles.block([line]), [0])
        assert len(block) == 0 and block.outcomes == [outcome]

    def test_invalid_armor_character(self):
        body = "AIVDM,1,1,,A,xyz,0"  # 'x' is outside the alphabet
        outcome = feed_one(f"!{body}*{oracles.xor_checksum(body):02X}")
        assert (outcome.error, outcome.detail) == ("malformed", "payload character 'x' outside the armoring alphabet")


class TestArmoring:
    def test_char_zero_is_six_zero_bits(self):
        assert codec._SIXBIT[ord("0")] == 0

    def test_char_w_is_six_one_bits(self):
        # ord('w')=119 -> 71 -> 71-8 = 63 = 0b111111
        assert codec._SIXBIT[ord("w")] == 0b111111

    def test_fill_bits_dropped(self):
        """A position's 28 characters with one fill bit hold 167 bits, one short of the layout."""
        payload, _ = oracles.bits_to_payload(oracles.position_bits(
            mmsi=1, navstat=0, rot_raw=0, sog_raw=0, lon_raw=0, lat_raw=0, cog_raw=0, heading_raw=0))
        outcome = feed_one(oracles.sentence(payload, 1))
        assert (outcome.error, outcome.detail) == ("truncated_buffer", "position report needs 168 bits, got 167")

    def test_bijection(self):
        assert len(codec.ARMOR_ALPHABET) == 64
        assert len(set(codec.ARMOR_ALPHABET)) == 64
        for v, ch in enumerate(codec.ARMOR_ALPHABET):
            assert codec._SIXBIT[ord(ch)] == v
            assert oracles.armor_char(v) == ch

    def test_under_six_bits_has_no_type(self):
        """A payload of one character and a fill bit holds no whole type field."""
        outcome = feed_one(oracles.sentence("w", 1))
        assert (outcome.kind, outcome.detail) == ("skipped", "unsupported message type -1")


def decode_static_group(**kwargs):
    """The static report that feeding the two fragments oracles.static_sentences(**kwargs) yields."""
    dec = codec.MessageDecoder()
    first, second = oracles.static_sentences(**kwargs)
    assert feed_one(first, decoder=dec).kind == "buffered"
    outcome = feed_one(second, decoder=dec)
    assert outcome.kind == "static", outcome
    return message_of(outcome)


class TestAssembly:
    def _fragments(self):
        return oracles.static_sentences(mmsi=219000001, name="BOXSHIP", ship_type=71)

    def test_two_fragment_static(self):
        report = decode_static_group(mmsi=219000001, name="BOXSHIP", ship_type=71)
        assert report.mmsi == 219000001
        assert report.vessel_name == "BOXSHIP"
        assert report.ship_type == 71
        assert report.timestamp == RX

    def test_missing_fragment(self):
        """A group without its first fragment never decodes; it times out at the end of input."""
        dec = codec.MessageDecoder()
        second = self._fragments()[1]
        assert feed_one(second, decoder=dec).kind == "buffered"
        leftovers = dec.finish()
        assert [(o.error, o.detail, o.raw) for o in leftovers] == [("timeout", "1/2 fragments at end of input", second)]
        assert dec.counts["errors"] == 1

    def test_duplicate_fragment(self):
        dec = codec.MessageDecoder()
        first, second = self._fragments()
        feed_one(first, decoder=dec)
        outcome = feed_one(first, decoder=dec)
        assert (outcome.kind, outcome.error) == ("error", "duplicate_fragment")
        assert feed_one(second, decoder=dec).kind == "static"  # the group still completes

    def test_stateful_assembler_times_out(self):
        dec = codec.MessageDecoder()
        first = oracles.static_sentences(mmsi=1, name="X", ship_type=70)[0]
        outcome = feed_one(first, decoder=dec)
        assert outcome.kind == "buffered"
        lone = oracles.position_sentence(mmsi=2, navstat=0, rot_raw=0, sog_raw=10,
                                         lon_raw=0, lat_raw=0, cog_raw=0, heading_raw=0)
        # the window is 30 s: a line 30 s later keeps the group, one a minute later evicts it
        assert [o.kind for o in dec.feed(lone, RX + dt.timedelta(seconds=30))] == ["position"]
        outcomes = dec.feed(lone, RX + dt.timedelta(seconds=60))
        assert [o.kind for o in outcomes] == ["error", "position"]
        assert (outcomes[0].error, outcomes[0].detail, outcomes[0].raw) == ("timeout", "1/2 fragments within window",
                                                                            first)
        assert dec.finish() == []

    def test_finish_flushes_pending(self):
        dec = codec.MessageDecoder()
        dec.feed(oracles.static_sentences(mmsi=1, name="X", ship_type=70)[0], RX)
        leftovers = dec.finish()
        assert len(leftovers) == 1
        assert leftovers[0].error == "timeout"


class TestDecodePosition:
    def _decode(self, **kwargs):
        line = oracles.position_sentence(**kwargs)
        outcome = feed_one(line)
        assert outcome.kind == "position", outcome
        return message_of(outcome)

    def test_known_fields(self):
        # raw lat +5400000 is 9 degrees; raw sog 123 is 12.3 knots
        msg = self._decode(mmsi=123456789, navstat=5, rot_raw=0, sog_raw=123,
                           lon_raw=-5400000, lat_raw=5400000, cog_raw=1800, heading_raw=42)
        assert msg.mmsi == 123456789
        assert msg.lat == 9.0
        assert msg.lon == -9.0
        assert msg.sog == 12.3
        assert msg.cog == 180.0
        assert msg.heading == 42.0
        assert msg.navstat == 5
        assert msg.timestamp == RX

    def test_zero_lat_is_zero_degrees(self):
        assert self._decode(mmsi=1, navstat=0, rot_raw=0, sog_raw=0,
                            lon_raw=0, lat_raw=0, cog_raw=0, heading_raw=0).lat == 0.0

    def test_sentinels_map_to_none(self):
        msg = self._decode(mmsi=1, navstat=15, rot_raw=-128, sog_raw=1023,
                           lon_raw=0, lat_raw=0, cog_raw=3600, heading_raw=511)
        assert msg.sog is None
        assert msg.cog is None
        assert msg.heading is None
        assert msg.rot is None

    def test_position_unavailable_rejected(self):
        # 91 degrees / 181 degrees sentinels fail the range check
        line = oracles.position_sentence(mmsi=1, navstat=0, rot_raw=0, sog_raw=0,
                                         lon_raw=0, lat_raw=91 * 600000, cog_raw=0, heading_raw=0)
        outcome = feed_one(line)
        assert outcome.kind == "error"
        assert outcome.error == "out_of_range_position"
        assert outcome.detail == "lat=91.00000 lon=0.00000"  # errors.jsonl holds this text

    def test_truncated(self):
        outcome = feed_one(oracles.sentence("10", 0))
        assert (outcome.error, outcome.detail) == ("truncated_buffer", "position report needs 168 bits, got 12")

    def test_bits_past_the_layout_are_ignored(self):
        """Bits past a position's 168, the two set bits of "w0" with 4 fill bits among them, read as nothing."""
        payload, _ = oracles.bits_to_payload(oracles.position_bits(
            msg_type=1, mmsi=366000001, navstat=5, rot_raw=-3, sog_raw=17, lon_raw=-7000000, lat_raw=2000000,
            cog_raw=2700, heading_raw=268))
        expected = message_of(feed_one(oracles.sentence(payload, 0)))
        assert message_of(feed_one(oracles.sentence(payload + "w0", 4))) == expected
        assert expected.rot == -3 and expected.lon == -7000000 / 600000.0


class TestDecodeStatic:
    def test_ship_type_identity(self):
        line_pair = oracles.static_sentences(mmsi=7, name="FERRY", ship_type=70)
        dec = codec.MessageDecoder()
        outcomes = dec.feed(line_pair[0], RX) + dec.feed(line_pair[1], RX)
        static = [o for o in outcomes if o.kind == "static"]
        assert len(static) == 1
        assert message_of(static[0]).ship_type == 70

    def test_all_padding_name_is_empty(self):
        assert decode_static_group(mmsi=7, name="", ship_type=60).vessel_name == ""

    def test_dimensions(self):
        report = decode_static_group(mmsi=7, name="A", ship_type=70,
                                     to_bow=120, to_stern=30, to_port=12, to_starboard=10)
        assert report.length == 150
        assert report.width == 22

    @pytest.mark.parametrize("ship_type, read", [(0, 0), (99, 99), (100, 0), (255, 0)])
    def test_reserved_ship_types_read_as_zero(self, ship_type, read):
        assert decode_static_group(mmsi=7, name="A", ship_type=ship_type).ship_type == read

    @pytest.mark.parametrize("sides, length, width", [
        ((0, 0, 0, 0), None, None), ((0, 30, 0, 0), 30, None), ((120, 0, 0, 0), 120, None),
        ((0, 0, 0, 10), None, 10), ((0, 0, 12, 0), None, 12), ((511, 511, 63, 63), 1022, 126)])
    def test_one_side_of_a_dimension_suffices(self, sides, length, width):
        report = decode_static_group(mmsi=7, name="A", ship_type=70, **dict(zip(
            ("to_bow", "to_stern", "to_port", "to_starboard"), sides)))
        assert (report.length, report.width) == (length, width)

    @pytest.mark.parametrize("name, read", [("TRAILING   ", "TRAILING"), ("AT@SIGN", "AT@SIGN"), ("A B@ @", "A B"),
                                            (" !\"#$%&'()*+,-./0123", " !\"#$%&'()*+,-./0123"), ("[\\]^_", "[\\]^_")])
    def test_name_text(self, name, read):
        """Trailing '@' padding and spaces are cut; the 6-bit characters read as themselves."""
        assert decode_static_group(mmsi=7, name=name, ship_type=70).vessel_name == read

    @pytest.mark.parametrize("nbits", [240, 257, 269])
    def test_short_static_reads_no_dimensions(self, nbits):
        """A type 5 of 240-269 bits lacks a whole set of dimensions, so its set bits past bit 240 read as none."""
        bits = (oracles.static_bits(mmsi=7, name="SHORT", ship_type=70, to_bow=120, to_stern=30, to_port=12,
                                    to_starboard=10)[:240] + "1" * 30)[:nbits]
        payload, fill = oracles.bits_to_payload(bits)
        dec = codec.MessageDecoder()
        assert feed_one(oracles.sentence(payload[:20], 0, 2, 1, 3), decoder=dec).kind == "buffered"
        report = message_of(feed_one(oracles.sentence(payload[20:], fill, 2, 2, 3), decoder=dec))
        assert (report.mmsi, report.vessel_name, report.ship_type) == (7, "SHORT", 70)
        assert (report.length, report.width) == (None, None)

    def test_truncated(self):
        payload = oracles.bits_to_payload(oracles.static_bits(mmsi=7, name="A", ship_type=70)[:239])[0]
        outcome = feed_one(oracles.sentence(payload, 1))
        assert (outcome.error, outcome.detail) == ("truncated_buffer", "static report needs at least 240 bits, got 239")


class TestTagBlock:
    def test_timestamp_extracted(self):
        inner = oracles.position_sentence(mmsi=1, navstat=0, rot_raw=0, sog_raw=0,
                                          lon_raw=0, lat_raw=0, cog_raw=0, heading_raw=0)
        line = oracles.tag_block(inner, 1568298480)
        ts, rest = codec.split_tag_block(line)
        assert ts == dt.datetime.fromtimestamp(1568298480, tz=UTC)
        assert rest == inner
        # the decoder prefers the tag time over the caller-supplied time
        outcome = feed_one(line, rx=RX)
        assert message_of(outcome).timestamp == ts

    def test_millisecond_tags(self):
        inner = oracles.position_sentence(mmsi=1, navstat=0, rot_raw=0, sog_raw=0,
                                          lon_raw=0, lat_raw=0, cog_raw=0, heading_raw=0)
        line = oracles.tag_block(inner, 1568298480123)
        ts, _ = codec.split_tag_block(line)
        assert ts == dt.datetime.fromtimestamp(1568298480, tz=UTC)

    def test_untagged_passthrough(self):
        assert codec.split_tag_block("!AIVDM,x") == (None, "!AIVDM,x")

    def test_bad_tag_checksum(self):
        with pytest.raises(codec.Malformed):
            codec.split_tag_block("\\c:123*00\\!AIVDM,x")


class TestEveryLineAccounted:
    def test_outcome_per_line(self, mixed_scenario):
        _, lines, _ = mixed_scenario
        dec = codec.MessageDecoder()
        kinds = {"position": 0, "static": 0, "buffered": 0, "skipped": 0, "error": 0}
        for line in lines:
            outcomes = dec.feed(line, RX)
            assert len(outcomes) >= 1
            kinds[outcomes[-1].kind] += 1
        assert sum(kinds.values()) == len(lines)
        assert kinds["error"] == 0
        assert kinds["position"] > 0
        assert kinds["static"] > 0  # completed two-part groups
        counts = dec.counts
        assert counts["lines"] == len(lines)
        assert counts["positions"] == kinds["position"]

    def test_unsupported_type_counted_not_error(self):
        # type 4 (base station) header with plausible length
        payload, fill = oracles.bits_to_payload(oracles.pack_bits([(4, 6), (0, 162)]))
        outcome = feed_one(oracles.sentence(payload, fill))
        assert outcome.kind == "skipped"

    def test_garbage_line_is_categorized(self):
        outcome = feed_one("not nmea at all")
        assert outcome.kind == "error"
        assert outcome.error == "malformed"
        assert outcome.raw == "not nmea at all"


@settings(max_examples=300, deadline=None)
@given(
    mmsi=st.integers(min_value=0, max_value=999999999),
    navstat=st.integers(min_value=0, max_value=15),
    rot_raw=st.integers(min_value=-128, max_value=127),
    sog_raw=st.integers(min_value=0, max_value=1023),
    lon_raw=st.integers(min_value=-107999999, max_value=107999999),
    lat_raw=st.integers(min_value=-53999999, max_value=53999999),
    cog_raw=st.integers(min_value=0, max_value=4095),
    heading_raw=st.integers(min_value=0, max_value=511),
    msg_type=st.sampled_from((1, 2, 3)),
)
def test_roundtrip_property(mmsi, navstat, rot_raw, sog_raw, lon_raw, lat_raw, cog_raw, heading_raw, msg_type):
    """Encoding with the independent oracle and decoding recovers every field."""
    line = oracles.position_sentence(
        msg_type=msg_type, mmsi=mmsi, navstat=navstat, rot_raw=rot_raw, sog_raw=sog_raw,
        lon_raw=lon_raw, lat_raw=lat_raw, cog_raw=cog_raw, heading_raw=heading_raw,
    )
    outcome = feed_one(line)
    assert outcome.kind == "position"
    msg = message_of(outcome)
    assert msg.mmsi == mmsi
    assert msg.navstat == navstat
    assert msg.lat == lat_raw / 600000.0
    assert msg.lon == lon_raw / 600000.0
    assert msg.sog == (None if sog_raw == 1023 else sog_raw / 10.0)
    assert msg.cog == (None if cog_raw >= 3600 else cog_raw / 10.0)
    assert msg.heading == (None if heading_raw > 359 else float(heading_raw))
    assert msg.rot == (None if rot_raw == -128 else rot_raw)


def test_single_character_corruption_never_silent():
    rng = random.Random(99)
    line = oracles.position_sentence(mmsi=538001234, navstat=1, rot_raw=3, sog_raw=5,
                                     lon_raw=13990000, lat_raw=20670000, cog_raw=900, heading_raw=77)
    reference = message_of(feed_one(line))
    for _ in range(300):
        pos = rng.randrange(len(line))
        repl = chr(rng.randrange(33, 120))
        if repl == line[pos]:
            continue
        corrupted = line[:pos] + repl + line[pos + 1 :]
        outcome = feed_one(corrupted)
        if outcome.kind == "position":
            assert message_of(outcome) != reference
        else:
            assert outcome.kind == "error"


def _field(width: int, signed: bool = False, *specials: int) -> st.SearchStrategy:
    """Values of a `width`-bit field: its extremes, `specials` (sentinels) and anything between."""
    low, high = (-(1 << (width - 1)), (1 << (width - 1)) - 1) if signed else (0, (1 << width) - 1)
    return st.sampled_from((low, high, 0) + specials) | st.integers(low, high)


position_bit_strings = st.builds(
    lambda tail, **fields: oracles.position_bits(**fields) + tail,
    tail=st.sampled_from(("", "0", "1" * 6)),  # bits past the layout, or fill bits
    msg_type=st.sampled_from((1, 2, 3)), mmsi=_field(30), navstat=_field(4), rot_raw=_field(8, True, -128),
    sog_raw=_field(10, False, 1023), lon_raw=_field(28, True, 108000000, -108000000, 181 * 600000),
    lat_raw=_field(27, True, 54000000, -54000000, 91 * 600000), cog_raw=_field(12, False, 3600),
    heading_raw=_field(9, False, 511), second=_field(6), radio=_field(19),
)
static_bit_strings = st.integers(240, 424).flatmap(
    lambda n: st.integers(0, (1 << (n - 6)) - 1).map(lambda rest: format(5, "06b") + format(rest, f"0{n - 6}b")))


@settings(max_examples=300, deadline=None)
@given(bits=position_bit_strings | static_bit_strings, cut=st.integers(1, 70), fill=st.integers(0, 5))
def test_feed_and_feed_block_decode_alike(bits, cut, fill):
    """feed and feed_block give the same outcomes for a position, or for a type 5 split in two fragments, of any
    length and fill: feed reads its one payload through the block's own reader (_read_rows), so this checks what
    each path does around it, the length checks, the static's missing dimensions and the fill bits."""
    payload, true_fill = oracles.bits_to_payload(bits)
    if bits.startswith(format(5, "06b")):
        cut = min(cut, len(payload) - 1)
        lines = [oracles.sentence(payload[:cut], fill, 2, 1, 4), oracles.sentence(payload[cut:], true_fill, 2, 2, 4)]
    else:
        lines = [oracles.sentence(payload, true_fill)]
    per_line = codec.MessageDecoder()
    expected = [o for line in lines for o in per_line.feed(line, RX)]
    block = codec.MessageDecoder()
    assert expanded(block.feed_block(*oracles.block(lines), [codec.epoch_us(RX)] * len(lines))) == as_fed(expected)
    assert expected[-1].kind in ("position", "static", "error")


# --- the encoder ---------------------------------------------------------------

# TAG times in whole seconds: 9 and 10 digits, and a few shorter or before 1970
tag_seconds = (st.sampled_from((0, 7, -1, -10**9, 10**8, 10**9 - 1, 10**9, 10**10 - 1))
               | st.integers(10**8, 10**10 - 1))
# (TAG time, then the fields of _POSITION_LAYOUT after the type, as sent), latitude and longitude on the globe,
# and COG and heading "not available" as the one sentinel the encoder writes for each (3600 and 511)
position_rows = st.tuples(tag_seconds, _field(30), _field(4), _field(8, True, -128), _field(10, False, 1023),
                          st.integers(-108000000, 108000000), st.integers(-54000000, 54000000),
                          st.sampled_from((0, 3599, 3600)) | st.integers(0, 3600),
                          st.sampled_from((0, 359, 511)) | st.integers(0, 359))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(position_rows, max_size=30))
def test_encoded_positions_decode_to_their_table(rows):
    """encode_positions writes back the oracle's lines from the rows the block decodes of them, NaN fields
    included, and feed reads the lines as the rows' reports."""
    lines = [oracles.tag_block(oracles.position_sentence(
        mmsi=row[1], navstat=row[2], rot_raw=row[3], sog_raw=row[4], lon_raw=row[5], lat_raw=row[6], cog_raw=row[7],
        heading_raw=row[8], second=row[0] % 60), row[0]) for row in rows]
    block = codec.MessageDecoder().feed_block(*oracles.block(lines), np.zeros(len(lines), dtype=np.int64))
    assert block.outcomes == []
    assert block.positions.time_us.tolist() == [row[0] * 1_000_000 for row in rows]
    assert codec.encode_positions(block.positions) == lines
    fed = codec.MessageDecoder()
    assert [message_of(o) for line in lines for o in fed.feed(line, RX)] == oracles.reports(block.positions)


def written_name(name: str) -> str:
    """A vessel name as a type 5 report carries it and the decoder reads it back: upper case, at most 20
    characters, '@' for a character 6-bit text cannot hold, trailing '@' and spaces dropped."""
    return "".join(u if len(u := c.upper()) == 1 and " " <= u <= "_" else "@" for c in name[:20]).rstrip("@ ")


static_rows = st.tuples(tag_seconds, st.integers(0, 9), _field(30), st.text(max_size=24), st.integers(0, 99),
                        st.none() | st.integers(0, 1022), st.none() | st.integers(0, 126))


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(static_rows, max_size=12))
def test_encoded_statics_decode_to_their_reports(rows):
    """encode_statics is the inverse of the block's type 5 pairs and of feed."""
    reports = [oracles.StaticReport(mmsi, name, ship_type, length, width, codec.from_epoch_us(seconds * 1_000_000))
               for seconds, _, mmsi, name, ship_type, length, width in rows]
    lines = codec.encode_statics(oracles.of_rows(codec.Statics, reports), [row[1] for row in rows])
    want = [oracles.StaticReport(r.mmsi, written_name(r.vessel_name), r.ship_type, r.length or None, r.width or None,
                               r.timestamp) for r in reports]
    block = codec.MessageDecoder().feed_block(*oracles.block(lines), np.zeros(len(lines), dtype=np.int64))
    assert (block.outcomes, oracles.reports(block.statics)) == ([], want)
    assert expanded(block) == [item for report in want for item in (BUFFERED, report)]
    fed = codec.MessageDecoder()
    assert [message_of(o) for line in lines for o in fed.feed(line, RX) if o.kind == "static"] == want


def test_encoded_statics_are_the_oracles():
    report = oracles.StaticReport(219000001, "Testbed 1", 70, 120, 20, RX)
    assert codec.encode_statics(oracles.of_rows(codec.Statics, [report]), [3]) == [
        oracles.tag_block(sentence, int(RX.timestamp())) for sentence in oracles.static_sentences(
            message_id=3, first_chars=36, mmsi=219000001, name="TESTBED 1", ship_type=70, to_bow=60, to_stern=60,
            to_port=10, to_starboard=10, epfd=1)]


def test_static_encoder_takes_only_one_digit_message_ids():
    report = oracles.StaticReport(1, "X", 70, None, None, RX)
    with pytest.raises(ValueError):
        codec.encode_statics(oracles.of_rows(codec.Statics, [report]), [10])


# --- the block path ------------------------------------------------------------


def _position_payload(rng, **fields):
    """A 28-character type 1-3 payload with random fields, overridden by `fields`."""
    values = dict(
        msg_type=rng.choice((1, 2, 3)),
        mmsi=rng.randrange(1 << 30),
        navstat=rng.randrange(16),
        rot_raw=rng.choice((-128, rng.randrange(-127, 128))),
        sog_raw=rng.choice((1023, rng.randrange(1023))),
        lon_raw=rng.choice((-108000000, 108000000, rng.randrange(-108000000, 108000001))),
        lat_raw=rng.choice((-54000000, 54000000, rng.randrange(-54000000, 54000001))),
        cog_raw=rng.choice((3600, rng.randrange(4096))),
        heading_raw=rng.choice((511, rng.randrange(512))),
    )
    values.update(fields)
    payload, fill = oracles.bits_to_payload(oracles.position_bits(**values))
    assert (len(payload), fill) == (28, 0)
    return payload


def _with_checksum(line: str, cs: int) -> str:
    return f"{line[:-2]}{cs:02X}"


def _static_fragments(rng, bits: str, message_id: int, channel: str = "A") -> list[str]:
    """A two-sentence group carrying `bits`, split at a random character, with random talkers and fragment 1 fill."""
    payload, fill = oracles.bits_to_payload(bits)
    cut = rng.randrange(1, len(payload))
    talkers = [rng.choice(("AIVDM", "AIVDO")) for _ in range(2)]
    return [oracles.sentence(payload[:cut], rng.randrange(6), 2, 1, message_id, channel, talkers[0]),
            oracles.sentence(payload[cut:], fill, 2, 2, message_id, channel, talkers[1])]


STATIC_NAMES = ("", "BLOCK TEST", "TRAILING   ", "AT@SIGN", "ABCDEFGHIJKLMNOPQRST", " !\"#$%&'()*+,-./0123", "[\\]^_ 9")


def _static_bits(rng) -> str:
    """A type 5 report with a name from STATIC_NAMES, any ship type and dimensions, zero among them."""
    dims = {side: rng.choice((0, rng.randrange(1 << width)))
            for side, width in (("to_bow", 9), ("to_stern", 9), ("to_port", 6), ("to_starboard", 6))}
    return oracles.static_bits(mmsi=rng.randrange(1 << 30), name=rng.choice(STATIC_NAMES),
                               ship_type=rng.choice((rng.randrange(100), rng.randrange(100, 256))), **dims)


def _static_hazard(rng, message_id: int, channel: str) -> list[tuple[str, int]]:
    """Static fragments with their receive time offsets in seconds: a pair the block path decodes, or one of
    the cases it must hand to feed or get right."""
    first, second = _static_fragments(rng, _static_bits(rng), message_id, channel)
    case = rng.randrange(10)
    if case == 0:  # fragment 2 more than the 30 s window after fragment 1
        return [(first, 0), (second, rng.randrange(31, 90))]
    if case == 1:  # the key is still pending from an orphan fragment
        orphan = _static_fragments(rng, _static_bits(rng), message_id, channel)[rng.randrange(2)]
        return [(orphan, 0), (first, 0), (second, 0)]
    if case == 2:  # fragments in reverse order
        return [(second, 0), (first, 0)]
    if case == 3:  # a line between the fragments, or interleaved with a pair on another channel
        if rng.random() < 0.5:
            return [(first, 0), ("!AIVDM", 0), (second, 0)]
        a, b = _static_fragments(rng, _static_bits(rng), message_id, "B" if channel != "B" else "A")
        return [(first, 0), (a, 0), (second, 0), (b, 0)]
    if case == 4:  # fragment 2 with a bad checksum
        return [(first, 0), (_with_checksum(second, int(second[-2:], 16) ^ rng.randrange(1, 256)), 0)]
    if case == 5:  # a joined payload of 240-269 bits, or of type 1
        if rng.random() < 0.5:
            bits = _static_bits(rng)[: rng.randrange(240, 270)]
        else:
            bits = oracles.position_bits(msg_type=1, mmsi=rng.randrange(1 << 30), navstat=0, rot_raw=0, sog_raw=0,
                                         lon_raw=0, lat_raw=0, cog_raw=0, heading_raw=0) + "0" * rng.randrange(120)
        return [(line, 0) for line in _static_fragments(rng, bits, message_id, channel)]
    return [(first, 0), (second, rng.randrange(31))]


def _block_corpus(seed: int, n: int = 400):
    """Lines and receive times mixing the block path's shapes with everything it must hand to feed."""
    rng = random.Random(seed)
    epoch0 = 1568298480
    lines, rxs = [], []
    static_id = 0
    for i in range(n):
        epoch = epoch0 + 7 * i  # statics left without their other half time out after a few lines
        r = rng.random()
        channel = rng.choice(("A", "B", "1", "2", ""))
        payload = _position_payload(rng)
        line = oracles.sentence(payload, 0, channel=channel, talker=rng.choice(("AIVDM", "AIVDO")))
        emitted = None
        if r < 0.08:
            line = _with_checksum(line, oracles.xor_checksum(line[1:-3]) ^ rng.randrange(1, 256))
        elif r < 0.14:
            k = line.index(payload) + rng.randrange(28)
            line = line[:k] + rng.choice(codec.ARMOR_ALPHABET.replace(line[k], "")) + line[k + 1 :]
        elif r < 0.18:
            line = line[: rng.randrange(1, len(line))]
        elif r < 0.22:
            line = oracles.sentence(oracles.bits_to_payload(oracles.pack_bits([(4, 6), (0, 162)]))[0], 0)
        elif r < 0.26:
            line = oracles.sentence(oracles.bits_to_payload(oracles.pack_bits([(5, 6), (0, 162)]))[0], 0)
        elif r < 0.30:
            line = oracles.sentence(_position_payload(rng, lat_raw=91 * 600000), 0, channel=channel)
        elif r < 0.32:
            line = oracles.sentence(_position_payload(rng, lon_raw=-181 * 600000), 0, channel=channel)
        elif r < 0.36:
            line = oracles.sentence(payload, rng.randrange(1, 6), channel=channel)
        elif r < 0.40:
            line = line[:-2] + line[-2:].lower()
        elif r < 0.45:
            static_id = static_id % 9 + 1
            group = oracles.static_sentences(message_id=static_id, mmsi=rng.randrange(1 << 30),
                                             name="BLOCK TEST", ship_type=rng.randrange(100))
            emitted = [(group[0], 0)] if rng.random() < 0.5 else [(line, 0) for line in group]  # alone, it times out
        elif r < 0.60:
            static_id = static_id % 9 + 1
            emitted = _static_hazard(rng, static_id, rng.choice(("A", "B", "1", "2", "")))
        elif r < 0.63:  # a trailing blank: feed decodes the position, which stays an outcome
            line += " "
        for line, late in emitted or [(line, 0)]:
            stamp = epoch + late
            # receive times between whole seconds, as a fractional --raw-cadence-s gives them
            rx = dt.datetime.fromtimestamp(stamp, tz=UTC) + dt.timedelta(microseconds=7919 * len(lines) % 10**6)
            if rng.random() < 0.5:
                if rng.random() < 0.3:
                    stamp = stamp * 1000 + rng.randrange(1000)
                if rng.random() < 0.02:
                    stamp = rng.choice((99999999999, 999999999999, 10**30))  # far future, out of range
                # other TAG fields around the time (a `*` among them), or no time
                body = rng.choice((f"c:{stamp}",) * 3 + (f"s:r{i},c:{stamp}", f"c:{stamp},n:{i}", f"s:r{i}",
                                                         f"s:r*{i},c:{stamp}"))
                line = f"\\{body}*{oracles.xor_checksum(body):02X}\\{line}"
                if rng.random() < 0.05:
                    tag_end = line.index("\\", 1)
                    line = line[: tag_end - 2] + "00" + line[tag_end:] if line[tag_end - 2 : tag_end] != "00" \
                        else line[: tag_end - 2] + "01" + line[tag_end:]
            if rng.random() < 0.1:
                line += rng.choice(("\r\n", "\n", "\r"))
            lines.append(line)
            rxs.append(rx)
    return lines, rxs


def _sentence_fields(line: str) -> list[str]:
    """The comma-separated fields of a line's sentence, checksum cut, behind any TAG block."""
    return line.rstrip("\r\n").rsplit("\\", 1)[-1][1:-3].split(",")


def _block_decoded(lines, each) -> set[int]:
    """The lines feed_block must decode itself, from what feeding each line gave: a single sentence, ending at
    its checksum, that decodes to a position, and fragments 1 and 2 of one group on adjacent lines decoding to a
    static with every field of _STATIC_LAYOUT (270 bits)."""
    decoded = {j for j, outcomes in enumerate(each) if outcomes[-1].kind == "position"
               and _sentence_fields(lines[j])[1] == "1" and not lines[j].rstrip("\r\n").endswith(" ")}
    for j in range(1, len(lines)):
        if (each[j - 1][-1].kind, each[j][-1].kind) == ("buffered", "static"):
            first, second = _sentence_fields(lines[j - 1]), _sentence_fields(lines[j])
            if first[2] == "1" and first[3:5] == second[3:5] and 6 * len(first[5] + second[5]) - int(second[6]) >= 270:
                decoded |= {j - 1, j}
    return decoded


class TestFeedBlock:
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_feeding_each_line(self, seed):
        lines, rxs = _block_corpus(seed)
        per_line = codec.MessageDecoder()
        each = [per_line.feed(line, rx) for line, rx in zip(lines, rxs)]
        expected = [o for outcomes in each for o in outcomes] + per_line.finish()
        fed = []

        class Recording(codec.MessageDecoder):
            def feed(self, line, rx_time):
                fed.append(line)
                return super().feed(line, rx_time)

        block = Recording()
        decoded_block = block.feed_block(*oracles.block(lines), [codec.epoch_us(rx) for rx in rxs])
        got = expanded(decoded_block) + block.finish()
        assert got == as_fed(expected)
        assert block.counts == per_line.counts
        # the single-sentence positions and the complete adjacent static pairs took the block path, tagged or
        # bare, and only those positions are table rows; every other line went to feed, in order
        decoded = _block_decoded(lines, each)
        assert fed == [line.rstrip("\r\n") for j, line in enumerate(lines) if j not in decoded]  # without line ends, as split
        assert len(decoded_block.positions) == sum(_sentence_fields(lines[j])[1] == "1" for j in decoded)
        for kind in ("position", "static"):
            took = [lines[j] for j in decoded if each[j][-1].kind == kind]
            assert any(line.startswith("\\") for line in took) and any(line.startswith("!") for line in took)
        # each position feed decoded is its whole outcome, raw line included
        fed_positions = [o for o in decoded_block.outcomes if o.kind == "position"]
        assert with_messages(fed_positions) == with_messages([o for j, outcomes in enumerate(each) if j not in decoded
                                                              for o in outcomes if o.kind == "position"])
        assert fed_positions and all(o.raw for o in fed_positions)
        # and every outcome the block keeps is feed's in full, the raw lines that `expanded` drops included
        assert with_messages(decoded_block.outcomes) == with_messages(kept(decoded_block, expected))
        assert {o.kind for o in decoded_block.outcomes} == {"position", "static", "buffered", "skipped", "error"}
        outcomes = [o for o in got if isinstance(o, codec.DecodeOutcome)]
        assert {o.error for o in outcomes} >= {"bad_checksum", "malformed", "timeout", "truncated_buffer",
                                               "out_of_range_position"}

    def test_blocks_of_any_size_agree(self):
        lines, rxs = _block_corpus(99)
        rxs = [codec.epoch_us(rx) for rx in rxs]
        whole = codec.MessageDecoder()
        expected = expanded(whole.feed_block(*oracles.block(lines), rxs)) + whole.finish()
        for size in (5, 64):  # blocks of one line: TestReplayBlocks
            dec = codec.MessageDecoder()
            got = []
            for k in range(0, len(lines), size):
                got += expanded(dec.feed_block(*oracles.block(lines[k : k + size]), rxs[k : k + size]))
            assert got + dec.finish() == expected
            assert dec.counts == whole.counts

    def test_empty_block(self):
        dec = codec.MessageDecoder()
        block = dec.feed_block(*oracles.block([]), [])
        assert (len(block.positions), block.outcomes, block.rows) == (0, [], [])
        assert dec.counts["lines"] == 0

    @pytest.mark.parametrize("tag", ["c:999999999999*", "c:1\u00e9*", "c:\u0661\u0662*"],
                             ids=["year-33658", "non-ascii", "arabic-indic-digits"])
    def test_unreadable_tag_is_malformed(self, tag):
        """A TAG time out of range or a non-ASCII TAG block is one error, not an exception."""
        inner = oracles.position_sentence(mmsi=1, navstat=0, rot_raw=0, sog_raw=0,
                                          lon_raw=0, lat_raw=0, cog_raw=0, heading_raw=0)
        body = tag[:-1]
        cs = 0
        for ch in body.encode():
            cs ^= ch
        line = f"\\{body}*{cs:02X}\\{inner}"
        outcome = feed_one(line)
        assert (outcome.kind, outcome.error) == ("error", "malformed")
        assert expanded(codec.MessageDecoder().feed_block(*oracles.block([line]), [codec.epoch_us(RX)])) == [outcome]


# the line shapes synth writes, and their neighbours: a channel form, and a TAG time of whole seconds (9-12 digits)
# or milliseconds (13-15), past year 9999 from 12 digits of seconds or 15 of milliseconds, or none
CHANNELS = ("A", "B", "1", "2", "")
TAG_DIGITS = (None, 9, 10, 11, 12, 13, 14, 15)
# bytes on either side of the edges of _BLOCK_LINE's byte classes
EDGE_BYTES = "09:;@AWX`awx/B12C3456MOPQ!$,*\\ "


def _rechecked(line: str) -> str:
    """An ASCII line with its sentence checksum, and its TAG checksum if it has one, made to hold again."""
    tag, sentence = "", line
    if line.startswith("\\") and "\\" in line[1:]:
        end = line.index("\\", 1) + 1
        tag, sentence = line[:end], line[end:]
        if len(tag) > 4 and tag[-4] == "*":
            tag = f"{tag[:-3]}{oracles.xor_checksum(tag[1:-4]):02X}\\"
    if len(sentence) > 3 and sentence[-3] == "*":
        sentence = f"{sentence[:-2]}{oracles.xor_checksum(sentence[1:-3]):02X}"
    return tag + sentence


@st.composite
def shape_blocks(draw):
    """A block in a few of the line shapes synth writes, with bytes replaced or put in.

    Its lines are positions and type 5 pairs, AIVDM and AIVDO, on one to
    three shapes (a channel form and a TAG time or none), after two shapes
    of one length: a 9-digit time on channel A and a 10-digit time on no
    channel. A byte put in a sentence field, the TAG block or anywhere is
    printable ASCII, mostly at the edges of the grammar's byte classes, an
    'é' or a U+FFFD, or another armoring character in a payload; in an empty
    field (a channel) it is put in. The checksums may then hold again.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    shapes = draw(st.lists(st.tuples(st.sampled_from(CHANNELS), st.sampled_from(TAG_DIGITS)), min_size=1, max_size=3))
    specs = [("position", "AIVDM", ("A", 9)), ("position", "AIVDM", ("", 10))] + draw(st.lists(st.tuples(
        st.sampled_from(("position", "position", "static")), st.sampled_from(("AIVDM", "AIVDO")),
        st.sampled_from(shapes)), min_size=1, max_size=24))
    lines, rxs = [], []
    for k, (kind, talker, (channel, digits)) in enumerate(specs):
        if kind == "position":
            sentences = [oracles.sentence(_position_payload(rng), 0, channel=channel, talker=talker)]
        else:
            sentences = _static_fragments(rng, _static_bits(rng), rng.randrange(10), channel)
        epoch = None if digits is None else rng.randrange(10 ** (digits - 1), 10**digits)
        for sentence in sentences:
            lines.append(sentence if epoch is None else oracles.tag_block(sentence, epoch))
            rxs.append(dt.datetime(2019, 9, 12, tzinfo=UTC) + dt.timedelta(seconds=7 * k))
    for line_pick, place, at_pick, char, recheck in draw(st.lists(st.tuples(
            st.integers(0, 10**6), st.sampled_from(("any", "tag", 0, 1, 2, 3, 4, 5, 5, 6)), st.integers(0, 10**6),
            st.one_of(st.sampled_from((*EDGE_BYTES, "\u00e9", "\ufffd", "armor")),
                      st.characters(min_codepoint=32, max_codepoint=126)),
            st.booleans()), min_size=1, max_size=6)):
        j = 2 + line_pick % (len(lines) - 2)  # after the first two, so a shape of its length may have been learned
        line = lines[j]
        sentence = line.rsplit("\\", 1)[-1]
        fields = sentence.split(",")
        if place == "any" or (place == "tag" and not line.startswith("\\")) or (place != "tag" and len(fields) != 7):
            start, size = 0, len(line)
        elif place == "tag":
            start, size = 1, len(line) - len(sentence) - 2
        else:
            start, size = len(line) - len(sentence) + len(",".join(fields[:place])) + (place > 0), len(fields[place])
        if char == "armor":
            char = rng.choice(codec.ARMOR_ALPHABET)
        at = start + at_pick % max(size, 1)
        line = line[:at] + char + line[at + (size > 0) :]
        lines[j] = _rechecked(line) if recheck and line.isascii() else line
    return lines, rxs


def _equals_feeding_each_line(lines, rxs) -> None:
    """feed_block hands feed the lines, and gives the outcomes, that matching _BLOCK_LINE line by line would."""
    per_line = codec.MessageDecoder()
    each = [per_line.feed(line, rx) for line, rx in zip(lines, rxs)]
    expected = [o for outcomes in each for o in outcomes] + per_line.finish()
    fed = []

    class Recording(codec.MessageDecoder):
        def feed(self, line, rx_time):
            fed.append(line)
            return super().feed(line, rx_time)

    dec = Recording()
    decoded_block = dec.feed_block(*oracles.block(lines), [codec.epoch_us(rx) for rx in rxs])
    assert expanded(decoded_block) + dec.finish() == as_fed(expected)
    assert dec.counts == per_line.counts
    # the lines feed_block decodes itself are those it decoded when it matched each line on its own
    matched = [outcomes if codec._BLOCK_LINE.fullmatch(line.encode()) else [codec.DecodeOutcome("fed")]
               for line, outcomes in zip(lines, each)]
    decoded = _block_decoded(lines, matched)
    assert fed == [line for j, line in enumerate(lines) if j not in decoded]
    assert with_messages(decoded_block.outcomes) == with_messages(kept(decoded_block, expected))


# how few lines of one length _scan learns a shape for: every line that fits one, the default, or no line
SHAPE_LINES = [1, codec._SHAPE_LINES, 10**9]


@pytest.mark.parametrize("shape_lines", SHAPE_LINES)
@settings(max_examples=150, deadline=None)
@given(shape_blocks())
def test_shape_scan_equals_feeding_each_line(shape_lines, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codec, "_SHAPE_LINES", shape_lines)
        _equals_feeding_each_line(*block)


# Lines in each shape, one group each: every checksum holds a 0 digit, which a byte that is not hex would read as.
@pytest.mark.parametrize("group", [
    ["!AIVDM,1,1,,A,13@ndh@0001CfLfCeo4SL2i60007,0*40"],
    ["!AIVDO,1,1,,,23@ndh@0001CfLfCeo4SL2i6ww00,0*07"],
    ["\\c:1568298505*50\\!AIVDM,1,1,,B,33@ndh@0001CfLfCeo4SL2i60006,0*40"],
    ["\\c:1568298480149*60\\!AIVDM,1,1,,1,13@ndh@0001CfLfCeo4SL2i60007,0*30"],
    ["\\c:999999009*60\\!AIVDM,2,1,3,2,13@ndh@0001CfLfCeo4SL2i60000,0*04"],
    ["!AIVDM,2,1,7,A,53`l7@0000000000001<P50F1@E=@000000,0*38",
     "!AIVDM,2,2,7,A,00016<PD:<00000000000000000000000000,2*0A"],
], ids=["bare", "no-channel", "tagged", "milliseconds", "fragment", "pair"])
@pytest.mark.parametrize("shape_lines", SHAPE_LINES)
def test_every_byte_replaced_is_read_as_fed(monkeypatch, shape_lines, group):
    """A group of lines in shapes the block has learned, with any one byte replaced by printable ASCII, an 'é' or a
    U+FFFD, and its checksums made to hold again unless the byte is a checksum digit, is read as feed reads it: a
    shape admits exactly the lines that _BLOCK_LINE matches with its spans. The groups are 31 s apart, so that a
    fragment of bare lines that a replaced byte orphans has expired by the next group."""
    monkeypatch.setattr(codec, "_SHAPE_LINES", shape_lines)
    chars = [chr(c) for c in range(32, 127)] + ["\u00e9", "\ufffd"]
    groups = [group]
    for t, line in enumerate(group):
        for at, c in ((at, c) for at in range(len(line)) for c in chars if c != line[at]):
            changed = line[:at] + c + line[at + 1 :]
            rechecked = _rechecked(changed) if changed.isascii() else changed
            groups.append(group[:t] + [rechecked if rechecked[at] == c else changed] + group[t + 1 :])
    _equals_feeding_each_line([line for g in groups for line in g],
                              [RX + dt.timedelta(seconds=31 * k) for k, g in enumerate(groups) for _ in g])


@pytest.mark.parametrize("shape_lines", SHAPE_LINES)
def test_lines_of_one_length_in_other_layouts_read_as_fed(monkeypatch, shape_lines):
    """Lines in every layout of _BLOCK_LINE's groups (bare or with a TAG time, a single sentence or a fragment, a
    channel or none), with payloads of 26-30 characters so that many layouts share a length, are told apart: a
    28-character payload is a position, and any other of type 8."""
    monkeypatch.setattr(codec, "_SHAPE_LINES", shape_lines)
    rng = random.Random(3)
    lines = []
    for digits, fragment, channel, talker, chars in itertools.product(
            (None, 10, 13), (None, 1, 2), ("", "A"), ("AIVDM", "AIVDO"), range(26, 31)):
        payload = _position_payload(rng) if chars == 28 else "8" + "0" * (chars - 1)
        sentence = (oracles.sentence(payload, 0, channel=channel, talker=talker) if fragment is None else
                    oracles.sentence(payload, 0, 2, fragment, rng.randrange(10), channel=channel, talker=talker))
        lines.append(sentence if digits is None else oracles.tag_block(sentence, 10 ** (digits - 1) + len(lines) % 2))
    rng.shuffle(lines)
    _equals_feeding_each_line(lines, [RX + dt.timedelta(seconds=k) for k in range(len(lines))])


def test_lines_that_share_no_shape_are_matched_once_each(monkeypatch):
    """Lines behind TAG blocks with a source, lines of many lengths, and 21 lines of one length in 7 layouts share no
    shape with _SHAPE_LINES others: at most one shape is built, and each line is matched once, the first of each
    length at most twice; they decode as fed."""
    rng = random.Random(5)
    lines, rxs = [], []
    for digits in range(9, 16):  # 3 lines each of 7 TAG time widths, the payload making up the difference
        for _ in range(3):
            payload = "8" + "0" * (40 - digits)
            lines.append(oracles.tag_block(oracles.sentence(payload, 0), rng.randrange(10 ** (digits - 1), 10**digits)))
            rxs.append(RX - dt.timedelta(seconds=len(lines)))
    for k in range(300):
        if k % 2:
            payload = "8" + "".join(rng.choice(codec.ARMOR_ALPHABET) for _ in range(rng.randrange(10, 81)))  # type 8
            line = oracles.sentence(payload, rng.randrange(6), channel=rng.choice(CHANNELS))
        else:
            body = f"s:rSTATION{rng.randrange(12)},c:{1568298480 + k}"
            line = f"\\{body}*{oracles.xor_checksum(body):02X}\\" + oracles.sentence(_position_payload(rng), 0)
        lines.append(line)
        rxs.append(RX + dt.timedelta(seconds=k))
    _equals_feeding_each_line(lines, rxs)
    grammar, shape, matched, shapes = codec._BLOCK_LINE, codec._shape, [], []

    class Counted:
        def fullmatch(self, line):
            matched.append(line)
            return grammar.fullmatch(line)

    monkeypatch.setattr(codec, "_BLOCK_LINE", Counted())
    monkeypatch.setattr(codec, "_shape", lambda m: shapes.append(m) or shape(m))
    codec.MessageDecoder().feed_block(*oracles.block(lines), [codec.epoch_us(rx) for rx in rxs])
    assert len(shapes) <= 1
    assert len(matched) <= len(lines) + len({len(line) for line in lines})
