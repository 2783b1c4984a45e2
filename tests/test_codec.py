import datetime as dt
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from portcall import codec

UTC = dt.timezone.utc
RX = dt.datetime(2019, 9, 12, 14, 28, 0, tzinfo=UTC)


def feed_one(line, rx=RX, decoder=None):
    dec = decoder or codec.MessageDecoder()
    outcomes = dec.feed(line, rx)
    assert len(outcomes) == 1
    return outcomes[0]


class TestParseSentence:
    def test_valid_sentence(self):
        line = oracles.position_sentence(mmsi=123456789, navstat=0, rot_raw=0, sog_raw=0,
                                         lon_raw=0, lat_raw=0, cog_raw=0, heading_raw=0)
        s = codec.parse_sentence(line)
        assert s.talker == "AIVDM"
        assert s.fragment_count == 1
        assert s.fragment_index == 1
        assert s.message_id is None
        assert s.channel == "A"
        assert s.fill_bits == 0

    def test_checksum_computed_by_hand(self):
        body = "AIVDM,1,1,,A,13@ndh@01W1CwHhCcK4t=Ih00000,0"
        byhand = 0
        for ch in body:
            byhand ^= ord(ch)
        line = f"!{body}*{byhand:02X}"
        assert codec.parse_sentence(line).payload == "13@ndh@01W1CwHhCcK4t=Ih00000"

    def test_bad_checksum(self):
        line = oracles.position_sentence(mmsi=1, navstat=0, rot_raw=0, sog_raw=0,
                                         lon_raw=0, lat_raw=0, cog_raw=0, heading_raw=0)
        declared = int(line[-2:], 16)
        corrupted = line[:-2] + f"{declared ^ 1:02X}"
        with pytest.raises(codec.BadChecksum):
            codec.parse_sentence(corrupted)

    def test_empty_line(self):
        with pytest.raises(codec.Malformed):
            codec.parse_sentence("")

    @pytest.mark.parametrize(
        "body",
        [
            "AIVDM,1,1,,A,0",  # six fields
            "AIVDM,0,1,,A,0,0",  # zero fragment count
            "AIVDM,1,2,,A,0,0",  # index beyond count
            "AIVDM,1,1,,A,0,7",  # fill bits out of range
            "AIVDM,2,1,,A,0,0",  # multipart without message id
            "AIVDM,1,1,,A,,0",  # empty payload
            "AIVDM,x,1,,A,0,0",  # non-integer fragment count
        ],
    )
    def test_malformed_with_valid_checksum(self, body):
        line = f"!{body}*{oracles.xor_checksum(body):02X}"
        with pytest.raises(codec.Malformed):
            codec.parse_sentence(line)

    @pytest.mark.parametrize(
        "line",
        [
            "AIVDM,1,1,,A,0,0*23",  # no start delimiter
            "!AIVDM,1,1,,A,0,0",  # no checksum
            "!AIVDM,1,1,,A,0,0*ZZ",  # non-hex checksum
        ],
    )
    def test_malformed_structure(self, line):
        with pytest.raises(codec.Malformed):
            codec.parse_sentence(line)

    def test_invalid_armor_character(self):
        body = "AIVDM,1,1,,A,xyz,0"  # 'x' is outside the alphabet
        line = f"!{body}*{oracles.xor_checksum(body):02X}"
        with pytest.raises(codec.Malformed):
            codec.parse_sentence(line)


class TestArmoring:
    def test_char_zero_is_six_zero_bits(self):
        bits = codec.payload_to_bits("0", 0)
        assert bits.nbits == 6
        assert bits.value == 0

    def test_char_w_is_six_one_bits(self):
        # ord('w')=119 -> 71 -> 71-8 = 63 = 0b111111
        bits = codec.payload_to_bits("w", 0)
        assert bits.value == 0b111111

    def test_fill_bits_dropped(self):
        bits = codec.payload_to_bits("w0", 4)
        assert bits.nbits == 8
        assert bits.value == 0b11111100

    def test_bijection(self):
        assert len(codec.ARMOR_ALPHABET) == 64
        assert len(set(codec.ARMOR_ALPHABET)) == 64
        for v, ch in enumerate(codec.ARMOR_ALPHABET):
            assert codec.payload_to_bits(ch, 0).value == v
            assert oracles.armor_char(v) == ch


class TestAssembly:
    def _fragments(self):
        return [codec.parse_sentence(s) for s in
                oracles.static_sentences(mmsi=219000001, name="BOXSHIP", ship_type=71)]

    def test_two_fragment_static(self):
        bits = codec.assemble_fragments(self._fragments())
        report = codec.decode_static(bits)
        assert report.mmsi == 219000001
        assert report.vessel_name == "BOXSHIP"
        assert report.ship_type == 71

    def test_missing_fragment(self):
        with pytest.raises(codec.MissingFragment):
            codec.assemble_fragments(self._fragments()[1:])

    def test_duplicate_fragment(self):
        frags = self._fragments()
        with pytest.raises(codec.DuplicateFragment):
            codec.assemble_fragments([frags[0], frags[0], frags[1]])

    def test_stateful_assembler_times_out(self):
        dec = codec.MessageDecoder(reassembly_window_s=30.0)
        first = oracles.static_sentences(mmsi=1, name="X", ship_type=70)[0]
        outcome = feed_one(first, decoder=dec)
        assert outcome.kind == "buffered"
        # unrelated line a minute later evicts the group
        lone = oracles.position_sentence(mmsi=2, navstat=0, rot_raw=0, sog_raw=10,
                                         lon_raw=0, lat_raw=0, cog_raw=0, heading_raw=0)
        outcomes = dec.feed(lone, RX + dt.timedelta(seconds=60))
        assert [o.kind for o in outcomes] == ["error", "position"]
        assert outcomes[0].error == "timeout"

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
        return outcome.message

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

    def test_wrong_type(self):
        bits = codec.payload_to_bits("5" + "0" * 27, 0)  # type 5 header, position length
        with pytest.raises(codec.WrongType):
            codec.decode_position(bits, RX)

    def test_truncated(self):
        bits = codec.payload_to_bits("10", 0)
        with pytest.raises(codec.TruncatedBuffer):
            codec.decode_position(bits, RX)


class TestDecodeStatic:
    def test_ship_type_identity(self):
        line_pair = oracles.static_sentences(mmsi=7, name="FERRY", ship_type=70)
        dec = codec.MessageDecoder()
        outcomes = dec.feed(line_pair[0], RX) + dec.feed(line_pair[1], RX)
        static = [o for o in outcomes if o.kind == "static"]
        assert len(static) == 1
        assert static[0].message.ship_type == 70

    def test_all_padding_name_is_empty(self):
        bits = codec.assemble_fragments(
            [codec.parse_sentence(s) for s in oracles.static_sentences(mmsi=7, name="", ship_type=60)]
        )
        assert codec.decode_static(bits).vessel_name == ""

    def test_dimensions(self):
        bits = codec.assemble_fragments(
            [codec.parse_sentence(s) for s in
             oracles.static_sentences(mmsi=7, name="A", ship_type=70,
                                      to_bow=120, to_stern=30, to_port=12, to_starboard=10)]
        )
        report = codec.decode_static(bits)
        assert report.length == 150
        assert report.width == 22

    def test_wrong_type(self):
        bits = codec.payload_to_bits("1" + "0" * 70, 0)
        with pytest.raises(codec.WrongType):
            codec.decode_static(bits)


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
        assert outcome.message.timestamp == ts

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
    msg = outcome.message
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
    reference = feed_one(line).message
    for _ in range(300):
        pos = rng.randrange(len(line))
        repl = chr(rng.randrange(33, 120))
        if repl == line[pos]:
            continue
        corrupted = line[:pos] + repl + line[pos + 1 :]
        outcome = feed_one(corrupted)
        if outcome.kind == "position":
            assert outcome.message != reference
        else:
            assert outcome.kind == "error"
