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


def decode_static_group(**kwargs):
    """The static report that feeding the two fragments oracles.static_sentences(**kwargs) yields."""
    dec = codec.MessageDecoder()
    first, second = oracles.static_sentences(**kwargs)
    assert feed_one(first, decoder=dec).kind == "buffered"
    outcome = feed_one(second, decoder=dec)
    assert outcome.kind == "static", outcome
    return outcome.message


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
        assert outcome.detail == "lat=91.00000 lon=0.00000"  # errors.jsonl holds this text

    def test_wrong_type(self):
        bits = codec.payload_to_bits("5" + "0" * 27, 0)  # type 5 header, position length
        with pytest.raises(codec.WrongType):
            codec.decode_position(bits, RX)

    def test_truncated(self):
        bits = codec.payload_to_bits("10", 0)
        with pytest.raises(codec.TruncatedBuffer):
            codec.decode_position(bits, RX)

    def test_bits_past_the_layout_are_ignored(self):
        payload, _ = oracles.bits_to_payload(oracles.position_bits(
            msg_type=1, mmsi=366000001, navstat=5, rot_raw=-3, sog_raw=17, lon_raw=-7000000, lat_raw=2000000,
            cog_raw=2700, heading_raw=268))
        expected = codec.decode_position(codec.payload_to_bits(payload, 0), RX)
        assert codec.decode_position(codec.payload_to_bits(payload + "w0", 4), RX) == expected
        assert expected.rot == -3 and expected.lon == -7000000 / 600000.0


class TestDecodeStatic:
    def test_ship_type_identity(self):
        line_pair = oracles.static_sentences(mmsi=7, name="FERRY", ship_type=70)
        dec = codec.MessageDecoder()
        outcomes = dec.feed(line_pair[0], RX) + dec.feed(line_pair[1], RX)
        static = [o for o in outcomes if o.kind == "static"]
        assert len(static) == 1
        assert static[0].message.ship_type == 70

    def test_all_padding_name_is_empty(self):
        assert decode_static_group(mmsi=7, name="", ship_type=60).vessel_name == ""

    def test_dimensions(self):
        report = decode_static_group(mmsi=7, name="A", ship_type=70,
                                     to_bow=120, to_stern=30, to_port=12, to_starboard=10)
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


def _block_corpus(seed: int, n: int = 400):
    """Lines and receive times mixing the block path's shape with everything it must hand to feed."""
    rng = random.Random(seed)
    epoch0 = 1568298480
    lines, rxs = [], []
    static_id = 0
    for i in range(n):
        epoch = epoch0 + 7 * i  # statics left without their second half time out after a few lines
        rx = dt.datetime.fromtimestamp(epoch, tz=UTC)
        r = rng.random()
        channel = rng.choice(("A", "B", "1", "2", ""))
        payload = _position_payload(rng)
        line = oracles.sentence(payload, 0, channel=channel, talker=rng.choice(("AIVDM", "AIVDO")))
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
        elif r < 0.50:
            static_id = static_id % 9 + 1
            group = oracles.static_sentences(message_id=static_id, mmsi=rng.randrange(1 << 30),
                                             name="BLOCK TEST", ship_type=rng.randrange(100))
            if rng.random() < 0.5:
                group = group[:1]  # left to time out
            lines.extend(group[:-1])
            rxs.extend([rx] * (len(group) - 1))
            line = group[-1]
        if rng.random() < 0.5:
            stamp = epoch * 1000 + rng.randrange(1000) if rng.random() < 0.3 else epoch
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
        got = block.feed_block(lines, rxs) + block.finish()
        assert got == expected
        assert block.counts == per_line.counts
        # every line that decodes to a position took the block path, tagged or bare; no other line did
        positions = [line for line, outcomes in zip(lines, each) if outcomes[-1].kind == "position"]
        assert set(fed) == set(lines) - set(positions)
        assert any(line.startswith("\\") for line in positions) and any(line.startswith("!") for line in positions)
        kinds = {o.kind for o in got}
        assert kinds == {"position", "static", "buffered", "skipped", "error"}
        assert {o.error for o in got} >= {"bad_checksum", "malformed", "timeout", "truncated_buffer",
                                          "out_of_range_position"}

    def test_blocks_of_any_size_agree(self):
        lines, rxs = _block_corpus(99)
        whole = codec.MessageDecoder()
        expected = whole.feed_block(lines, rxs) + whole.finish()
        for size in (5, 64):  # blocks of one line: TestReplayBlocks
            dec = codec.MessageDecoder()
            got = []
            for k in range(0, len(lines), size):
                got += dec.feed_block(lines[k : k + size], rxs[k : k + size])
            assert got + dec.finish() == expected
            assert dec.counts == whole.counts

    def test_empty_block(self):
        dec = codec.MessageDecoder()
        assert dec.feed_block([], []) == []
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
        assert codec.MessageDecoder().feed_block([line], [RX]) == [outcome]
