"""The benchmark's output checks on its tiny inputs, run once each, with no timing."""

import contextlib
import hashlib
import io
import json
import pathlib
import subprocess
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import oracles  # noqa: E402
import run as bench  # noqa: E402
import score  # noqa: E402
import workloads  # noqa: E402
from portcall import cli, codec, ingest  # noqa: E402

# sha256 of every output but the manifests, which hold absolute paths; a change
# to any of these bytes is a declared change of the program's output
OUTPUT_PINS = {
    ("knn_noport", 7): {
        "decoded.jsonl": "ea5af52fdd70c3d57085739ea4f0083b5566d8dc34a0982c84ce20a2630dc676",
        "errors.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "metrics/daily_arrivals.csv": "0fd5e8765b16b653168d18a554b6f3b47438014a104c965a1a53f8614c57f624",
        "metrics/summary.json": "cb98ffaf7f90bc40b12ef7b205c6563d1599d7ae3b73891dd711bfc9fddd042a",
        "metrics/turnarounds.csv": "87bed5fb00266dbc5c003b880aabbc0075399ec32282047ba5733af0c00d70b6",
        "metrics/weekly_turnaround.csv": "1a02f76e015e6c624e6d7cb4a9a0b66ccddc0f19e90dd956910eb6c648fe622c",
        "outages.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "validated.jsonl": "ca19436775fb18fee6210fef8c63a0c94fa00cd3b28b502342012a7f78f43a2e",
        "voyages.jsonl": "d8d584bc9e8a96cb4cb12f97c65717f4456b03ab977a4fb4e6a1b0ae373c446f",
    },
    ("knn_noport", 101): {
        "decoded.jsonl": "8a0c39e5015193e419d85094929612e7aa3f06ca390cda30657f2a1b4cd3f729",
        "errors.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "metrics/daily_arrivals.csv": "0fd5e8765b16b653168d18a554b6f3b47438014a104c965a1a53f8614c57f624",
        "metrics/summary.json": "cb98ffaf7f90bc40b12ef7b205c6563d1599d7ae3b73891dd711bfc9fddd042a",
        "metrics/turnarounds.csv": "18cfae7e5a15328664d07fa5906e60e7ba53c1ceeed3dd5534995e6d299812f4",
        "metrics/weekly_turnaround.csv": "1a02f76e015e6c624e6d7cb4a9a0b66ccddc0f19e90dd956910eb6c648fe622c",
        "outages.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "validated.jsonl": "a1a2c3c8b86d676409e418f389004c452226a90e40d972452f8cf7c6445f9c19",
        "voyages.jsonl": "5ae9a8a62f984f47bab7ce240dea9470e671f4cad458addb4a8144d5b4d418cd",
    },
    ("port_run", 7): {
        "decoded.jsonl": "f8094a817ee71d07c185129b47354175524f2dbf7e5896e421e8657ba0b82f3a",
        "errors.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "metrics/daily_arrivals.csv": "0fd5e8765b16b653168d18a554b6f3b47438014a104c965a1a53f8614c57f624",
        "metrics/summary.json": "cb98ffaf7f90bc40b12ef7b205c6563d1599d7ae3b73891dd711bfc9fddd042a",
        "metrics/turnarounds.csv": "0a94bc3aace5cc136be99aeb91a7b1048a53b8e56c5907ac90ce856d7e7edfc3",
        "metrics/weekly_turnaround.csv": "1a02f76e015e6c624e6d7cb4a9a0b66ccddc0f19e90dd956910eb6c648fe622c",
        "outages.jsonl": "67c456f26b6d9c7375deecba855b04d5ef6287a323d4715b1c4d29ddd3047337",
        "validated.jsonl": "a2d7b7aa547c6d5fd9c3bd0f2f8d6777d8f0f5ab2fb3f9789f182e6a08600fca",
        "voyages.jsonl": "dd7fa8f98f2ed89530a2e2d7ec075406242cb47b5e97b5558f3e54774008333b",
    },
    ("port_run", 101): {
        "decoded.jsonl": "0a70b62eb04c3a6896df38ccf32b03224ceacd7a925c8f8d82125ad83a7cf94b",
        "errors.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "metrics/daily_arrivals.csv": "0fd5e8765b16b653168d18a554b6f3b47438014a104c965a1a53f8614c57f624",
        "metrics/summary.json": "cb98ffaf7f90bc40b12ef7b205c6563d1599d7ae3b73891dd711bfc9fddd042a",
        "metrics/turnarounds.csv": "6bdcba85fda5e820cd42850089e9ceee1fc47bf4b50bc594dea338134517af3e",
        "metrics/weekly_turnaround.csv": "1a02f76e015e6c624e6d7cb4a9a0b66ccddc0f19e90dd956910eb6c648fe622c",
        "outages.jsonl": "07ad853cf3420fc3f39db691a8b9eea1d4e443dbcca22d66e8e6eaf9a1066f57",
        "validated.jsonl": "6dd81f310d6970f3260c5695ef4e7c9d742b5b58fa73680a7d0711c13073161e",
        "voyages.jsonl": "23a67ec39aa1023b6e8682ee3a161d9a2a651e0f84c54a68c8ee688be8a6288d",
    },
    ("raw_ingest", 7): {
        "ais-2000-01-01.jsonl": "eb8e9e87de482ebc29771be83ab4c6883a54c5bb5ef35db252a6c48afd132a92",
    },
    ("raw_ingest", 101): {
        "ais-2000-01-01.jsonl": "4bff281c188581ec9554359ea7f53ba00470b9ac977fdcc4f665da04538d3b11",
    },
}


@pytest.mark.parametrize("seed", [7, 101])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_scores_clean(tmp_path, name, seed):
    """Every line has its outcome, every status is right, no outage is missed or made up, and the bytes hold."""
    w = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(w, seed, tmp_path / "inputs", tiny=True)
    out = tmp_path / "out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(bench.cli_argv(w, inputs.files, out)) == cli.EXIT_OK
    result = score.score(w, inputs, workloads.expectation(inputs), out, stdout.getvalue())
    assert result.failed == 0
    assert result.status_accuracy == 1.0
    assert result.quality == dict.fromkeys(result.quality, 0)
    assert result.problems == []
    outputs = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.rglob("*")) if p.is_file() and not p.name.endswith("manifest.json")}
    assert outputs == OUTPUT_PINS[name, seed]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_only_faulted_lines_and_block_split_statics_take_the_line_parser(tmp_path, monkeypatch, name):
    """Every clean position line and static pair decodes in the block pass, except a pair a block boundary splits."""
    w = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(w, 7, tmp_path / "inputs", tiny=True)
    fed = []

    class Recording(codec.MessageDecoder):
        def feed(self, line, rx_time):
            fed.append(line)
            return super().feed(line, rx_time)

    monkeypatch.setattr(ingest, "MessageDecoder", Recording)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(bench.cli_argv(w, inputs.files, tmp_path / "out")) == cli.EXIT_OK
    lines, size = inputs.lines, ingest._REPLAY_BLOCK
    split = sum(",2,1," in lines[j] and ",2,2," in lines[j + 1] for j in range(size - 1, len(lines) - 1, size))
    assert len(fed) == len(inputs.ledger) + 2 * split


@pytest.mark.parametrize("name", ["knn_noport", "port_run"])
def test_a_clean_block_matches_the_line_grammar_once_per_line_length(tmp_path, monkeypatch, name):
    """feed_block learns each line shape of a block from one match of _BLOCK_LINE and reads every line that fits
    it together: a clean block of three line lengths takes at most three matches, not one per line."""
    lines = workloads.make_inputs(workloads.WORKLOADS[name], 7, tmp_path / "inputs", tiny=True).lines
    lines = lines[: ingest._REPLAY_BLOCK]
    grammar, matched = codec._BLOCK_LINE, []

    class Counted:
        def fullmatch(self, line):
            matched.append(line)
            return grammar.fullmatch(line)

    monkeypatch.setattr(codec, "_BLOCK_LINE", Counted())
    block = codec.MessageDecoder().feed_block(*oracles.block(lines), [0] * len(lines))
    assert {len(line) for line in lines} == {64, 72, 73}
    assert len(matched) <= 3
    assert len(block.positions) + 2 * len(block.statics) >= len(lines) - 1  # all but a pair the block end splits


def _outputs(out: pathlib.Path) -> dict[str, bytes]:
    """Every file a run wrote but the manifests, which hold absolute paths."""
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file() and not p.name.endswith("manifest.json")}


def test_traced_run_writes_what_an_untraced_run_writes(tmp_path):
    """The tracer wraps names in the package from outside: a refactor that drops one must fail here, and tracing
    must not change a byte of the output."""
    w = workloads.WORKLOADS["port_run"]
    inputs = workloads.make_inputs(w, 7, tmp_path / "inputs", tiny=True)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(bench.cli_argv(w, inputs.files, tmp_path / "plain")) == cli.EXIT_OK
    trace = tmp_path / "trace.json"
    proc = subprocess.run([sys.executable, str(PERFBENCH / "trace_child.py"), str(trace),
                           *bench.cli_argv(w, inputs.files, tmp_path / "traced")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    plain = _outputs(tmp_path / "plain")
    assert "validated.jsonl" in plain and _outputs(tmp_path / "traced") == plain
    spans = {span["name"] for span in json.loads(trace.read_text())["spans"]}
    assert {"cli.cmd_run", "ingest.run_replay", "validate.validate_stream", "voyage.extract_voyages"} <= spans


def test_traced_ingest_writes_what_an_untraced_ingest_writes(tmp_path):
    """The same for `ingest`, through which the tracer reaches the store's MessageStore.append: a refactor that
    drops it must fail here too, and tracing must not change a byte of the store."""
    w = workloads.WORKLOADS["raw_ingest"]
    inputs = workloads.make_inputs(w, 7, tmp_path / "inputs", tiny=True)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(bench.cli_argv(w, inputs.files, tmp_path / "plain")) == cli.EXIT_OK
    trace = tmp_path / "trace.json"
    proc = subprocess.run([sys.executable, str(PERFBENCH / "trace_child.py"), str(trace),
                           *bench.cli_argv(w, inputs.files, tmp_path / "traced")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    plain = _outputs(tmp_path / "plain")
    assert plain.keys() == OUTPUT_PINS["raw_ingest", 7].keys() and _outputs(tmp_path / "traced") == plain
    traced = json.loads(trace.read_text())
    assert {"cli.cmd_ingest", "ingest.run_replay"} <= {span["name"] for span in traced["spans"]}
    # every message reaches the store through the wrapped append, the line parser's too written by the table
    # writers, so no document of this replay, which holds no stored static, goes through the wrapped dumps
    assert traced["aggs"]["ingest.MessageStore.append"][0] > 0 and traced["aggs"]["jsonl.dumps"][0] == 0


def test_traced_ingest_counts_the_documents_of_stored_statics(tmp_path):
    """Stored statics and positions alike are written by the table writers, so the tracer's wrapped dumps and
    message_to_dict count no document of a stored replay, and the traced store holds what an untraced ingest
    stores, a length of 0 written as null."""
    statics = ['{"length":0,"mmsi":2,"name":"A","ship_type":70,"ts":"2019-09-01T00:00:00Z","type":"static",'
               '"width":null}',
               '{"length":120,"mmsi":3,"name":"B","ship_type":70,"ts":"2019-09-01T00:00:02Z","type":"static",'
               '"width":20}']
    position = ('{"cog":null,"heading":null,"lat":34.0,"lon":18.5,"mmsi":1,"navstat":5,"rot":null,"sog":5.0,'
                '"ts":"2019-09-01T00:00:01Z","type":"position"}')
    stored = tmp_path / "stored.jsonl"
    stored.write_text("".join(line + "\n" for line in (statics[0], position, statics[1])))
    assert cli.main(["ingest", "--source", f"file:{stored}", "--store", str(tmp_path / "plain")]) == cli.EXIT_OK
    trace = tmp_path / "trace.json"
    proc = subprocess.run([sys.executable, str(PERFBENCH / "trace_child.py"), str(trace), "ingest", "--source",
                           f"file:{stored}", "--store", str(tmp_path / "store")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    plain = _outputs(tmp_path / "plain")
    assert _outputs(tmp_path / "store") == plain == {
        "ais-2019-09-01.jsonl": stored.read_bytes().replace(b'"length":0,', b'"length":null,')}
    traced = json.loads(trace.read_text())
    assert traced["aggs"]["ingest.MessageStore.append"][0] > 0
    assert traced["aggs"]["jsonl.dumps"][0] == traced["aggs"]["dict.message_to_dict"][0] == 0
    assert traced["counts"].get("jsonl.bytes_written", 0) == 0
