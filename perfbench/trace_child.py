"""Runs one portcall CLI command in this process with its layers traced.

    python3 perfbench/trace_child.py <trace.json> <portcall argv...>

Each public function the CLI reaches is wrapped where its caller looks it
up (for example `validate.detect_outages`, `cli.MessageDecoder`,
`cli.message_to_dict`); nothing in the package is edited. Stage-level calls
are kept as spans with a parent id; high-frequency calls are aggregated as
calls, total and self time. Both are held in memory and written to
<trace.json> when the command returns. The exit code is the command's.
"""

import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from portcall import cli, codec, geo, ingest, jsonl, metrics, validate, voyage  # noqa: E402


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.aggs: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self._child_time: list[float] = []  # per open call, time spent in traced callees
        self._open_spans: list[int] = []

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _timed(self, fn, args, kwargs, record):
        """Call fn; record(start, end, self_s) also runs when it raises."""
        self._child_time.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            child = self._child_time.pop()
            if self._child_time:
                self._child_time[-1] += t1 - t0
            record(t0, t1, t1 - t0 - child)

    def agg(self, name: str, fn, on_result=None):
        row = self.aggs.setdefault(name, [0, 0.0, 0.0])

        def record(t0, t1, self_s):
            row[0] += 1
            row[1] += t1 - t0
            row[2] += self_s

        def wrapper(*args, **kwargs):
            result = self._timed(fn, args, kwargs, record)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def span(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "parent": self._open_spans[-1] if self._open_spans else None, "name": name}
            self.spans.append(span)
            self._open_spans.append(span["id"])

            def record(t0, t1, self_s):
                self._open_spans.pop()
                span.update(start=t0, end=t1, self_s=self_s)

            result = self._timed(fn, args, kwargs, record)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def generator(self, name: str, fn):
        """Times each step of a generator; the consumer's work stays outside."""
        step = self.agg(name, next)

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                self.count(name + ".items")
                yield item

        return wrapper


def install(tr: Tracer) -> list:
    """Wrap every traced callee; returns the decoders so their counts can be read."""
    decoders = []

    class TracedDecoder(codec.MessageDecoder):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            decoders.append(self)

        feed = tr.agg("codec.MessageDecoder.feed", codec.MessageDecoder.feed)
        finish = tr.agg("codec.MessageDecoder.finish", codec.MessageDecoder.finish)

    class TracedStore(ingest.MessageStore):
        append = tr.agg("ingest.MessageStore.append", ingest.MessageStore.append)

    cli.MessageDecoder = ingest.MessageDecoder = TracedDecoder
    cli.MessageStore = TracedStore

    for name in ("cmd_run", "cmd_decode", "cmd_validate", "cmd_voyages", "cmd_metrics", "cmd_ingest"):
        setattr(cli, name, tr.span("cli." + name, getattr(cli, name)))
    cli.run_replay = tr.span("ingest.run_replay", cli.run_replay)
    cli.load_port_geometry = tr.span("geo.load_port_geometry", cli.load_port_geometry)
    for name in ("anchorage_at", "terminal_at"):
        setattr(geo.PortGeometry, name, tr.agg("geo.PortGeometry." + name, getattr(geo.PortGeometry, name)))

    def count_bytes(text):
        tr.count("jsonl.bytes_written", len(text) + 1)  # each document is written as one line

    jsonl.dumps = tr.agg("jsonl.dumps", jsonl.dumps, count_bytes)
    ingest.dumps = tr.agg("jsonl.dumps", ingest.dumps, count_bytes)
    jsonl.read_jsonl = tr.generator("jsonl.read_jsonl", jsonl.read_jsonl)
    jsonl.write_jsonl = tr.agg("jsonl.write_jsonl", jsonl.write_jsonl)
    for module in (cli, ingest):
        module.message_to_dict = tr.agg("dict.message_to_dict", module.message_to_dict)
    cli.message_from_dict = tr.agg("dict.message_from_dict", cli.message_from_dict)
    cli.validated_to_dict = tr.agg("dict.validated_to_dict", cli.validated_to_dict)
    cli.validated_from_dict = tr.agg("dict.validated_from_dict", cli.validated_from_dict)
    voyage.voyage_to_dict = tr.agg("dict.voyage_to_dict", voyage.voyage_to_dict)
    voyage.voyage_from_dict = tr.agg("dict.voyage_from_dict", voyage.voyage_from_dict)

    def stream_result(validated):
        tr.count("validate.knn_decided", sum(1 for vm in validated if vm.method == "knn"))

    def outages_result(outages):
        tr.counts.update({f"validate.outages_{s}": 0 for s in ("global", "vessel", "area")})
        for o in outages:
            tr.count(f"validate.outages_{o.scope}")

    validate.validate_stream = tr.span("validate.validate_stream", validate.validate_stream, stream_result)
    validate.detect_outages = tr.span("validate.detect_outages", validate.detect_outages, outages_result)
    validate.fit_knn = tr.span(
        "validate.fit_knn", validate.fit_knn, lambda m: tr.count("validate.knn_train_points", m.xy.shape[0])
    )

    voyage.extract_voyages = tr.span(
        "voyage.extract_voyages", voyage.extract_voyages, lambda vs: tr.count("voyage.voyages", len(vs))
    )
    voyage.segment_phases = tr.agg("voyage.segment_phases", voyage.segment_phases)
    voyage.flag_gaps = tr.agg(
        "voyage.flag_gaps", voyage.flag_gaps, lambda v: tr.count("voyage.gap_flagged", v.gap_flagged)
    )
    for name in (
        "schedule_table",
        "turnaround",
        "daily_arrivals",
        "weekly_aggregate",
        "anchorage_wait",
        "arrivals_mae",
        "load_ground_truth",
        "vessel_category",
    ):
        setattr(metrics, name, tr.agg("metrics." + name, getattr(metrics, name)))
    return decoders


def main(argv: list[str]) -> int:
    out, command = pathlib.Path(argv[0]), argv[1:]
    tr = Tracer()
    decoders = install(tr)
    try:
        rc = cli.main(command)
    finally:
        for d in decoders:
            for key, value in d.counts.items():
                tr.count("codec." + key, value)
        with open(out, "w", encoding="utf-8") as f:
            json.dump({"spans": tr.spans, "aggs": tr.aggs, "counts": tr.counts}, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
