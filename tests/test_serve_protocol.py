"""The serve wire protocol and the atomic checkpoint plumbing.

Contracts pinned here:

- a sample survives the wire round-trip bit-exactly (JSON float
  serialisation is repr-based, so ``float == float`` holds);
- every malformed shape is rejected with :class:`ProtocolError`, never
  a crash deeper in the pipeline;
- checkpoints are atomic (tmp + ``os.replace``), and a corrupt or
  future-versioned checkpoint reads as a cold start, not a fatal error.
"""

import io
import json
import os

import pytest

from repro.hardware.microarch import FX8320_SPEC
from repro.hardware.platform import CoreAssignment, Platform
from repro.obs.events import SCHEMA_VERSION
from repro.serve.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpointer,
    read_checkpoint,
    write_checkpoint,
)
from repro.serve.protocol import (
    ACCEPTED,
    ProtocolError,
    decode_line,
    encode,
    parse_telemetry,
    response,
    sample_from_wire,
    sample_to_wire,
    telemetry_line,
)
from repro.workloads.synthetic import make_cpu_bound


@pytest.fixture(scope="module")
def sample():
    platform = Platform(FX8320_SPEC, seed=7, power_gating=True)
    platform.set_assignment(
        CoreAssignment.packed([make_cpu_bound("wire-test")])
    )
    platform.step()
    return platform.step()


class TestWireRoundTrip:
    def test_sample_survives_json_bit_exactly(self, sample):
        payload = json.loads(json.dumps(sample_to_wire(sample)))
        rebuilt = sample_from_wire(payload, FX8320_SPEC)
        assert [vf.index for vf in rebuilt.cu_vfs] == [
            vf.index for vf in sample.cu_vfs
        ]
        assert rebuilt.nb_vf.index == sample.nb_vf.index
        assert rebuilt.power_samples == list(sample.power_samples)
        assert rebuilt.measured_power == sample.measured_power
        assert rebuilt.temperature == sample.temperature
        assert rebuilt.interval_s == sample.interval_s
        for got, want in zip(rebuilt.core_events, sample.core_events):
            assert got.as_list() == want.as_list()

    def test_ground_truth_defaults_to_observables(self, sample):
        payload = sample_to_wire(sample)
        rebuilt = sample_from_wire(payload, FX8320_SPEC)
        # A real node cannot know ground truth; the wire fills it with
        # the observable stand-ins so scoring paths degrade gracefully.
        assert rebuilt.true_power == rebuilt.measured_power
        for true, est in zip(rebuilt.true_core_events, rebuilt.core_events):
            assert true.as_list() == est.as_list()

    def test_telemetry_line_parses_back(self, sample):
        line = telemetry_line("fx8320-n00", "fx8320", 41, sample)
        event = parse_telemetry(decode_line(line))
        assert event["node"] == "fx8320-n00"
        assert event["sku"] == "fx8320"
        assert event["interval"] == 41
        rebuilt = sample_from_wire(event["sample"], FX8320_SPEC)
        assert rebuilt.measured_power == sample.measured_power

    def test_response_lines(self):
        payload = decode_line(response(ACCEPTED, shard="fx8320"))
        assert payload == {"status": "accepted", "shard": "fx8320"}


class TestValidation:
    def test_garbage_bytes_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_line(b"\xff\xfe not json\n")
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_line(b"[1, 2, 3]\n")

    def test_wrong_event_type_rejected(self):
        with pytest.raises(ProtocolError, match="telemetry"):
            parse_telemetry({"v": SCHEMA_VERSION, "type": "drift"})

    def test_newer_schema_rejected(self):
        with pytest.raises(ProtocolError, match="newer than supported"):
            parse_telemetry(
                {"v": SCHEMA_VERSION + 1, "type": "telemetry",
                 "node": "n0", "sku": "fx8320", "sample": {}}
            )

    def test_missing_required_fields_rejected(self, sample):
        obj = decode_line(telemetry_line("n0", "fx8320", 0, sample))
        del obj["sku"]
        with pytest.raises(ProtocolError, match="missing required fields"):
            parse_telemetry(obj)

    def test_missing_sample_fields_rejected(self, sample):
        payload = sample_to_wire(sample)
        del payload["power_samples"]
        del payload["temperature"]
        with pytest.raises(ProtocolError, match="power_samples, temperature"):
            sample_from_wire(payload, FX8320_SPEC)

    def test_unknown_vf_index_rejected(self, sample):
        payload = sample_to_wire(sample)
        payload["nb_vf"] = 99
        with pytest.raises(ProtocolError, match="unknown VF index"):
            sample_from_wire(payload, FX8320_SPEC)

    def test_topology_mismatch_rejected(self, sample):
        payload = sample_to_wire(sample)
        payload["cu_vfs"] = payload["cu_vfs"][:-1]
        with pytest.raises(ProtocolError, match="CU VF states"):
            sample_from_wire(payload, FX8320_SPEC)
        payload = sample_to_wire(sample)
        payload["core_events"] = payload["core_events"][:3]
        with pytest.raises(ProtocolError, match="core event vectors"):
            sample_from_wire(payload, FX8320_SPEC)

    def test_nonpositive_interval_rejected(self, sample):
        payload = sample_to_wire(sample)
        payload["interval_s"] = 0.0
        with pytest.raises(ProtocolError, match="interval_s"):
            sample_from_wire(payload, FX8320_SPEC)

    def test_empty_node_rejected(self, sample):
        obj = decode_line(telemetry_line("n0", "fx8320", 0, sample))
        obj["node"] = ""
        with pytest.raises(ProtocolError, match="non-empty"):
            parse_telemetry(obj)

    def test_seq_accepts_nonnegative_integers_only(self, sample):
        obj = decode_line(telemetry_line("n0", "fx8320", 0, sample))
        assert parse_telemetry(dict(obj, seq=0))["seq"] == 0
        assert parse_telemetry(dict(obj, seq=10**9))["seq"] == 10**9
        assert "seq" not in parse_telemetry(obj)  # optional
        for bad in (-1, 1.5, "3", True, [0], {}):
            with pytest.raises(ProtocolError, match="'seq'"):
                parse_telemetry(dict(obj, seq=bad))


class TestCheckpointPlumbing:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "state.json")
        state = {"x": 0.1 + 0.2, "nested": {"values": [1.5, None, "a"]}}
        write_checkpoint(path, state)
        loaded = read_checkpoint(path)
        assert loaded["checkpoint_version"] == CHECKPOINT_VERSION
        assert loaded["x"] == state["x"]  # bit-exact float round-trip
        assert loaded["nested"] == state["nested"]

    def test_file_is_one_json_dumps(self, tmp_path):
        # The C encoder's bytes, which equal the streaming json.dump's.
        path = str(tmp_path / "state.json")
        state = {
            "x": 0.1 + 0.2,
            "odd": [float("nan"), -float("inf"), 1e300, -0.0],
            "nested": {"values": [1.5, None, "a\u00e9"], "flag": True},
        }
        write_checkpoint(path, state)
        payload = {"checkpoint_version": CHECKPOINT_VERSION, **state}
        streamed = io.StringIO()
        json.dump(payload, streamed, sort_keys=True)
        with open(path, "rb") as handle:
            written = handle.read().decode("utf-8")
        assert written == json.dumps(payload, sort_keys=True) == streamed.getvalue()

    def test_missing_reads_as_none(self, tmp_path):
        assert read_checkpoint(str(tmp_path / "absent.json")) is None

    def test_corrupt_reads_as_none(self, tmp_path):
        path = str(tmp_path / "torn.json")
        with open(path, "w") as handle:
            handle.write('{"checkpoint_version": 1, "trunc')
        assert read_checkpoint(path) is None

    def test_future_version_reads_as_none(self, tmp_path):
        # Any other version cold-starts: a newer writer's, and one from
        # before the last layout bump, which load_state_dict would reject.
        path = str(tmp_path / "future.json")
        for version in (CHECKPOINT_VERSION + 1, CHECKPOINT_VERSION - 1):
            with open(path, "w") as handle:
                json.dump({"checkpoint_version": version}, handle)
            assert read_checkpoint(path) is None, version

    def test_replace_is_atomic_no_tmp_left_behind(self, tmp_path):
        path = str(tmp_path / "state.json")
        write_checkpoint(path, {"a": 1})
        write_checkpoint(path, {"a": 2})
        assert read_checkpoint(path)["a"] == 2
        assert os.listdir(str(tmp_path)) == ["state.json"]

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path):
        path = str(tmp_path / "state.json")
        write_checkpoint(path, {"a": 1})
        with pytest.raises(TypeError):
            write_checkpoint(path, {"a": object()})  # not JSON-serialisable
        assert read_checkpoint(path)["a"] == 1
        assert os.listdir(str(tmp_path)) == ["state.json"]

    def test_checkpointer_period_and_counters(self, tmp_path):
        path = str(tmp_path / "state.json")
        calls = {"n": 0}

        def state_fn():
            calls["n"] += 1
            return {"seen": calls["n"]}

        ckpt = Checkpointer(path, state_fn, every_intervals=4)
        ticks = [ckpt.tick() for _ in range(9)]
        assert ticks == [False, False, False, True] * 2 + [False]
        assert ckpt.saves == 2
        ckpt.save()  # the SIGTERM / shutdown path
        assert ckpt.saves == 3
        assert read_checkpoint(path)["seen"] == 3

    def test_checkpointer_rejects_bad_period(self, tmp_path):
        with pytest.raises(ValueError, match="every_intervals"):
            Checkpointer(str(tmp_path / "x.json"), dict, every_intervals=0)

    def test_encode_appends_newline(self):
        assert encode({"a": 1}).endswith(b"\n")
