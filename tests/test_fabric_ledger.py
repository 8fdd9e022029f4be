"""Write-ahead lease ledger: durability, torn tails, and corruption.

The ledger's contract (``repro.fabric.ledger``) is binary: replay
either reconstructs *exactly* the state the coordinator wrote ahead, or
it refuses with a structured diagnostic naming the byte offset — never
a silent wrong state.  The property-based tests cut a real ledger at
every possible byte offset (hypothesis over cut points) and assert that
dichotomy: a cut in the final line is a repairable crash-torn tail; a
cut that destroys an earlier record raises :class:`LedgerCorrupt`.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fabric import ledger as wal
from repro.fabric.ledger import FabricLedger, LedgerCorrupt, ledger_summary
from repro.store.fingerprint import checksum


def build_ledger(path):
    """A representative two-session ledger; returns the final replay state."""
    led = FabricLedger(path)
    led.replay()
    led.append(wal.OP_OPEN, epoch=1, code="deadbeef", cells=3)
    led.append(
        wal.OP_LEASE,
        epoch=1,
        lease_seq=1,
        key="k1",
        label="cell-1",
        lease_id="L00001-k1",
        worker="w0",
        attempt=1,
    )
    led.append(
        wal.OP_COMPLETE, epoch=1, key="k1", lease_id="L00001-k1", worker="w0"
    )
    led.append(
        wal.OP_LEASE,
        epoch=1,
        lease_seq=2,
        key="k2",
        label="cell-2",
        lease_id="L00002-k2",
        worker="w1",
        attempt=1,
    )
    led.append(
        wal.OP_RETRY, epoch=1, key="k2", kind="expired", attempts=1,
        not_before_wall=123.5,
    )
    led.append(
        wal.OP_QUARANTINE,
        epoch=1,
        key="k3",
        index=2,
        label="cell-3",
        kind="stall",
        message="livelock",
        attempts=3,
    )
    led.close()
    # Second session: recovery bumps the epoch, re-leases k2, drains.
    led = FabricLedger(path)
    led.replay()
    led.append(wal.OP_OPEN, epoch=2, code="deadbeef", cells=3)
    led.append(
        wal.OP_LEASE,
        epoch=2,
        lease_seq=3,
        key="k2",
        label="cell-2",
        lease_id="L00003-k2",
        worker="w2",
        attempt=2,
    )
    led.append(
        wal.OP_REJECT, epoch=2, key="k2", lease_id="L00002-k2",
        reason="stale-epoch",
    )
    led.append(wal.OP_DRAIN, epoch=2, source="SIGTERM")
    led.close()
    return FabricLedger(path).replay()


class TestReplayRoundTrip:
    def test_replay_reconstructs_exact_state(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        state = build_ledger(path)
        assert state.epoch == 2 and state.opens == 2
        assert state.records == 10 and state.lease_seq == 3
        assert not state.torn_tail
        assert state.rejects == 1
        assert state.draining is True and state.closed is None
        assert state.cells["k1"].state == "done"
        k2 = state.cells["k2"]
        assert k2.state == "leased"
        assert k2.lease_id == "L00003-k2" and k2.worker == "w2"
        assert k2.lease_epoch == 2 and k2.attempts == 2
        k3 = state.cells["k3"]
        assert k3.state == "failed"
        assert state.failures == [
            {
                "key": "k3",
                "index": 2,
                "label": "cell-3",
                "kind": "stall",
                "message": "livelock",
                "attempts": 3,
            }
        ]

    def test_retry_preserves_wall_clock_backoff(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        led = FabricLedger(path)
        led.replay()
        led.append(wal.OP_OPEN, epoch=1, code="c", cells=1)
        led.append(
            wal.OP_LEASE, epoch=1, lease_seq=1, key="k", label="l",
            lease_id="L1", worker="w", attempt=1,
        )
        led.append(
            wal.OP_RETRY, epoch=1, key="k", kind="expired", attempts=1,
            not_before_wall=9876.25,
        )
        led.close()
        cell = FabricLedger(path).replay().cells["k"]
        assert cell.state == "pending"
        assert cell.not_before_wall == 9876.25
        assert cell.lease_id is None

    def test_summary_rolls_up_for_operators(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        build_ledger(path)
        summary = ledger_summary(path)
        assert summary["epoch"] == 2 and summary["sessions"] == 2
        assert summary["cells"] == {"done": 1, "leased": 1, "failed": 1}
        assert [l["lease_id"] for l in summary["in_flight"]] == ["L00003-k2"]
        assert summary["draining"] is True and summary["closed"] is None
        assert summary["rejects"] == 1 and summary["torn_tail"] is False

    def test_cli_prints_leases_and_quarantined_cells(self, tmp_path, capsys):
        from repro.cli import main

        build_ledger(tmp_path / wal.LEDGER_FILENAME)
        assert main(["fabric", "ledger", "--cache-dir", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        assert "epoch 2, 2 session(s)" in out
        assert "draining" in out
        assert (
            "  in-flight: cell-2 held by w2 (L00003-k2, epoch 2, attempt 2)\n"
            in out
        )
        assert "quarantined" not in out
        # The one quarantine format every command shares (on stderr).
        assert err == "FAILED cell-3: stall after 3 attempts — livelock\n"

        assert main(["fabric", "ledger", "--cache-dir", str(tmp_path), "--json"]) == 0
        out, err = capsys.readouterr()
        summary = json.loads(out)
        assert err == ""
        assert summary == ledger_summary(tmp_path / wal.LEDGER_FILENAME)
        assert [lease["label"] for lease in summary["in_flight"]] == ["cell-2"]
        assert [(f["label"], f["message"]) for f in summary["quarantined"]] == [
            ("cell-3", "livelock")
        ]

    def test_empty_and_missing_ledger(self, tmp_path):
        state = FabricLedger(tmp_path / "absent.jsonl").replay()
        assert state.epoch == 0 and state.records == 0
        (tmp_path / "empty.jsonl").write_bytes(b"")
        assert FabricLedger(tmp_path / "empty.jsonl").replay().records == 0


class TestTornTail:
    def test_torn_tail_truncated_and_appendable(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        build_ledger(path)
        whole = path.read_bytes()
        path.write_bytes(whole[:-7])  # tear the final record mid-bytes
        led = FabricLedger(path)
        state = led.replay()
        assert state.torn_tail is True
        assert state.records == 9  # everything but the torn line
        assert state.draining is False  # the drain record was the torn one
        # The first append repairs the file: torn bytes gone, seq contiguous.
        led.append(wal.OP_OPEN, epoch=3, code="deadbeef", cells=3)
        led.close()
        healed = FabricLedger(path).replay()
        assert healed.torn_tail is False
        assert healed.epoch == 3 and healed.records == 10

    def test_missing_trailing_newline_is_not_torn(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        build_ledger(path)
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        led = FabricLedger(path)
        state = led.replay()
        assert state.records == 10 and not state.torn_tail
        # The next append starts on a fresh line, not glued to the tail.
        led.append(wal.OP_OPEN, epoch=3, code="deadbeef", cells=3)
        led.close()
        assert FabricLedger(path).replay().epoch == 3

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_every_cut_point_resumes_or_names_the_byte(self, tmp_path_factory, data):
        """The satellite property: truncate the WAL at *any* byte and
        recovery either resumes exactly (a torn tail — cut in the final
        line) or fails with a diagnostic naming the byte offset (cut
        that destroyed an earlier record).  Never a silent wrong state,
        and replay after repair never raises."""
        tmp_path = tmp_path_factory.mktemp("cuts")
        path = tmp_path / "ledger.jsonl"
        build_ledger(path)
        whole = path.read_bytes()
        cut = data.draw(st.integers(min_value=0, max_value=len(whole) - 1))
        path.write_bytes(whole[:cut])
        last_boundary = whole[:cut].rfind(b"\n") + 1  # start of the cut line
        state = FabricLedger(path).replay()
        # A cut can only ever tear the final line of the truncated file;
        # everything before the last newline replays verbatim.
        expected_whole_records = whole[:last_boundary].count(b"\n")
        next_newline = whole.find(b"\n", last_boundary)
        if cut == next_newline:
            # The cut removed exactly the trailing newline: the final
            # record is whole and replays; only the terminator is gone.
            assert state.records == expected_whole_records + 1
            assert not state.torn_tail
        elif cut == last_boundary:
            # Clean record boundary: nothing was torn at all.
            assert state.records == expected_whole_records
            assert not state.torn_tail
        else:
            # Mid-record cut: the partial final line is a torn tail.
            assert state.records == expected_whole_records
            assert state.torn_tail

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_mid_file_damage_names_the_offset(self, tmp_path_factory, data):
        """Damage *before* the tail (a lost or mangled middle line) is
        unrepairable: replay must raise LedgerCorrupt carrying the byte
        offset of the first bad line, not resume silently."""
        tmp_path = tmp_path_factory.mktemp("damage")
        path = tmp_path / "ledger.jsonl"
        build_ledger(path)
        lines = path.read_bytes().splitlines(keepends=True)
        victim = data.draw(st.integers(min_value=0, max_value=len(lines) - 2))
        flip = data.draw(st.sampled_from(["drop", "garble"]))
        if flip == "drop":
            del lines[victim]  # seq gap at the splice point
            bad_line = victim
        else:
            lines[victim] = b'{"seq": 0, "broken": true}\n'
            bad_line = victim
        path.write_bytes(b"".join(lines))
        with pytest.raises(LedgerCorrupt) as excinfo:
            FabricLedger(path).replay()
        err = excinfo.value
        assert err.offset == sum(len(l) for l in lines[:bad_line])
        assert err.line_no == bad_line + 1
        assert str(err.offset) in str(err)


class TestCorruption:
    def test_checksum_mismatch_detected(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        build_ledger(path)
        lines = path.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[1])
        record["worker"] = "tampered"  # checksum no longer matches
        lines[1] = json.dumps(record, sort_keys=True).encode() + b"\n"
        path.write_bytes(b"".join(lines))
        with pytest.raises(LedgerCorrupt, match="checksum mismatch"):
            FabricLedger(path).replay()

    def test_seq_gap_detected(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        led = FabricLedger(path)
        led.replay()
        led.append(wal.OP_OPEN, epoch=1, code="c", cells=1)
        led.append(wal.OP_DRAIN, epoch=1, source="x")
        led.append(wal.OP_CLOSE, epoch=1, state="aborted")
        led.close()
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + lines[2])  # lose the middle record
        with pytest.raises(LedgerCorrupt, match="sequence gap"):
            FabricLedger(path).replay()

    def test_unknown_op_rejected_on_append_and_replay(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        led = FabricLedger(path)
        led.replay()
        with pytest.raises(ValueError, match="unknown ledger op"):
            led.append("invent", epoch=1)
        record = {"seq": 1, "op": "invent", "epoch": 1}
        record["check"] = checksum(record)
        path.write_bytes(json.dumps(record, sort_keys=True).encode() + b"\n")
        with pytest.raises(LedgerCorrupt, match="unknown op"):
            FabricLedger(path).replay()

    def test_ledger_summary_surfaces_corruption(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_bytes(b'{"not": "a record"}\n{"also": "bad"}\n')
        with pytest.raises(LedgerCorrupt) as excinfo:
            ledger_summary(path)
        assert excinfo.value.offset == 0 and excinfo.value.line_no == 1
