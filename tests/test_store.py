"""Cache-safety tests for the content-addressed result store.

A cache that can return stale or corrupted data is worse than no cache:
these tests pin the failure modes down to misses, never crashes and
never wrong answers — stale code versions become unreachable keys,
truncated/tampered documents fail their checksum, and ``verify``/``gc``
surface and reap the debris.
"""

import json

import pytest

from repro.request import Mode
from repro.sim.export import result_to_dict
from repro.sim.results import KernelResult, SimResult
from repro.store import CODE_VERSION_ENV, ResultStore, fingerprint


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def put_sample(store, key="k" * 64, value=None):
    value = value if value is not None else {"cycles": 123, "fairness": 0.5}
    store.put(key, value, meta={"kind": "competitive", "label": "sample"})
    return key, value


class TestRoundtrip:
    def test_put_get(self, store):
        key, value = put_sample(store)
        assert store.get(key) == value
        assert store.stats.hits == 1
        assert store.stats.writes == 1

    def test_missing_is_a_miss(self, store):
        assert store.get("0" * 64) is None
        assert store.stats.misses == 1

    def test_put_is_atomic_no_temp_left_behind(self, store):
        key, _ = put_sample(store)
        leftovers = [p for p in store.objects.rglob("*") if p.name.startswith(".")]
        assert leftovers == []

    def test_overwrite_same_content_is_fine(self, store):
        key, value = put_sample(store)
        store.put(key, value, meta={"kind": "competitive"})
        assert store.get(key) == value

    def test_journal_records_puts(self, store):
        put_sample(store)
        events = store.journal_entries()
        assert [e["event"] for e in events] == ["put"]
        assert events[0]["kind"] == "competitive"

    def test_read_disabled_misses_but_writes(self, tmp_path):
        store = ResultStore(tmp_path / "s", read_enabled=False)
        key, value = put_sample(store)
        assert store.get(key) is None
        assert store.stats.misses == 1
        # A reading store on the same root sees the write.
        assert ResultStore(tmp_path / "s").get(key) == value


class TestCorruption:
    def test_truncated_file_is_a_miss_not_a_crash(self, store):
        key, _ = put_sample(store)
        path = store._path(key)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.get(key) is None
        assert store.stats.corrupt == 1

    def test_tampered_value_fails_checksum(self, store):
        key, _ = put_sample(store)
        path = store._path(key)
        document = json.loads(path.read_text())
        document["value"]["fairness"] = 0.99  # checksum now disagrees
        path.write_text(json.dumps(document))
        assert store.get(key) is None
        assert store.stats.corrupt == 1

    def test_wrong_key_in_document_is_corrupt(self, store):
        key, value = put_sample(store)
        other = "f" * 64
        target = store._path(other)
        target.parent.mkdir(parents=True, exist_ok=True)
        store._path(key).rename(target)
        assert store.get(other) is None
        assert store.stats.corrupt == 1

    def test_verify_classifies_corrupt(self, store):
        key, _ = put_sample(store)
        put_sample(store, key="a" * 64)
        store._path(key).write_text("{not json")
        report = store.verify()
        assert len(report["ok"]) == 1
        assert len(report["corrupt"]) == 1
        assert report["corrupt"][0].key == key

    def test_gc_reaps_corrupt(self, store):
        key, _ = put_sample(store)
        store._path(key).write_text("")
        removed = store.gc()
        assert removed["corrupt"] == 1
        assert not store._path(key).exists()


class TestCodeVersionInvalidation:
    def test_new_code_version_changes_key_and_stales_old_entries(
        self, tmp_path, monkeypatch
    ):
        from repro.store import code_version

        monkeypatch.setenv(CODE_VERSION_ENV, "build-1")
        store = ResultStore(tmp_path / "s")
        key_v1 = fingerprint({"kind": "cell", "code": code_version()})
        store.put(key_v1, {"cycles": 1}, meta={"kind": "competitive"})
        assert store.get(key_v1) == {"cycles": 1}

        monkeypatch.setenv(CODE_VERSION_ENV, "build-2")
        payload_v2 = {"kind": "cell", "code": code_version()}
        key_v2 = fingerprint(payload_v2)
        assert key_v2 != key_v1  # old result is unreachable, not stale-served
        assert store.get(key_v2) is None

        # verify() flags the v1 entry as stale under the new code version...
        report = store.verify()
        assert [e.key for e in report["stale"]] == [key_v1]
        # ...and gc reaps it.
        assert store.gc() == {"stale": 1, "corrupt": 0}
        assert list(store.entries()) == []

    def test_schema_bump_is_stale(self, store, monkeypatch):
        key, _ = put_sample(store)
        path = store._path(key)
        document = json.loads(path.read_text())
        document["schema"] = 999
        path.write_text(json.dumps(document))
        assert store.get(key) is None  # stale schema never hits
        statuses = {e.key: e.status for e in store.entries()}
        assert statuses[key] == "stale"


class TestSimResultRoundtrip:
    def make_result(self):
        result = SimResult(
            cycles=5000,
            bank_level_parallelism=3.5,
            row_buffer_hit_rate=0.75,
            mode_switches=12,
            switches_to_pim=6,
            additional_conflicts_per_switch=1.25,
            mem_drain_latency_per_switch=40.5,
            mode_cycles={Mode.MEM: 3000, Mode.PIM: 2000},
            noc_rejects=17,
            telemetry={"hops": {"noc": {"p50": 12}}, "events": {"refresh": 3}},
        )
        result.kernels[0] = KernelResult(
            kernel_id=0, name="g", is_pim=False, first_duration=4000,
            completions=1, requests_injected=100, mc_arrivals=80,
            l2_accesses=90, l2_hits=30, dram_row_hits=50,
            dram_row_misses=20, dram_row_conflicts=10,
        )
        result.kernels[1] = KernelResult(kernel_id=1, name="p", is_pim=True)
        return result

    def test_exact_roundtrip(self):
        result = self.make_result()
        assert SimResult.from_payload(result_to_dict(result)) == result

    def test_roundtrip_through_json_and_store(self, store):
        result = self.make_result()
        key = "b" * 64
        store.put(key, result_to_dict(result), meta={"kind": "standalone"})
        loaded = SimResult.from_payload(store.get(key))
        assert loaded == result
        assert loaded.telemetry == result.telemetry
        assert loaded.mode_cycles[Mode.PIM] == 2000
