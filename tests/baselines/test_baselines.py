"""Tests for the §V comparison baselines."""

import pytest

from repro.baselines.full_record import FullRecordSharingBaseline
from repro.baselines.onchain_storage import OnChainStorageBaseline
from repro.workloads.generator import MedicalRecordGenerator


class TestFullRecordSharing:
    @pytest.fixture
    def baseline(self, doctor_table):
        baseline = FullRecordSharingBaseline()
        baseline.register_provider_table("doctor", doctor_table)
        baseline.grant_access("doctor", "patient", "D3")
        baseline.grant_access("doctor", "researcher", "D3")
        return baseline

    def test_download_returns_whole_table(self, baseline, doctor_table):
        downloaded = baseline.download("doctor", "researcher", "D3")
        assert downloaded == doctor_table
        assert set(downloaded.schema.column_names) == set(doctor_table.schema.column_names)

    def test_download_without_grant_rejected(self, baseline):
        with pytest.raises(PermissionError):
            baseline.download("doctor", "insurer", "D3")

    def test_grant_requires_registered_table(self, baseline):
        with pytest.raises(KeyError):
            baseline.grant_access("doctor", "patient", "MISSING")

    def test_exposure_matrix(self, baseline):
        matrix = baseline.exposure_matrix()
        assert set(matrix["researcher"]) == {"patient_id", "medication_name",
                                             "clinical_data", "dosage",
                                             "mechanism_of_action"}

    def test_unnecessary_exposure_quantified(self, baseline):
        needed = {"researcher": ("medication_name", "mechanism_of_action")}
        unnecessary = baseline.unnecessary_exposure(needed)
        assert set(unnecessary["researcher"]) == {"patient_id", "clinical_data", "dosage"}
        # A consumer with no declared needs sees everything as unnecessary.
        assert len(unnecessary["patient"]) == 5


class TestOnChainStorage:
    def test_records_are_stored_in_blocks(self):
        baseline = OnChainStorageBaseline()
        records = MedicalRecordGenerator(seed=21).records(10)
        baseline.store_records(records, mine_every=4)
        assert baseline.records_stored == 10
        assert baseline.block_count() >= 3
        assert baseline.chain.verify_chain()

    def test_storage_grows_with_record_count(self):
        small = OnChainStorageBaseline()
        small.store_records(MedicalRecordGenerator(seed=22).records(5))
        large = OnChainStorageBaseline()
        large.store_records(MedicalRecordGenerator(seed=22).records(50))
        assert large.per_node_storage_bytes() > small.per_node_storage_bytes()

    def test_update_payloads_append(self):
        baseline = OnChainStorageBaseline()
        baseline.store_record(MedicalRecordGenerator(seed=23).record())
        baseline.store_update(188, {"dosage": "changed"})
        baseline.finalize()
        assert baseline.block_count() >= 1
        payloads = [tx.payload for tx in baseline.chain.transactions()]
        assert any("update" in payload for payload in payloads)
