"""Variation studies: spec validation, execution, determinism, adapters."""

import json

import pytest

from repro import serialize
from repro.reporting import (
    StudySpec,
    VariationRecord,
    records_from_fault_study,
    records_from_sim_figure,
    run_variation_study,
    validate_variation_record,
    wrap_records,
)
from repro.reporting.study import HEALTHY, build_setup

from .conftest import TINY_SPEC_KWARGS


class TestStudySpec:
    def test_roundtrip_through_dict(self, tiny_spec):
        again = StudySpec.from_dict(tiny_spec.to_dict())
        assert again == tiny_spec

    def test_roundtrip_through_file(self, tiny_spec, tmp_path):
        path = tmp_path / "spec.json"
        tiny_spec.save(path)
        assert StudySpec.load(path) == tiny_spec

    def test_roundtrip_through_serialize(self, tiny_spec):
        assert serialize.from_dict(serialize.to_dict(tiny_spec)) == tiny_spec

    def test_unknown_keys_rejected(self, tiny_spec):
        payload = tiny_spec.to_dict()
        payload["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            StudySpec.from_dict(payload)

    def test_wrong_type_tag_rejected(self):
        with pytest.raises(ValueError, match="variation_study_spec"):
            StudySpec.from_dict({"type": "topology"})

    @pytest.mark.parametrize("bad", [
        dict(topology="mesh"),
        dict(replications=0),
        dict(num_rates=1),
        dict(engines=()),
        dict(fault_sets=()),
    ])
    def test_invalid_fields_rejected(self, bad):
        with pytest.raises(ValueError):
            StudySpec(**{**TINY_SPEC_KWARGS, **bad})

    @pytest.mark.parametrize("engine", ["batch", "antigravity"])
    def test_unknown_engine_rejected(self, engine):
        """A bad engine name fails at construction, not when its cell runs."""
        with pytest.raises(ValueError, match="reference.*fast.*vector"):
            StudySpec(**{**TINY_SPEC_KWARGS,
                         "engines": ("fast", engine)})

    def test_cells_counts_the_grid(self, tiny_spec):
        assert tiny_spec.cells == 3 * 2 * 2 == 12


class TestRunVariationStudy:
    def test_one_record_per_cell(self, tiny_spec, tiny_study):
        assert len(tiny_study.records) == tiny_spec.cells
        names = [r.name for r in tiny_study.records]
        assert len(set(names)) == len(names)
        assert "OP/healthy/fast" in names
        assert "R1/link-0/reference" in names

    def test_records_validate_and_roundtrip(self, tiny_study):
        for r in tiny_study.records:
            payload = r.to_dict()
            validate_variation_record(payload)
            json.dumps(payload, allow_nan=False)
            again = serialize.from_dict(payload)
            assert isinstance(again, VariationRecord)
            assert again.to_dict() == payload

    def test_measurements_are_parallel_to_rates(self, tiny_spec, tiny_study):
        for r in tiny_study.records:
            assert len(r.rates) == tiny_spec.num_rates
            assert len(r.latency) == len(r.throughput) == len(r.rates)
            assert r.replications == tiny_spec.replications

    def test_repair_gap_only_on_fault_cells(self, tiny_study):
        for r in tiny_study.records:
            if r.fault_set == HEALTHY:
                assert r.repair_gap is None

    def test_rerun_is_deterministic(self, tiny_spec, tiny_study):
        again = run_variation_study(tiny_spec)
        assert again.deterministic_payload() == \
            tiny_study.deterministic_payload()

    def test_parallel_run_matches_serial(self, tiny_spec, tiny_study):
        again = run_variation_study(tiny_spec, workers=2)
        assert again.deterministic_payload() == \
            tiny_study.deterministic_payload()

    def test_record_lookup_by_name(self, tiny_study):
        assert tiny_study.record("OP/healthy/fast").mapping == "OP"
        with pytest.raises(KeyError):
            tiny_study.record("nope")

    def test_partitioning_fault_set_rejected(self, tiny_spec):
        spec = StudySpec(**{**TINY_SPEC_KWARGS,
                            "fault_sets": ("L0-999",)})
        with pytest.raises(ValueError):
            run_variation_study(spec)

    def test_unknown_fault_label_rejected(self, tiny_spec):
        spec = StudySpec(**{**TINY_SPEC_KWARGS, "fault_sets": ("bogus",)})
        with pytest.raises(ValueError, match="unknown fault set"):
            run_variation_study(spec)


class TestValidateVariationRecord:
    def _valid(self, tiny_study):
        return tiny_study.records[0].to_dict()

    def test_not_a_dict(self):
        with pytest.raises(ValueError, match="must be a dict"):
            validate_variation_record([1, 2])

    def test_missing_key(self, tiny_study):
        d = self._valid(tiny_study)
        del d["peak_throughput"]
        with pytest.raises(ValueError, match="missing"):
            validate_variation_record(d)

    def test_unknown_key(self, tiny_study):
        d = self._valid(tiny_study)
        d["extra"] = 1
        with pytest.raises(ValueError, match="unknown"):
            validate_variation_record(d)

    def test_nonfinite_value(self, tiny_study):
        d = self._valid(tiny_study)
        d["latency"][0]["mean"] = float("nan")
        with pytest.raises(ValueError, match="finite"):
            validate_variation_record(d)

    def test_latency_not_parallel_to_rates(self, tiny_study):
        d = self._valid(tiny_study)
        d["latency"] = d["latency"][:-1]
        with pytest.raises(ValueError, match="parallel"):
            validate_variation_record(d)

    def test_bad_entry_shape(self, tiny_study):
        d = self._valid(tiny_study)
        d["throughput"][0] = {"mean": 1.0}
        with pytest.raises(ValueError, match="mean/lo/hi"):
            validate_variation_record(d)

    def test_bad_replications(self, tiny_study):
        d = self._valid(tiny_study)
        d["replications"] = 0
        with pytest.raises(ValueError, match="replications"):
            validate_variation_record(d)


class TestAdapters:
    @pytest.fixture(scope="class")
    def fig_result(self):
        from repro.experiments.fig3_sim16 import run_sim_figure
        from repro.simulation.config import SimulationConfig

        spec = StudySpec(**TINY_SPEC_KWARGS)
        setup = build_setup(spec)
        return run_sim_figure(
            "fig-tiny", setup, num_random=1, num_points=3,
            config=SimulationConfig(warmup_cycles=100, measure_cycles=300,
                                    seed=5),
        )

    def test_sim_figure_records(self, fig_result):
        records = records_from_sim_figure(fig_result, engine="fig3")
        assert [r.name for r in records] == \
            ["OP/healthy/fig3", "R1/healthy/fig3"]
        for r in records:
            validate_variation_record(r.to_dict())
            assert r.peak_throughput is not None
            assert len(r.latency) == len(r.rates)
            # single sweep: the CI collapses to the point estimate
            assert r.latency[-1]["lo"] == r.latency[-1]["hi"]

    def test_fault_study_records(self):
        from repro.experiments.failures import run_fault_study
        from repro.faults.model import single_link_scenarios

        spec = StudySpec(**TINY_SPEC_KWARGS)
        setup = build_setup(spec)
        scenarios = single_link_scenarios(setup.topology)[:2]
        res = run_fault_study(setup, scenarios, seed=1)
        records = records_from_fault_study(res)
        assert len(records) == 2
        for r in records:
            validate_variation_record(r.to_dict())
            assert r.engine == "faults"
            assert r.rates == [] and r.peak_throughput is None

    def test_wrap_records_recovers_the_grid(self, fig_result):
        records = records_from_sim_figure(fig_result, engine="fig3")
        result = wrap_records(records, name="wrapped", switches=8)
        assert result.spec.name == "wrapped"
        assert result.spec.engines == ("fig3",)
        assert result.spec.num_random == 1
        assert result.rates == records[0].rates

    def test_wrap_records_rejects_empty(self):
        with pytest.raises(ValueError):
            wrap_records([])
