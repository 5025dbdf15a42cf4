"""Unit tests for the CI benchmark regression gate (repro.bench.regression)."""

import json

import pytest

from repro.bench.regression import (
    ADVISORY_GATES,
    DEFAULT_TOLERANCE,
    GATES,
    RegressionGateError,
    check_advisory_gates,
    check_all_gates,
    check_regression,
    extract_events_per_sec,
    main,
)


def artifact(events_per_sec, subscriptions=1000, extra_scales=(),
             expectations_events_per_sec=2000,
             substream_events_per_sec=None):
    scales = [{"subscriptions": 10, "events_per_sec_dfa": 99999}]
    scales.extend(extra_scales)
    scales.append({"subscriptions": subscriptions,
                   "events_per_sec_dfa": events_per_sec,
                   # The reference mode's column: recorded, never gated.
                   "events_per_sec_expectations": expectations_events_per_sec})
    data = {"automaton_sdi": {"scales": scales}}
    if substream_events_per_sec is not None:
        data["substream_extraction"] = {"scales": [
            {"subscriptions": subscriptions,
             "events_per_sec_substream": substream_events_per_sec}]}
    return data


class TestExtract:
    def test_picks_the_gated_scale(self):
        assert extract_events_per_sec(artifact(2500)) == 2500

    def test_missing_section_fails_loudly(self):
        with pytest.raises(RegressionGateError):
            extract_events_per_sec({"other_section": {}})

    def test_missing_scale_fails_loudly(self):
        data = {"automaton_sdi": {"scales": [
            {"subscriptions": 10, "events_per_sec_dfa": 1}]}}
        with pytest.raises(RegressionGateError):
            extract_events_per_sec(data)

    def test_missing_metric_fails_loudly(self):
        data = {"automaton_sdi": {"scales": [{"subscriptions": 1000}]}}
        with pytest.raises(RegressionGateError):
            extract_events_per_sec(data)


class TestCheckRegression:
    def test_unchanged_throughput_passes(self):
        report = check_regression(artifact(2000), artifact(2000))
        assert report.ok
        assert report.ratio == 1.0

    def test_improvement_passes(self):
        assert check_regression(artifact(2000), artifact(3000)).ok

    def test_drop_within_tolerance_passes(self):
        # 25% tolerance: 1500/2000 = 75% is exactly at the edge and passes.
        assert check_regression(artifact(2000), artifact(1500)).ok

    def test_drop_beyond_tolerance_fails(self):
        report = check_regression(artifact(2000), artifact(1499))
        assert not report.ok
        assert "REGRESSION" in report.describe()

    def test_custom_tolerance(self):
        assert not check_regression(artifact(2000), artifact(1900),
                                    tolerance=0.01).ok
        assert check_regression(artifact(2000), artifact(1900),
                                tolerance=0.10).ok

    def test_tolerance_validated(self):
        with pytest.raises(ValueError):
            check_regression(artifact(1), artifact(1), tolerance=1.5)

    def test_default_tolerance_is_25_percent(self):
        assert DEFAULT_TOLERANCE == 0.25


class TestGateTable:
    def test_only_the_default_backend_is_gated(self):
        assert GATES == (("automaton_sdi", "events_per_sec_dfa"),)

    def test_check_all_gates_reports_per_gate(self):
        reports = check_all_gates(artifact(400000), artifact(400000))
        assert len(reports) == len(GATES)
        assert all(report.ok for report in reports)

    def test_dfa_regression_fails_whatever_the_reference_column_does(self):
        (report,) = check_all_gates(
            artifact(400000, expectations_events_per_sec=2000),
            artifact(100000, expectations_events_per_sec=9000))
        assert not report.ok
        assert "automaton_sdi" in report.describe()

    def test_reference_column_is_not_gated(self):
        (report,) = check_all_gates(
            artifact(400000, expectations_events_per_sec=2000),
            artifact(400000, expectations_events_per_sec=1))
        assert report.ok

    def test_missing_dfa_section_fails_loudly(self):
        with pytest.raises(RegressionGateError):
            check_all_gates({"substream_extraction": {"scales": [
                {"subscriptions": 1000, "events_per_sec_substream": 1}]}},
                artifact(1))


class TestAdvisoryGates:
    def test_substream_gate_is_advisory_not_blocking(self):
        gate = ("substream_extraction", "events_per_sec_substream")
        assert gate in ADVISORY_GATES
        assert gate not in GATES

    def test_missing_section_is_skipped_not_an_error(self):
        # Baselines committed before the section existed must not break
        # the pipeline: no substream section on either side -> no reports.
        assert check_advisory_gates(artifact(2000), artifact(2000)) == []
        # ...nor when only the fresh artifact has it.
        assert check_advisory_gates(
            artifact(2000),
            artifact(2000, substream_events_per_sec=70000)) == []

    def test_present_sections_are_compared(self):
        reports = check_advisory_gates(
            artifact(2000, substream_events_per_sec=80000),
            artifact(2000, substream_events_per_sec=20000))
        assert len(reports) == 1
        assert reports[0].section == "substream_extraction"
        assert not reports[0].ok


class TestMain:
    def write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    def test_ok_exit_code(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", artifact(2000))
        fresh = self.write(tmp_path, "fresh.json", artifact(2100))
        assert main([base, fresh]) == 0
        assert "OK" in capsys.readouterr().out

    def test_regression_exit_code(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", artifact(2000))
        fresh = self.write(tmp_path, "fresh.json", artifact(100))
        assert main([base, fresh]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_dfa_regression_alone_fails_the_gate(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", artifact(
            400000, substream_events_per_sec=80000))
        fresh = self.write(tmp_path, "fresh.json", artifact(
            100000, substream_events_per_sec=80000))
        assert main([base, fresh]) == 1
        out = capsys.readouterr().out
        assert "OK" in out and "REGRESSION" in out

    def test_advisory_regression_never_fails_the_build(self, tmp_path,
                                                       capsys):
        base = self.write(tmp_path, "base.json",
                          artifact(2000, substream_events_per_sec=80000))
        fresh = self.write(tmp_path, "fresh.json",
                           artifact(2000, substream_events_per_sec=20000))
        assert main([base, fresh]) == 0
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "(advisory)" in out

    def test_broken_artifact_exit_code(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", {"nope": 1})
        fresh = self.write(tmp_path, "fresh.json", artifact(2000))
        assert main([base, fresh]) == 2
        assert "regression gate" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        fresh = self.write(tmp_path, "fresh.json", artifact(2000))
        assert main([str(tmp_path / "absent.json"), fresh]) == 2

    def test_gate_accepts_the_committed_artifact(self):
        # The artifact committed at the repository root must always satisfy
        # every gate's schema, or CI would fail on every build.
        from repro.bench.reporting import (
            MULTI_QUERY_SDI_ARTIFACT,
            artifact_path,
        )
        with open(artifact_path(MULTI_QUERY_SDI_ARTIFACT),
                  encoding="utf-8") as handle:
            committed = json.load(handle)
        assert extract_events_per_sec(committed) > 0
        for section, metric in GATES + ADVISORY_GATES:
            assert extract_events_per_sec(committed, section=section,
                                          metric=metric) > 0
