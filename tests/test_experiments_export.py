"""Tests for the artifact exporter (JSON/CSV files per table/figure)."""

import csv
import json

import pytest

from repro.experiments import claims
from repro.experiments.export import export_all, main


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("artifacts")
    results = export_all(outdir, benchmarks=["crc", "randmath"])
    return outdir, results


EXPECTED_FILES = [
    "table1_vm_feasibility",
    "table2_exec_time",
    "table3_forward_progress",
    "figure6_energy_breakdown",
    "figure7_allocation_quality",
    "figure8_capacitor_size",
    "ablations",
]


class TestExport:
    def test_all_files_written(self, artifacts):
        outdir, _ = artifacts
        for stem in EXPECTED_FILES:
            assert (outdir / f"{stem}.json").exists(), stem
            assert (outdir / f"{stem}.csv").exists(), stem
        assert (outdir / "summary.json").exists()

    def test_json_parses_and_has_content(self, artifacts):
        outdir, _ = artifacts
        for stem in EXPECTED_FILES:
            payload = json.loads((outdir / f"{stem}.json").read_text())
            assert payload, stem

    def test_csv_headers_match_rows(self, artifacts):
        outdir, _ = artifacts
        for stem in EXPECTED_FILES:
            with (outdir / f"{stem}.csv").open() as handle:
                reader = csv.reader(handle)
                header = next(reader)
                for row in reader:
                    assert len(row) == len(header), stem

    def test_summary_headlines(self, artifacts):
        """summary.json is the claims table: every claim, in order, with
        its measured value, the paper's and its verdict. Only the
        analysis-cost claim is n/a (that section is not exported)."""
        outdir, _ = artifacts
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["benchmarks"] == ["crc", "randmath"]
        rows = summary["claims"]
        assert [r["name"] for r in rows] == [c.name for c in claims.CLAIMS]
        assert set(rows[0]) == {"name", "measured", "paper", "holds"}
        unevaluated = [r["name"] for r in rows if r["holds"] is None]
        assert unevaluated == [
            c.name for c in claims.CLAIMS if c.section == "Analysis cost"
        ]
        assert all(r["holds"] for r in rows if r["holds"] is not None)

    def test_table1_csv_feasibility_values(self, artifacts):
        outdir, _ = artifacts
        with (outdir / "table1_vm_feasibility.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        schematic_rows = [r for r in rows if r["technique"] == "schematic"]
        assert schematic_rows
        assert all(r["feasible"] == "1" for r in schematic_rows)

    def test_figure6_totals_positive(self, artifacts):
        outdir, _ = artifacts
        with (outdir / "figure6_energy_breakdown.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        for row in rows:
            assert float(row["total_nj"]) > 0


@pytest.mark.parametrize("argv", [["--quik"], ["out", "extra"]])
def test_bad_arguments_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
