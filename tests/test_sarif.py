"""Golden-file and property tests for the SARIF 2.1.0 export.

The exporter promises byte-stable documents: results deduplicated on
(rule, logical location, message) and ordered by (program, technique,
severity-major finding order), with a rules array covering exactly the
rules that fired. The golden test pins the full document for a small
hand-built finding set; the CLI test checks the end-to-end path.
"""

import json

import pytest

from repro.staticcheck import RULE_SCHEMA_VERSION, Severity, sarif_document
from repro.staticcheck.__main__ import main
from repro.staticcheck.findings import Finding, Location


def _finding(rule_id, severity, function, block, index, message, **details):
    return Finding(
        rule_id=rule_id,
        severity=severity,
        location=Location(function=function, block=block, index=index),
        message=message,
        details=details,
    )


IDEM = _finding(
    "CONS001", Severity.INFO, "main", "for_body2", 3,
    "write to @total after a read of the storage in the same region",
    variable="total",
)
CONS = _finding(
    "CONS003", Severity.ERROR, "main", "entry", 1,
    "VM variable @x read before overwrite; restore set misses it",
    variable="x", checkpoint=1,
)


class TestSarifGolden:
    def test_document_matches_golden(self):
        doc = sarif_document(
            [("warloop", "allnvm", IDEM), ("mini", "schematic", CONS)],
            tool_version="test",
        )
        expected = {
            "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
            "version": "2.1.0",
            "runs": [{
                "tool": {
                    "driver": {
                        "name": "repro-staticcheck",
                        "version": "test",
                        "rules": [
                            {
                                "id": "CONS001",
                                "name": "non-idempotent region observes "
                                        "its own overwrite",
                                "shortDescription": {
                                    "text": "non-idempotent region "
                                            "observes its own overwrite",
                                },
                                "fullDescription": {
                                    "text":
                                    "A re-executed region reads a "
                                    "non-volatile value it already "
                                    "overwrote: the first-access ordering "
                                    "has a read of some storage before a "
                                    "write of the same storage with no "
                                    "taken checkpoint in between "
                                    "(Surbatovich et al.'s WAR/idempotency "
                                    "condition, element-sensitive for "
                                    "constant array indices and "
                                    "interprocedural through callee-first "
                                    "summaries). The second execution "
                                    "observes the first execution's "
                                    "output, so the final memory state can "
                                    "differ from a continuous-power run.",
                                },
                                "defaultConfiguration": {"level": "error"},
                            },
                            {
                                "id": "CONS003",
                                "name": "post-restore read of unrestored "
                                        "volatile state",
                                "shortDescription": {
                                    "text": "post-restore read of "
                                            "unrestored volatile state",
                                },
                                "fullDescription": {
                                    "text":
                                    "After a checkpoint's wake/rollback "
                                    "restore, a VM-resident variable that "
                                    "the checkpoint's restore_vars provably "
                                    "misses is read before being fully "
                                    "overwritten. The restore rebuilds "
                                    "volatile memory from the checkpoint "
                                    "metadata only, so the read observes "
                                    "unrestored (stale or undefined) state.",
                                },
                                "defaultConfiguration": {"level": "error"},
                            },
                        ],
                    },
                },
                "results": [
                    {
                        "ruleId": "CONS003",
                        "level": "error",
                        "message": {
                            "text": "VM variable @x read before "
                                    "overwrite; restore set misses it",
                        },
                        "locations": [{
                            "logicalLocations": [{
                                "fullyQualifiedName":
                                "mini/schematic:@main/.entry[1]",
                                "kind": "function",
                            }],
                        }],
                        "properties": {
                            "program": "mini",
                            "technique": "schematic",
                            "function": "main",
                            "block": "entry",
                            "index": 1,
                            "details": {"variable": "x", "checkpoint": 1},
                        },
                        "ruleIndex": 1,
                    },
                    {
                        "ruleId": "CONS001",
                        "level": "note",
                        "message": {
                            "text": "write to @total after a read of "
                                    "the storage in the same region",
                        },
                        "locations": [{
                            "logicalLocations": [{
                                "fullyQualifiedName":
                                "warloop/allnvm:@main/.for_body2[3]",
                                "kind": "function",
                            }],
                        }],
                        "properties": {
                            "program": "warloop",
                            "technique": "allnvm",
                            "function": "main",
                            "block": "for_body2",
                            "index": 3,
                            "details": {"variable": "total"},
                        },
                        "ruleIndex": 0,
                    },
                ],
            }],
        }
        assert doc == expected
        # Byte-stable under serialization too.
        assert json.dumps(doc, indent=2) == json.dumps(expected, indent=2)

    def test_default_tool_version_tracks_rule_schema(self):
        doc = sarif_document([("p", "t", CONS)])
        version = doc["runs"][0]["tool"]["driver"]["version"]
        assert version == f"rules-v{RULE_SCHEMA_VERSION}"


class TestSarifProperties:
    def test_deduplication(self):
        doc = sarif_document([
            ("p", "t", CONS), ("p", "t", CONS), ("p", "t", CONS),
        ])
        assert len(doc["runs"][0]["results"]) == 1

    def test_same_finding_in_two_cells_is_kept(self):
        doc = sarif_document([("p1", "t", CONS), ("p2", "t", CONS)])
        fqns = [
            r["locations"][0]["logicalLocations"][0]["fullyQualifiedName"]
            for r in doc["runs"][0]["results"]
        ]
        assert fqns == ["p1/t:@main/.entry[1]", "p2/t:@main/.entry[1]"]

    def test_input_order_does_not_matter(self):
        forward = [("a", "t", IDEM), ("b", "t", CONS), ("a", "t", CONS)]
        assert sarif_document(forward) == sarif_document(forward[::-1])

    def test_rules_array_covers_exactly_the_fired_rules(self):
        doc = sarif_document([("p", "t", IDEM)])
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == ["CONS001"]
        (result,) = doc["runs"][0]["results"]
        assert result["ruleIndex"] == 0

    def test_empty_input_is_a_valid_empty_run(self):
        doc = sarif_document([])
        assert doc["runs"][0]["results"] == []
        assert doc["runs"][0]["tool"]["driver"]["rules"] == []


class TestSarifCli:
    def test_format_sarif_end_to_end(self, capsys):
        code = main([
            "--programs", "warloop", "--techniques", "allnvm",
            "--format", "sarif", "--no-cache",
        ])
        assert code == 0  # info-level findings do not gate
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["version"] == "2.1.0"
        results = doc["runs"][0]["results"]
        assert results, "warloop/allnvm exposes CONS001 findings"
        assert all(r["level"] == "note" for r in results)
        # Rerun: byte-identical document (the golden-file property).
        assert main([
            "--programs", "warloop", "--techniques", "allnvm",
            "--format", "sarif", "--no-cache",
        ]) == 0
        assert capsys.readouterr().out == out

    def test_sarif_with_consistency_reports_cons_rules(self, capsys):
        code = main([
            "--programs", "warloop", "--techniques", "allnvm",
            "--consistency", "--format", "sarif", "--no-cache",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        rule_ids = {r["ruleId"] for r in doc["runs"][0]["results"]}
        assert "CONS001" in rule_ids

    def test_cache_stats_line_lands_on_stderr(self, capsys, tmp_path,
                                              monkeypatch):
        argv = ["--programs", "warloop", "--techniques", "ratchet",
                "--consistency", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "cache" in err and "1 misses" in err
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "1 hits" in err

    def test_no_cache_suppresses_stats(self, capsys):
        assert main(["--programs", "warloop", "--techniques", "ratchet",
                     "--no-cache"]) == 0
        assert "cache" not in capsys.readouterr().err
