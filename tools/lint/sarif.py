#!/usr/bin/env python3
"""SARIF 2.1.0 writer for uwb_lint findings.

GitHub code-scanning ingests this via the upload-sarif action, turning the
`file:line: [rule] msg` job-log lines into inline PR annotations.
"""

from __future__ import annotations

import json

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")


def to_sarif(findings, rules, tool_version="1.0"):
    """Build the SARIF log dict for a list of uwb_lint Finding objects.
    `rules` maps each rule name to its one-line description."""
    rule_ids = sorted({f.rule for f in findings} | set(rules))
    rule_index = {rid: i for i, rid in enumerate(rule_ids)}
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "uwb_lint",
                    "informationUri":
                        "tools/lint/uwb_lint.py",
                    "version": tool_version,
                    "rules": [{
                        "id": rid,
                        "shortDescription": {
                            "text": rules.get(rid, rid)},
                        "defaultConfiguration": {"level": "error"},
                    } for rid in rule_ids],
                }
            },
            "results": [{
                "ruleId": f.rule,
                "ruleIndex": rule_index[f.rule],
                "level": "error",
                "message": {"text": f.message},
                "locations": [{
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f.path,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": f.line,
                            "startColumn": 1,
                        },
                    }
                }],
            } for f in findings],
            "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
        }],
    }


def write_sarif(findings, rules, path, tool_version="1.0"):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_sarif(findings, rules, tool_version), fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
