"""Reference encoding of the `check` report.

`report_to_json` is the dictionary form of a SufficiencyReport, and
`reference_report` encodes a whole report with json.dumps(indent=1).  The
command line writes the subsets list from templates instead; tests compare
its output with this reference byte for byte.
"""

import json

from sparse_closure.rational import format_matrix


def report_to_json(report) -> dict:
    """The sufficient-condition object, with 1-based hidden indices; when no
    subset is listed (N_1 above the cap), the number of multisets decided."""
    if not report.subset_verdicts:
        return {
            "condition1_full_output_mask": report.condition1_full_output_mask,
            "subsets": None,
            "verdicts": report.verdicts,
            "holds": report.holds,
        }
    return {
        "condition1_full_output_mask": report.condition1_full_output_mask,
        "subsets": [
            {
                "hidden": [i + 1 for i in sv.hidden],
                "status": sv.status.value,
                "rule": sv.rule,
            }
            for sv in report.subset_verdicts
        ],
        "holds": report.holds,
    }


def reference_report(verdict, sentence_path=None, verification=None, report=None) -> str:
    """The text `check` prints for these parts (without the final newline);
    verification is the witness_verification object or None when absent,
    report the SufficiencyReport or None for a null sufficient_condition."""
    payload = {
        "status": verdict.status.value,
        "rule": verdict.rule,
        "witness": format_matrix(verdict.witness) if verdict.witness else None,
        "sentence_path": sentence_path,
    }
    if verification is not None:
        payload["witness_verification"] = verification
    payload["sufficient_condition"] = None if report is None else report_to_json(report)
    return json.dumps(payload, indent=1)
