"""Stable error codes on the library's exception types.

Every structured failure carries a machine-readable ``code`` so callers
(and the CLI, which prefixes ``error: [CODE] ...``) can branch on the
failure class without parsing prose.  These tests pin the default codes
and the code-override paths.
"""

import re
from pathlib import Path

from repro.analysis import ERROR_CODES
from repro.errors import AnalysisError, SimulationError


class TestDefaultCodes:
    def test_simulation_error(self):
        assert SimulationError("boom").code == "SIM000_SIMULATION"

    def test_analysis_error_default_and_override(self):
        assert AnalysisError("x").code == "ANA000_ANALYSIS"
        coded = AnalysisError(
            "cycle", code="ANA003_CYCLIC_SCHEDULE",
            check="schedule-soundness", task="t#mb0",
        )
        assert coded.code == "ANA003_CYCLIC_SCHEDULE"
        assert coded.check == "schedule-soundness"
        assert coded.task == "t#mb0"


#: Numbers whose code was retired with the check it named; never reused.
RETIRED_NUMBERS = {13}


class TestCatalogue:
    def test_analysis_codes_catalogued_with_descriptions(self):
        numbers = sorted(int(code[3:6]) for code in ERROR_CODES)
        top = max(numbers)
        assert numbers == sorted(set(range(top + 1)) - RETIRED_NUMBERS)
        assert top >= 14
        for code, description in ERROR_CODES.items():
            assert description.strip(), f"{code} has no description"

    def test_verifier_doc_table_lists_exactly_the_catalogue(self):
        doc = Path(__file__).resolve().parents[2] / "docs" / "verifier.md"
        table = doc.read_text(encoding="utf-8").split("## Error codes", 1)[1]
        table = table.split("\n## ", 1)[0]
        documented = re.findall(r"^\| `(ANA\d{3}_[A-Z_]+)` \|", table, re.M)
        assert sorted(documented) == sorted(ERROR_CODES)
        assert len(documented) == len(set(documented))

    def test_cli_prefixes_coded_errors(self, capsys):
        from repro.cli import main

        rc = main(["verify", "definitely-not-an-artifact"])
        _, err = capsys.readouterr()
        assert rc == 1
        assert err.startswith("error: [ANA014_UNKNOWN_ARTIFACT]")

    def test_cli_uncoded_errors_keep_plain_prefix(self, capsys):
        from repro.cli import main

        # An unparseable strategy raises StrategyError, which has no code.
        rc = main([
            "compile", "--model", "mlp", "--batch", "8", "--hidden", "32",
            "--layers", "2", "--workers", "2", "--strategy", "bogus:::",
            "--dry-run",
        ])
        _, err = capsys.readouterr()
        assert rc == 1
        assert err.startswith("error: ") and "[" not in err.splitlines()[0]
