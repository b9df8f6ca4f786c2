"""CLI output against golden files.

Each file under tests/golden/ holds the output of one command with every
``elapsed_ms`` value replaced by 0.0; the test reruns the command and
compares byte for byte.
"""

import re
from pathlib import Path

import pytest

from modinv import cli

GOLDEN = Path(__file__).parent / "golden"
_ELAPSED = re.compile(r'"elapsed_ms": [0-9.e+-]+')

CASES = [
    ("verify_all_small.json", ["verify", "--prime", "all-small", "--theorem", "all", "--format", "json"]),
    ("stable_p7_L1.json", ["stable", "--prime", "7", "--group", "L:1"]),
    ("gen_p7_transvections.json", ["gen", "--prime", "7", "--reflections", "1,1;0,1 1,0;1,1"]),
    ("stable_p11_L1.json", ["stable", "--prime", "11", "--group", "L:1"]),
    ("gen_p11_transvections.json", ["gen", "--prime", "11", "--reflections", "1,1;0,1 1,0;1,1"]),
    ("verify_p11_formules.json", ["verify", "--prime", "11", "--theorem", "formules", "--format", "json"]),
    ("verify_p13_formules.json", ["verify", "--prime", "13", "--theorem", "formules", "--format", "json"]),
    ("gen_p7_upper_diag.json", ["gen", "--prime", "7", "--reflections", "1,1;0,1 3,0;0,1"]),
    # diagonal reflections only: the operators divide by x and by y
    ("gen_p7_diagonal.json", ["gen", "--prime", "7", "--reflections", "6,0;0,1 1,0;0,6"]),
    ("invariants_p7_L1_d60.json", ["invariants", "--prime", "7", "--group", "L:1", "--max-degree", "60"]),
    ("stable_p7_U1_3.json", ["stable", "--prime", "7", "--group", "U:1,3"]),
    ("verify_p11_calculinvest.json", ["verify", "--prime", "11", "--theorem", "calculinvest", "--format", "json"]),
    ("verify_p11_basedos.json", ["verify", "--prime", "11", "--theorem", "basedos", "--format", "json"]),
]


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(capsys, name, argv):
    assert cli.cli_main(argv) == 0
    out = _ELAPSED.sub('"elapsed_ms": 0.0', capsys.readouterr().out)
    assert out == (GOLDEN / name).read_text()
