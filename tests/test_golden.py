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
    # every target at p = 13, where grups conjugates groups of up to 26,208 elements
    ("verify_p13_all.json", ["verify", "--prime", "13", "--theorem", "all", "--format", "json"]),
    ("gen_p7_upper_diag.json", ["gen", "--prime", "7", "--reflections", "1,1;0,1 3,0;0,1"]),
    # diagonal reflections only: the operators divide by x and by y
    ("gen_p7_diagonal.json", ["gen", "--prime", "7", "--reflections", "6,0;0,1 1,0;0,6"]),
    ("invariants_p7_L1_d60.json", ["invariants", "--prime", "7", "--group", "L:1", "--max-degree", "60"]),
    ("stable_p7_U1_3.json", ["stable", "--prime", "7", "--group", "U:1,3"]),
    ("verify_p11_calculinvest.json", ["verify", "--prime", "11", "--theorem", "calculinvest", "--format", "json"]),
    ("verify_p11_basedos.json", ["verify", "--prime", "11", "--theorem", "basedos", "--format", "json"]),
    # classify prints the class only; the README example, -omega (not
    # generated by its reflections), order prime to p, and catalog groups
    # conjugated by (2,3;5,7) at p = 13 and by (3,1;4,1) at p = 31
    ("classify_p3_readme.txt", ["classify", "--prime", "3", "--matrices", "2,1;0,1 2,0;0,1"]),
    ("classify_p3_minus_omega.txt", ["classify", "--prime", "3", "--matrices", "2,0;2,2"]),
    ("classify_p13_prime_to_p.txt", ["classify", "--prime", "13", "--matrices", "2,0;0,1"]),
    ("classify_p13_L1.txt", ["classify", "--prime", "13", "--matrices", "7,9;9,8 5,3;12,10"]),
    ("classify_p13_L12.txt", ["classify", "--prime", "13", "--matrices", "7,9;9,8 5,3;12,10 0,5;10,3"]),
    ("classify_p13_U12_12.txt", ["classify", "--prime", "13", "--matrices", "5,3;12,10 0,5;10,3 3,8;3,0"]),
    ("classify_p13_U3_4.txt", ["classify", "--prime", "13", "--matrices", "5,3;12,10 12,10;7,5 2,4;8,7"]),
    ("classify_p31_U30_1.txt", ["classify", "--prime", "31", "--matrices", "28,30;16,5 26,29;24,9"]),
    ("classify_p31_L1.txt", ["classify", "--prime", "31", "--matrices", "1,0;1,1 1,1;0,1"]),
]


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(capsys, name, argv):
    assert cli.cli_main(argv) == 0
    out = _ELAPSED.sub('"elapsed_ms": 0.0', capsys.readouterr().out)
    assert out == (GOLDEN / name).read_text()
