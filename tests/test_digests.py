"""Golden digests: the sha256 of each default-config payload at seed 1729.

"Byte-identical" is a claim about these files, so it is checked here.  A
change that moves a digest changes a report, and must say so and re-pin.
The digests were taken with Python 3.11 and numpy 2.4 on x86-64; another
numpy build may round a computed float differently.
"""

import hashlib

import pytest

from md53c.cli import main

README_ORBIT = ["orbit", "--family", "F1", "--lambda1", "2", "--lambda2", "3",
                "--point", "1,0,1,0,0", "--word", "2:0.693", "--eval", "5,0.693"]

DIGESTS = [
    (["catalog"], "019b0590e08d15cd93343f958aec07cee9bc147881cd726e76f1c7acca073eba"),
    (["verify-md"], "1a75bd107fd4851df00136ff9b50aabdcbdc8430e49797f08c321e7cdc377c14"),
    (["classify"], "9460f5aed1be5d763e04d361853dd71a4ff9bbe4ec5cb179dae531a9430bdd4a"),
    (["ktheory"], "307b9bc8189bab2b7001c143f1f0caf6b24fb22e2d9f0df2693d4b28b143a833"),
    (["verify-claims"], "a294e2ac5d2fba24e476797a41bc98ca91d0168537fc9065aa33c0b43d44afdc"),
    (README_ORBIT, "6ab916f66e3334261fe43bed0c36b64c363933c0a5318f263e415dcdeffa28ea"),
]


@pytest.mark.parametrize("args,digest", DIGESTS, ids=[a[0] for a, _ in DIGESTS])
def test_default_payload_digest(args, digest, tmp_path, monkeypatch):
    for name in ("SEED", "SAMPLES", "MD_SAMPLES", "TOL_RANK", "TOL_LEAF", "TOL_MAP",
                 "OUTPUT", "FORMAT"):
        monkeypatch.delenv(f"MD53C_{name}", raising=False)
    out = tmp_path / "payload.json"
    assert main([*args, "--seed", "1729", "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
