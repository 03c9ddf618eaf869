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
    (["catalog"], "efc9a873582728916bdb3803f8c11d2462d3e5ccd49d223f810407a4cbc53f44"),
    (["verify-md"], "6b96835f31a58872f3772e3999059de3f8238d7d7ce9cb890632f9b4ff3b3a14"),
    (["classify"], "801d92fe17aa867b9bd853fcfed4c54a219510bbbc6953165f65bd0030a4ac7d"),
    (["ktheory"], "c135bbd7f1f83b692b34549c0845378fc1b0afe27e6fd0177728a3ecd2730f9a"),
    (["verify-claims"], "fb61bea410cd258d415af7a89513708255b07e28b76b1ef05e50914822bd438a"),
    (README_ORBIT, "a6a2d83211681f19704cddcf907ac85bac3190b4516bf08ca634a4529cb3e1e1"),
]


@pytest.mark.parametrize("args,digest", DIGESTS, ids=[a[0] for a, _ in DIGESTS])
def test_default_payload_digest(args, digest, tmp_path, monkeypatch):
    for name in ("SEED", "SAMPLES", "TOL_RANK", "TOL_LEAF", "TOL_MAP",
                 "OUTPUT", "FORMAT"):
        monkeypatch.delenv(f"MD53C_{name}", raising=False)
    out = tmp_path / "payload.json"
    assert main([*args, "--seed", "1729", "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
