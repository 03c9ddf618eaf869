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
    (["catalog"], "525f1e284e19db52968e82f10f84ebc99651424d22234ac32134c711972689f0"),
    (["verify-md"], "1c3e3c4569f9ab55d80457322e5a9141718228a0ca21a409f59bce975569f1a8"),
    (["classify"], "3ab2b2777a7764c9252f135ac7df1bbfa3497bb47e7dafc4aacde7aaac98f4d2"),
    (["ktheory"], "426dae7a4094bb0050311c67abd4088e843122c277a175ee52367787a218604c"),
    (["verify-claims"], "512435865a174a525ae22fabf213899d4014db627246284ad04e08c8683ecc75"),
    (README_ORBIT, "9afb5f819e3474bca1bb63f709cf4f05c9e8e294efaa8c64cc3bb89369d058b9"),
]


@pytest.mark.parametrize("args,digest", DIGESTS, ids=[a[0] for a, _ in DIGESTS])
def test_default_payload_digest(args, digest, tmp_path, monkeypatch):
    for name in ("SEED", "SAMPLES", "MD_SAMPLES", "TOL_RANK", "TOL_LEAF", "TOL_MAP",
                 "OUTPUT", "FORMAT"):
        monkeypatch.delenv(f"MD53C_{name}", raising=False)
    out = tmp_path / "payload.json"
    assert main([*args, "--seed", "1729", "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
