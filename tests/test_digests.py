"""Golden digests: the sha256 of each default-config payload at seed 1729.

"Byte-identical" is a claim about these files, so it is checked here.  A
change that moves a digest changes a report, and must say so and re-pin.
The digests were taken with Python 3.11 and numpy 2.4 on x86-64; another
numpy build may round a computed float differently.
"""

import hashlib
from dataclasses import fields

import pytest

from md53c.cli import RunConfig, main

README_ORBIT = ["orbit", "--family", "F1", "--lambda1", "2", "--lambda2", "3",
                "--point", "1,0,1,0,0", "--word", "2:0.693", "--eval", "5,0.693"]

DIGESTS = [
    (["catalog"], "0a5a79ec9774deca7669049042d35cd2ff9794a1daa6d65e30e903eefd704ed4"),
    (["verify-md"], "dd7480187090696d4142f489305a8a486ac1051ee9943c01ffeab2a31424e0d7"),
    (["classify"], "ca729473085efe66c0b40885a2a84af5509bc31443dc0efe5051b45d20d78b98"),
    (["ktheory"], "830cb94c9d43e04470c5155757414ab3ba07babff2044407077bf23e6455255b"),
    (["verify-claims"], "0d28f726bb3f052ae74fb10b1c04cae5d76952739b01f08888085c74e9c21c54"),
    (README_ORBIT, "17245f151bbb29b5ad0406677233c2d50fcd739c01942134aef9b3aa9d622154"),
]


@pytest.mark.parametrize("args,digest", DIGESTS, ids=[a[0] for a, _ in DIGESTS])
def test_default_payload_digest(args, digest, tmp_path, monkeypatch):
    # no MD53C_ variable of a setting may reach the run
    for f in fields(RunConfig):
        monkeypatch.delenv(f"MD53C_{f.name.upper()}", raising=False)
    out = tmp_path / "payload.json"
    assert main([*args, "--seed", "1729", "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
