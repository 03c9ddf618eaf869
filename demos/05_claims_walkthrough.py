"""
Running the full claims audit
=============================

Drives the command-line entry point programmatically: every structural
claim is re-derived numerically and the report separates clean
verifications from documented discrepancies.
"""

import json
import tempfile
from pathlib import Path

from md53c.cli import main

# Reduced sample sizes keep this demo quick; the discrepancy set is
# deterministic and does not depend on the sampling effort.
out = Path(tempfile.mkdtemp()) / "claims.json"
code = main(["verify-claims", "--samples", "100", "-o", str(out)])
doc = json.loads(out.read_text())

print(f"exit code {code}; {doc['summary']['claims']} claims checked")
print(f"verified:      {doc['summary']['verified']}")
print(f"discrepancies: {doc['summary']['discrepancies']}")
print(f"out of scope:  {doc['summary']['out_of_scope']}")

print("\nper-claim status:")
for claim in doc["claims"]:
    print(f"  {claim['status']:12s} {claim['id']:28s} [{claim['paper_location']}]")

print("\ndetails of the discrepancies:")
for claim in doc["claims"]:
    if claim["status"] == "discrepancy":
        print(f"\n* {claim['id']}")
        print(f"  {claim['details']}")

# The same payload is available from the shell:
#   md53c verify-claims -o report.json
#   md53c ktheory --format text      # six-term diagrams as ASCII grids
print("\nre-running with the same config is byte-identical:")
out2 = out.with_name("claims2.json")
main(["verify-claims", "--samples", "100", "-o", str(out2)])
print("identical:", out.read_bytes() == out2.read_bytes())
