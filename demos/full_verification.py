"""Run every verification suite and summarize the results.

Equivalent command line:

    weylops verify all
    weylops verify bender --max-n 6 --format json

Each check yields one report record {suite, params, status, witness,
elapsed_ms}; rationals inside params are serialized as strings so nothing
is rounded.
"""

import time
from collections import Counter

from weylops import reports_to_json, run_suite, verify_binomial

t0 = time.perf_counter()
reports = run_suite("all")
elapsed = time.perf_counter() - t0

by_suite = Counter(r.suite for r in reports)
bad = [r for r in reports if not r.ok]

print(f"{len(reports)} checks in {elapsed:.2f}s\n")
for suite, count in sorted(by_suite.items()):
    worst = max((r.elapsed_ms for r in reports if r.suite == suite), default=0.0)
    print(f"  {suite:<15} {count:>5} checks   slowest {worst:8.1f} ms")

if bad:
    print("\nFAILURES:")
    for r in bad:
        print(f"  {r.render()}")
else:
    print("\nall checks passed")

# one record, as reports_to_json writes its line in --format json output
sample = verify_binomial(12, 12, 12)
print("\nsample JSON record:")
print(reports_to_json([sample]).splitlines()[1])
