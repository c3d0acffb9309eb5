"""Record the op digests of the runs in .bench_out/ as the reference that
later runs compare against.

    python3 perfbench/update_reference.py

All result files must come from one source tree.  The reference is replaced,
not merged, so it never mixes the digests of two commits.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".bench_out"


def main() -> int:
    results = [json.loads(p.read_text()) for p in sorted(OUT.glob("*-trace[01].json"))]
    sources = {r["environment"]["source_sha256"] for r in results}
    if len(sources) != 1:
        print(f"error: need the results of exactly one source tree, found {len(sources)}",
              file=sys.stderr)
        return 2
    digests: dict[str, dict[str, str]] = {}
    for r in results:
        for op in r["ops"]:
            if "digest" not in op:
                continue
            seen = digests.setdefault(r["args"]["workload"], {}).setdefault(
                str(op["op_seed"]), op["digest"])
            if seen != op["digest"]:
                print(f"error: op seed {op['op_seed']} gave two digests", file=sys.stderr)
                return 1
    reference = {
        "source_sha256": sources.pop(),
        "digests": {w: dict(sorted(d.items(), key=lambda kv: int(kv[0])))
                    for w, d in sorted(digests.items())},
    }
    (HERE / "reference_digests.json").write_text(json.dumps(reference, indent=1) + "\n")
    print(f"recorded {sum(map(len, digests.values()))} op digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
