"""Record the reference payload digests in ``perfbench/reference.json``.

The reference for a (workload, size, seed) is the digest of the workload's
payloads executed serially in one process (``workloads.serial_payloads``)::

    PYTHONPATH=src python3 perfbench/record_reference.py --seeds 0-20
    PYTHONPATH=src python3 perfbench/record_reference.py --seeds 1 --size tiny

Only the ``digests`` section of the file is rewritten.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402 - after the sys.path set-up
    SIZES,
    WORKLOADS,
    serial_payloads,
    spec_digests,
    workload_digest,
)


def reference_digest(workload: str, seed: int, size: str) -> str:
    payloads = serial_payloads(workload, seed, size)
    if any(payload.get("verified") is not True for payload in payloads):
        raise SystemExit(f"{workload} seed {seed}: a reference spec failed verification")
    return workload_digest(spec_digests(payloads))


def parse_seeds(text: str):
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-20 or 1,2")
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args(argv)
    path = HERE / "reference.json"
    data = json.loads(path.read_text()) if path.is_file() else {}
    digests = data.setdefault("digests", {})
    for workload in args.workloads:
        for seed in parse_seeds(args.seeds):
            digest = reference_digest(workload, seed, args.size)
            digests.setdefault(workload, {}).setdefault(args.size, {})[str(seed)] = digest
            print(workload, args.size, seed, digest, flush=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
