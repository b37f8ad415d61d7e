"""CI entry point: ``python -m repro.serve --smoke``.

The integration leg, exiting non-zero on any violation: a real daemon
subprocess with HTTP queries, a SIGKILL mid-stream, and a checkpoint
resume that must land byte-identical to the batch golden
(:mod:`repro.serve.smoke`).  The property leg — serve replayed against
batch at every prefix of seeded worlds — is ``python -m repro.diff
--check-every N`` (docs/DIFFERENTIAL_TESTING.md).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="serve daemon smoke (stream, query, kill, resume, diff)",
    )
    parser.add_argument(
        "--smoke", action="store_true", required=True,
        help="run the kill/resume daemon smoke",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workdir", default=None)
    args = parser.parse_args(argv)

    from repro.serve.smoke import SmokeError, run_smoke

    workdir = args.workdir or tempfile.mkdtemp(prefix="mapit-serve-smoke-")
    try:
        for line in run_smoke(workdir, seed=args.seed):
            print(line)
    except SmokeError as error:
        print(f"SMOKE FAILED: {error}", file=sys.stderr)
        return 1
    print("serve smoke OK")
    return 0


if __name__ == "__main__":  # pragma: no cover - module entry
    sys.exit(main())
