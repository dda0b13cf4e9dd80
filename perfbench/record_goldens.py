"""Record the benchmark's goldens into ``perfbench/goldens.json``.

The goldens are SHA-256 digests of every PGM and CSV that the fixed
``figures`` and ``serial_deep`` specs write, and a digest of the
``survey`` verdict lines for the default seed, each in full and quick
size.  Record them only at a commit whose outputs are the reference:

    python3 perfbench/record_goldens.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as w

    outdir = ROOT / ".perfbench_out" / "goldens"
    outdir.mkdir(parents=True, exist_ok=True)
    goldens = {}
    try:
        for mode in ("full", "quick"):
            quick = mode == "quick"
            digests = {}
            for cls in (w.Figures, w.SerialDeep):
                wl = cls(w.DEFAULT_SEED, quick, outdir, {})
                for op in wl.ops:
                    out = op.run(None)
                    for name, path in wl.outputs(op.key, out).items():
                        digests[name] = w.sha256_file(path)
            survey = w.Survey(w.DEFAULT_SEED, quick, outdir, {})
            for op in survey.ops:
                survey.check(op.key, op.run(None))
            digests["survey_digest"] = survey.digest()
            goldens[mode] = dict(sorted(digests.items()))
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    (BENCH_DIR / "goldens.json").write_text(json.dumps(goldens, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
