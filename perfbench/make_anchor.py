"""Rewrite ``perfbench/anchor.json`` from this host's reference logs.

Usage, from the root of a checkout::

    python3 perfbench/make_anchor.py

Computes the reference logs (plain execution path) for the anchor seed
and stores their SHA-256 digests with this host's CPU model and NumPy /
SciPy versions.  ``run.py`` checks every freshly computed reference for
the anchor seed against these digests on a matching host, so a change
that alters records on every execution path at once is still caught.
Run it only when records are meant to change.
"""

from __future__ import annotations

import json

import plan
import run


def main() -> int:
    anchor = json.loads(run.ANCHOR.read_text(encoding="utf-8"))
    host = run.host_record()
    digests = {}
    for kind in ("carolfi", "beam"):
        observed = run.run_pass(f"reference-{kind}", int(anchor["seed"]))
        try:
            if observed["problems"]:
                raise SystemExit("; ".join(observed["problems"]))
            digests[kind] = run._summarise_logs(observed["work"] / "logs", kind)["digests"]
        finally:
            run.cleanup(observed)
    try:
        run.WORK.rmdir()
    except OSError:
        pass
    anchor.update(
        runs={kind: plan.runs_per_benchmark(kind) for kind in ("carolfi", "beam")},
        host={k: host[k] for k in run.ANCHOR_HOST_KEYS},
        digests=digests,
    )
    run.ANCHOR.write_text(json.dumps(anchor, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(anchor, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
