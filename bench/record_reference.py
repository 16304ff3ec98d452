"""Record the default-seed reference outputs of every workload.

    python3 bench/record_reference.py [--force]

Run from the root of a checkout. For each workload, in both sizes, one
untraced child runs at the default seed and its per-replication pearson,
nrmse and lambda values are stored in ``bench/reference.json`` together
with the commit they came from. An existing reference is kept unless
``--force`` is given: it is the correctness gate of every later run, so
it should be recorded from a commit whose outputs are trusted.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path

import run as bench
import workloads as wl


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--force", action="store_true",
                   help="overwrite an existing reference")
    opts = p.parse_args(argv)
    root = Path.cwd()
    if bench.REFERENCE.exists() and not opts.force:
        print(f"bench: {bench.REFERENCE} exists; pass --force to overwrite it",
              file=sys.stderr)
        return 1
    if not (root / "src" / "pulserc" / "__init__.py").is_file():
        print(f"bench: {root} has no src/pulserc; run from a checkout's root",
              file=sys.stderr)
        return 1

    recorded = {}
    for name in wl.WORKLOADS:
        recorded[name] = {}
        for tiny in (False, True):
            args = argparse.Namespace(workload=name, seed=wl.DEFAULT_SEED, tiny=tiny)
            with bench.workspace(root, name) as (workdir, env):
                bench.prepare(args, root, workdir, env)
                sample = bench.run_child(args, root, workdir, env, traced=False,
                                         n=0, reference=None)
            if sample["failed"]:
                print(f"bench: {name} ({wl.size_name(tiny)}) failed: "
                      f"{sample['failures']}", file=sys.stderr)
                return 1
            recorded[name][wl.size_name(tiny)] = sample["outputs"]
            print(f"{name} ({wl.size_name(tiny)}): {len(sample['outputs'])} "
                  f"experiment(s), pearson_mean {sample['pearson_mean']:.6f}")

    reference = {
        "commit": bench.git_commit(root),
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seed": wl.DEFAULT_SEED,
        "workloads": recorded,
    }
    bench.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"reference -> {bench.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
