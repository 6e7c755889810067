"""Compare the files two checkouts emit for the same scenario runs.

    python3 tools/emit_diff.py PARENT CHANGE
    python3 tools/emit_diff.py PARENT CHANGE --full

``PARENT`` and ``CHANGE`` are checkout directories, for example plain
copies of two commits.  For each of scenarios 1-6, each checkout's own
``vnfsdnsim run`` writes its files into a temporary folder, in a fresh
interpreter whose only source path is that checkout's ``src``.  By default
every run is shortened with ``--set duration_s=8``; ``--full`` keeps the
shipped durations.  Files are compared byte for byte with the wall-clock
``generated_unix_ms`` header field masked.

Exit status: 0 when every file is the same on both sides; 1, listing each
file that differs or exists on one side only; 2 when a run fails (a run
that exits 1 because a calibration target failed still counts, since its
files are written).

Only the standard library is used, and nothing under ``src/`` imports this.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SCENARIOS = range(1, 7)
#: The shortened run length of the default comparison.
SHORT_OVERRIDES = ("duration_s=8",)
#: Exit codes of ``vnfsdnsim run`` after which every file was written.
WRITTEN = (0, 1)

_GENERATED = re.compile(rb'"generated_unix_ms":\d+')


def masked(data: bytes) -> bytes:
    """``data`` with every ``generated_unix_ms`` value set to 0."""
    return _GENERATED.sub(b'"generated_unix_ms":0', data)


def differing(parent: Path, change: Path) -> list[str]:
    """The relative paths, sorted, of the files under ``parent`` and ``change``
    that differ once masked, or exist under one of them only."""
    def files(root: Path) -> dict[str, Path]:
        return {p.relative_to(root).as_posix(): p for p in root.rglob("*") if p.is_file()}

    ours, theirs = files(parent), files(change)
    return sorted(
        name for name in ours.keys() | theirs.keys()
        if name not in ours or name not in theirs
        or masked(ours[name].read_bytes()) != masked(theirs[name].read_bytes())
    )


def emit(checkout: Path, scenario: int, out: Path, overrides: tuple[str, ...]) -> None:
    """Run the checkout's own ``vnfsdnsim run`` of ``scenario`` into ``out``."""
    cmd = [sys.executable, "-m", "vnfsdnsim.cli", "run", "--scenario", str(scenario),
           "--out", str(out), "--quiet"]
    for override in overrides:
        cmd += ["--set", override]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode not in WRITTEN:
        raise RuntimeError(f"{checkout}: {' '.join(cmd[1:])} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="the parent checkout")
    p.add_argument("change", type=Path, help="the changed checkout")
    p.add_argument("--full", action="store_true", help="run the shipped durations")
    args = p.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in sides.values():
        if not (checkout / "src" / "vnfsdnsim").is_dir():
            p.error(f"{checkout} has no src/vnfsdnsim")
    overrides = () if args.full else SHORT_OVERRIDES
    with tempfile.TemporaryDirectory(prefix="emit_diff_") as tmp:
        outs = {side: Path(tmp, side) for side in sides}
        for scenario in SCENARIOS:
            for side, checkout in sides.items():
                try:
                    emit(checkout, scenario, outs[side], overrides)
                except RuntimeError as err:
                    print(err, file=sys.stderr)
                    return 2
            print(f"scenario {scenario}: emitted on both sides", file=sys.stderr)
        compared = sum(1 for f in outs["parent"].rglob("*") if f.is_file())
        diff = differing(outs["parent"], outs["change"])
    for name in diff:
        print(name)
    runs = "shipped durations" if args.full else ", ".join(overrides)
    print(f"{len(diff)} files differ or exist on one side only; the parent wrote {compared}"
          f" ({runs})", file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
