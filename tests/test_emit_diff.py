"""The emitted-file comparison's masking and listing on small fixed folders;
no simulation is run."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "emit_diff.py"
_SPEC = importlib.util.spec_from_file_location("emit_diff", _PATH)
emit_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(emit_diff)


def write(root: Path, files: dict[str, bytes]) -> Path:
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


def test_only_the_generation_time_is_masked():
    header = b'{"config":"vnfsdn","generated_unix_ms":1761068475123,"seed":101}\n'
    assert emit_diff.masked(header) == b'{"config":"vnfsdn","generated_unix_ms":0,"seed":101}\n'
    assert emit_diff.masked(b"window,cpu_pct\n0,1761068475123\n") == (
        b"window,cpu_pct\n0,1761068475123\n")


def test_files_that_differ_or_exist_on_one_side_are_listed(tmp_path):
    same = {
        "s1_summary_101.csv": b"scenario,tdr\n1,0.5\n",
        "s1_vnfsdn_101.ndrec": b'{"generated_unix_ms":1}\n{"kind":"window"}\n',
        "captures/s1.pcap": b"\x00\x01",
    }
    parent = write(tmp_path / "parent", {**same, "s1_plot_5a.csv": b"t,avail\n0,100\n",
                                         "old.csv": b"x\n"})
    change = write(tmp_path / "change", {
        **same,
        "s1_vnfsdn_101.ndrec": b'{"generated_unix_ms":2}\n{"kind":"window"}\n',
        "s1_plot_5a.csv": b"t,avail\n0,99\n",
        "captures/new.pcap": b"",
    })
    assert emit_diff.differing(parent, change) == ["captures/new.pcap", "old.csv",
                                                   "s1_plot_5a.csv"]
    assert emit_diff.differing(parent, parent) == []
