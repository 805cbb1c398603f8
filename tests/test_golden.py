"""Golden output digests: the CLI's output bytes pinned across code changes.

Each case runs ``main()`` on a small fixed config and compares the SHA-256 of
every file it writes with the value recorded here.  A digest may move only
with a deliberate, documented change to what the program prints; a faster or
smaller implementation must leave all of them as they are.
"""

import hashlib
import json

import pytest

from uncollapse.cli import main

MC_GRID = [0.1, 0.47, 0.8]

CASES = {
    "uncollapse_mc": (
        ["uncollapse", "--mode", "mc", "--no-decoherence", "--shots", "2000"],
        {"p_grid": MC_GRID, "seed": 12345},
        {
            "out.csv": "1dcafe17c3db6721061822f1bcaa8c512f184397bafbfe5936a485b9f7a9ba20",
        },
    ),
    "qpt_mc_decohered": (
        ["qpt", "--mode", "mc", "--shots", "600"],
        # a seed above 2**64 also pins the high word of the Philox key
        {"p_grid": MC_GRID, "decoherence": True, "seed": 2**64 + 7},
        {
            "out.csv": "6b97ed72101961354e9bc2b64929c5f4f7844f8861eb82bb792d93c976c77542",
            "out_chi_p0.47.json": "7e16098097b6b6726ed53d13313f4f6fdc8b60fc555b4c5bdc0913d1d9c58d06",
        },
    ),
    "collapse_exact": (
        ["collapse"],
        {},
        {
            "out.csv": "0a48c86e8f4351ad81def6ea8f8611bb8554283042fb4529ebd1d84ede1dfcf1",
        },
    ),
    "uncollapse_exact": (
        ["uncollapse"],
        {},
        {
            "out.csv": "fbc24b26df3660be0e30976bf9d5cef70fa911915c17b21e8f106097bde89235",
        },
    ),
    "qpt_exact": (
        ["qpt"],
        {},
        {
            "out.csv": "b7ac66a2f183da06d0805aa0e22dcb8c9c5a5cbee8b059efdc91a6e433f5a63f",
            "out_chi_p0.47.json": "ad63ac2fc30b9487b61948ea72125e696aa0af37b33c73ea5bf120a51430ca80",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_golden_digests(tmp_path, name):
    argv, overrides, expected = CASES[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(overrides))
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    assert main(argv + ["--config", str(config), "--out", str(out_dir / "out.csv")]) == 0
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }
    assert written == expected
