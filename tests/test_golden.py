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
DECOHERED = {"decoherence": True, "device": {"visibility": 0.9}, "p_error_fraction": 0.05}
ZERO_WINDOWS = {
    "p_grid": MC_GRID, "decoherence": True, "timing_ns": {"idle": 0.0, "tomography": 0.0},
}

CASES = {
    "uncollapse_mc": (
        ["uncollapse", "--mode", "mc", "--no-decoherence", "--shots", "2000"],
        {"p_grid": MC_GRID, "seed": 12345},
        {
            "out.csv": "56e6e78405157e34d524310b233d7da3d3df60c7da1b180512e752b047deefc5",
        },
    ),
    "qpt_mc_decohered": (
        ["qpt", "--mode", "mc", "--shots", "600"],
        # a seed above 2**64 also pins the high word of the Philox key
        {"p_grid": MC_GRID, "decoherence": True, "seed": 2**64 + 7},
        {
            "out.csv": "29265f037c813b3d9fffd9ce9adea40b802db90aaa64c18da3f883d8d4e2e4af",
            "out_chi_p0.47.json": "92b66683326bffab1b3d791a2360dc4bde0b498c07556481343cb820ee92305f",
        },
    ),
    "collapse_exact": (
        ["collapse"],
        {},
        {
            "out.csv": "1bdbbcdc817c47bfb079044e92fbe5d6cdb67197d958837851bc0a11bd64683c",
        },
    ),
    "uncollapse_exact": (
        ["uncollapse"],
        {},
        {
            "out.csv": "091cb5d3ca5a64432c08ba1c7ec3cd8853ed5e83749208f85407b8c99f345e0e",
        },
    ),
    "qpt_exact": (
        ["qpt"],
        {},
        {
            "out.csv": "b7ac66a2f183da06d0805aa0e22dcb8c9c5a5cbee8b059efdc91a6e433f5a63f",
            "out_chi_p0.47.json": "773517ebacad5dc2bfeab8c3ddc8522dd30d2d1a3f72fa7a4e881bd94f7456ec",
        },
    ),
    # the exact engine's decohered path, below unit visibility and with a
    # miscalibrated strength, as the exact benchmark grid runs it
    "uncollapse_exact_decohered": (
        ["uncollapse"],
        DECOHERED,
        {
            "out.csv": "27d59605322375338b39389e7fff799894c95f2eb2decab4957179614c7c2043",
        },
    ),
    "qpt_exact_decohered": (
        ["qpt"],
        DECOHERED,
        {
            "out.csv": "5f5c07a087303952ec57ced36eb299e3f3bca76219e04e807d9ee36e15149e26",
            "out_chi_p0.47.json": "49c5add172e5913d7d6ce8e7b9edec40c31fbd41a4e9fcbf6fc445f7b4c549f0",
        },
    ),
    "collapse_exact_decohered": (
        ["collapse"],
        DECOHERED,
        {
            "out.csv": "59a031aff1c84864815baac80222ec14fe167148f520421ff6d9a5b2fff29452",
        },
    ),
    # the sampled collapse sweep below unit visibility, with decoherence on
    "collapse_mc_decohered": (
        ["collapse", "--mode", "mc", "--shots", "2000"],
        {**DECOHERED, "p_grid": MC_GRID},
        {
            "out.csv": "5d0b01b99f1cc351f75b27c3baee7d47db9feb9aa2978f723db10bcf7094595e",
        },
    ),
    # a short recovery pulse and a steep phase, so the measurement phase and
    # the rotation angle both reach the printed numbers
    "uncollapse_exact_short_pulse": (
        ["uncollapse"],
        {"pi_fraction": 0.9, "phi_m_rate_rad": 7.0, "theta0_rad": 2.8},
        {
            "out.csv": "a39499051cb6bdd45af9199c0b8a133fda5480a63314a2c476a57f6451a33d42",
        },
    ),
    # decoherence on with zero-length idle and analysis windows: a step that
    # takes no time adds no decoherence, in both engines
    "uncollapse_mc_zero_windows": (
        ["uncollapse", "--mode", "mc", "--shots", "2000"],
        ZERO_WINDOWS,
        {
            "out.csv": "3dea0e7eef72194d6205b53bb24870acbf5a3d21a1db47653b6d17a3c38cbfed",
        },
    ),
    "qpt_exact_zero_windows": (
        ["qpt"],
        ZERO_WINDOWS,
        {
            "out.csv": "01a300db5e70d326ea5941d9ac8165170ef8ee8ce3b74f88bd39aff1d99ea7fa",
            "out_chi_p0.47.json": "2e2d0ee44326b6b9d9ac622b7141f2da2d916d4f19ca2205f55582a373bc08cf",
        },
    ),
    # 4,097 shots per setting: two full sampling passes of 2,048 shots and
    # a third of one, so the counts must join across pass boundaries
    "uncollapse_mc_pass_boundaries": (
        ["uncollapse", "--mode", "mc", "--shots", "4097"],
        {"p_grid": [0.25, 0.7], "decoherence": True, "seed": 4242},
        {
            "out.csv": "c09a11a33294bddc27027d5435a618b12dbb10a29aa55a896a292309be88cf57",
        },
    ),
    # 2,049 shots per probe and setting: each qpt row (the grid point, then
    # the chi_p row) samples a full pass of 2,048 shots and a pass of one
    "qpt_mc_pass_boundaries": (
        ["qpt", "--mode", "mc", "--shots", "2049"],
        {"p_grid": [0.3], "decoherence": True, "seed": 9090},
        {
            "out.csv": "99753a2f8291160cc6e78478ba8bf918e25d7defddab2486e0babee78053556b",
            "out_chi_p0.47.json": "92a83e92fd02d56c5f088ae7580ca3b73ebdb19fadc3d931406dd410b1bd18a6",
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
