"""Byte stability of every command's outputs, pinned by SHA-256 digest.

One small run of each command writes its files; each file's digest must
equal the one recorded below, and no file may be added or missing.  A
change that moves an output byte on purpose (a new column, a numerical
change) records the new digests and says why in CHANGES.md.  The digests
hold for a numpy build whose floating-point results match the one they
were recorded with (numpy 2.4, x86-64).
"""

import hashlib

from xanfis.cli import main

COMMON = ["--synth", "sinc2d", "--synth-n", "300", "--rules", "3", "--epochs", "8"]

COMMANDS = [
    ["train", *COMMON, "--seeds", "0,1", "--mode", "x_anfis", "--order", "first",
     "--trajectory", "--workers", "2", "--out", "train"],
    ["init-study", *COMMON, "--seeds", "0", "--scales", "0.5,0.0625", "--out", "study"],
    ["pareto-sweep", *COMMON, "--seeds", "0", "--weights-count", "4",
     "--weights-range", "0.01:10", "--out", "sweep"],
    ["export-partition", "--model", "train/model_seed0000.json", "--samples", "33",
     "--out", "partition"],
]

DIGESTS = {
    "partition/centers.csv": "7f28552089a00a627311d2a1bade42fcd6f094182b687219a3a2d0037713ab73",
    "partition/curves.csv": "ece0671f4b4fc453a630ba8bd2096c0816bc3a6e9f7fa97ae33af46df964dfdb",
    "study/summary.csv": "eb605256f3289f6fcde7d34d0612862b60a3ffeda3cfb7b91c835e747e22bb4f",
    "study/trace_cauchy_0.0625.csv": "30e637fad2916613eaa46a15e7c616277d448d65e8f9e62d40698a7a1cb4b9bf",
    "study/trace_cauchy_0.5.csv": "85b58613a2c39576bd4a5ee5e9a2171564998a35607a396b68f9e3688b57862e",
    "study/trace_gaussian_0.0625.csv": "7d1fbfed1238c756c1d856a056c79c12423e12c2b8b680337bd7f49b3d2291c6",
    "study/trace_gaussian_0.5.csv": "7151b7ce569bdbc22d95d220414cf8dc565765353d9d7628bed3baeb06e82c44",
    "study/trajectory_cauchy_0.0625.csv": "35983d03b848369e3e72e85a57201af500986fcba258179748b460aaf1b005fc",
    "study/trajectory_cauchy_0.5.csv": "5b5b508c2a8a3a46241494ea6665bdbe8a4fd59abfa9a8b11722308cc7d4be01",
    "study/trajectory_gaussian_0.0625.csv": "446b794d367aa5609574e2f7556bf9f8f0498ef890d1a1c3b4f2d1dc7cc8589b",
    "study/trajectory_gaussian_0.5.csv": "59d3555e3f568ecb1039ba81a3adbbc56de2b79d6b31b85420ef622752f84df7",
    "sweep/front.csv": "90d3678e645c2efc1475c00944a4f033cbf7438286cc6568b5dacb30cbcea921",
    "sweep/points.csv": "4d33bb05948bbc98d33666897f616f2be2de641238b07e7bf42797b675059cdd",
    "train/aggregate.csv": "af70f9b5bf94550a426aaa9f361c2ede423baf33945836f3ef3c6d948dab6157",
    "train/metrics.csv": "ff92a208cace481be15c44f7c9f20c740dba1a83767b81d2b05c24c7a3473fef",
    "train/model_seed0000.json": "fa519aee09b962b7563e51d19bbe7e66aaa50b558cfbc086a7abb932eeaa712a",
    "train/model_seed0001.json": "a379914f31c2bd212675a81a6e7fc012718f65b81c4d650853cd7f5765f94f5f",
    "train/trace_seed0000.csv": "19c70305ed843bacd2c9f95e2a63a3a4546dd1aa3729b488430ce19527f4fda0",
    "train/trace_seed0001.csv": "4579fc75b031d775e15c7d657fdbf7a99ee87b68d0950799cbcc420ecb4b384c",
    "train/trajectory_seed0000.csv": "59726ccc6fd8ab2048a4a156b516722045721dc493183d52be62a0dcf836587a",
    "train/trajectory_seed0001.csv": "045e62b08e49944fc828585894872fdc7bd22e81a57e69349c2324dd15c17a21",
}


def test_outputs_match_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for args in COMMANDS:
        assert main(args) == 0, args
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*")) if path.is_file()
    }
    assert digests == DIGESTS
