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
    "study/trace_cauchy_0.0625.csv": "33b7e4b552a783b8785b8dcb9d89496f819331e07776080cd8243398f42365dc",
    "study/trace_cauchy_0.5.csv": "85b58613a2c39576bd4a5ee5e9a2171564998a35607a396b68f9e3688b57862e",
    "study/trace_gaussian_0.0625.csv": "037778d27f9488b9e48c7a975ae8b80f2d06335b5823a2121b8996ddc998420b",
    "study/trace_gaussian_0.5.csv": "7151b7ce569bdbc22d95d220414cf8dc565765353d9d7628bed3baeb06e82c44",
    "study/trajectory_cauchy_0.0625.csv": "9700d828aab03791939e63f8a47e8eb98b27342fe1ed642e2d439dd527e03170",
    "study/trajectory_cauchy_0.5.csv": "5b5b508c2a8a3a46241494ea6665bdbe8a4fd59abfa9a8b11722308cc7d4be01",
    "study/trajectory_gaussian_0.0625.csv": "a303440aa40788b893c58b406d97308fa4449e533d243fdd285def9f848242f2",
    "study/trajectory_gaussian_0.5.csv": "59d3555e3f568ecb1039ba81a3adbbc56de2b79d6b31b85420ef622752f84df7",
    "sweep/front.csv": "90d3678e645c2efc1475c00944a4f033cbf7438286cc6568b5dacb30cbcea921",
    "sweep/points.csv": "bdd4f1f129e151d8c50d990056eed65ef9892d5b314eb47c4a9e9f6102713a15",
    "train/aggregate.csv": "af70f9b5bf94550a426aaa9f361c2ede423baf33945836f3ef3c6d948dab6157",
    "train/metrics.csv": "ff92a208cace481be15c44f7c9f20c740dba1a83767b81d2b05c24c7a3473fef",
    "train/model_seed0000.json": "fa519aee09b962b7563e51d19bbe7e66aaa50b558cfbc086a7abb932eeaa712a",
    "train/model_seed0001.json": "a379914f31c2bd212675a81a6e7fc012718f65b81c4d650853cd7f5765f94f5f",
    "train/trace_seed0000.csv": "5130c2e1c7b0c4d29c0d7385c61e360b0cef40e416abeb1015c44ab8a1dd82cc",
    "train/trace_seed0001.csv": "c5ee75acee8537f99543e1f6490a6bba28a81ed86d6bea107a021e7a518f8117",
    "train/trajectory_seed0000.csv": "8d55f7d1f6b41963b11eaa29a25d6535c25fe3b1178eb8193724fb58a9bfdeb5",
    "train/trajectory_seed0001.csv": "f70b1e297bae077421c31e03b15a8920bfd5776aa48d0210b538bd829b220578",
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
