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
    "study/summary.csv": "e8fc2446ff4cc65d8ea68471d686a66636b22d0a058b7e7bcbb620f48e427fa8",
    "study/trace_cauchy_0.0625.csv": "2a88c28d60c14c78f8d16341de8f4517b1362c33fefc57d6807ccb385fe85ba8",
    "study/trace_cauchy_0.5.csv": "e4888f8764df8fd0f544011697cc236bffd084a1a522e263b144c00d34876ec7",
    "study/trace_gaussian_0.0625.csv": "9f68bb62406c2e1c3331a58a801e01c5e59aa69a58f1f5cb7af95b439da207f3",
    "study/trace_gaussian_0.5.csv": "82edc8e393f2e09d1f21a997ef1258e14ffd127d8448eeea0cdece5b251421f7",
    "study/trajectory_cauchy_0.0625.csv": "ab441b9f560fa7ef088e5278e74856de5ac74828576c22bad9ae8148534009b7",
    "study/trajectory_cauchy_0.5.csv": "b188a37cbf31e0673827808129c0b80102107220a8037da3c1dcf592fe712b50",
    "study/trajectory_gaussian_0.0625.csv": "4aefb5df7479551b72a870b8f709e0099735bdc03db07ef1fec17a81c5b5f494",
    "study/trajectory_gaussian_0.5.csv": "e9fc9108134aff1900a5becfc001dd58515b105007972e14e531d4c0ea93519f",
    "sweep/front.csv": "bc776dacf8522c25f6625a8227e04fced7cc41e7138bdd665da8701961881a24",
    "sweep/points.csv": "da496d404257ecfa85613b591126df4843071a59e3b825e75dd9c2784a5d51bb",
    "train/aggregate.csv": "3fa8f29dcfe0cdcf4f6abf78d30ec08f23960b395fc0aa21d7fe295c5d93dee1",
    "train/metrics.csv": "0700a5e17c3bc602a9bfcbd2bfbe20a1541cbc92fc5936663b424cb594b15b77",
    "train/model_seed0000.json": "2cafc52facc0d708f5a1a8e7bb81861dc738346272f5bffa8617dff5dfc8c32f",
    "train/model_seed0001.json": "57055fe0c9c89f0b21c85feab68bb2779bd03e1eb50f4429aa495ee0fd5d779e",
    "train/trace_seed0000.csv": "93b479714fc1662ed08c13dc871e665c645cba5a0d1da935a09318858df55a01",
    "train/trace_seed0001.csv": "28cd9133e8407205d24264d30d7c2e84b97209cb470919b51685891e11ebc3d7",
    "train/trajectory_seed0000.csv": "ac8a56091931fd7b3342d23c3383aeda97b8edf3952af2a0a8e6560ff827f244",
    "train/trajectory_seed0001.csv": "07d12c439dcf29537c735628d4c25fdf45518e62729d30b02526ffdb1b2a0b9e",
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
