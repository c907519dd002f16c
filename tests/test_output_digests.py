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
    "partition/centers.csv": "2a585cb4d5d8385c117bb267215e7dab27ca6d98b20277aec01978f18fa0d2a5",
    "partition/curves.csv": "93fbb58b78d54e2f7ee73846194d824e2c8fce7cd7da09b48f47606d3e648876",
    "study/model_cauchy_0.0625.json": "720f11f34ee6115323f2a95364bbc13a3f82921e160152d503dd3833eb2b9e77",
    "study/model_cauchy_0.5.json": "196b2cbd4b9c007e8be9dd27420a83c6467d3adf397c073fd589ebf5301890c6",
    "study/model_gaussian_0.0625.json": "3b5b6e057e7f2d867a13a4c857ffca115a86b9fbbd2c8d01e189e83eb7ea6760",
    "study/model_gaussian_0.5.json": "80b656ebb26e4851c16dd9446383683dfae4d87c565dac413f72371b2a368a96",
    "study/summary.csv": "245a2674c61a7ef29be6ad85f30931b07e2b6604cfb411583f444cfa96fac689",
    "study/trace_cauchy_0.0625.csv": "cbd9da4dcfadcd6f9a24bdd998749908f2f02e5888a3188bb1dddcd907019b3b",
    "study/trace_cauchy_0.5.csv": "557f8aff8356761dbd500b4cdbb57b297003bf1b923015cf8bd0c2de749bf3e6",
    "study/trace_gaussian_0.0625.csv": "16eb6a9e9fdf00bb13fbe44f7ce81cc3f6de40e8a254e628d9236dbe3f77a409",
    "study/trace_gaussian_0.5.csv": "170db526322b8dd73938628db584aeaaff943f38e0879783d94686517872ff30",
    "study/trajectory_cauchy_0.0625.csv": "89c27d8c0d7f205148496dc5db69dd123a92f3afecd2bc32443ce20e422c283c",
    "study/trajectory_cauchy_0.5.csv": "f361a0cf3fd1003f670fa74c3c58284eb94431ff512adfde605a3d842660ba9b",
    "study/trajectory_gaussian_0.0625.csv": "135d2c1d3bffd25f69dfdfcd72f8e91268c1e57a8b20dc36d509312a26fb216d",
    "study/trajectory_gaussian_0.5.csv": "012c3dd3b8f175d8120bc2a699f5cd59f22235428df5ea6f77eaebf3ae936753",
    "sweep/front.csv": "972ca4e1a87d1ebab4dc1854ab6160276b94825c489f59e6f0f93decacc755ca",
    "sweep/model_mo_w0000.json": "faad0438010a15b1d4b0225ac3ad0b8366adccf93dfa158dd01fa0936c329d0d",
    "sweep/model_mo_w0001.json": "57a8b1ae6455a0811992141daacf1df6c634301aaeb3bd7ffa08aff9924d69df",
    "sweep/model_mo_w0002.json": "19e555cb4d6ca74f60685625846a6a91c474f30fbe4e2749d96a4dcad377e687",
    "sweep/model_mo_w0003.json": "3a02015fe9d73a8aea783ab581c6602e7fb3240e97212b2b5e9f621eaec5e1b6",
    "sweep/model_ref_anfis.json": "1de657aa813e1bf69f45ecac3eaeabd0a45fc92a1af12e58399c1d3c2665dead",
    "sweep/model_ref_x_anfis.json": "9f481ed7c23e88d0bfc7dcefefdf28442e01745b4529311a9ccf191b630516c0",
    "sweep/points.csv": "ee7cc299d6ebb7a1d504c6114e577548ac531b34b4a3552f58aa517a4cb53138",
    "sweep/trace_mo_w0000.csv": "72c68e0f2e4fd59ac9fdb5181fdd6d5998ca7aa0d492b52a6d3eada323bd6a66",
    "sweep/trace_mo_w0001.csv": "3a9b6339d5ed2027df95fa056bd4bff689478e4e5a9ee89d4701af757a1dbde5",
    "sweep/trace_mo_w0002.csv": "9f1ff1f1856f6eeb0f7b6d77077a55c231c67e87bf0a06cd00159442496f534f",
    "sweep/trace_mo_w0003.csv": "4eecbec8cb5d7a800107db915df34914464acb921d1649ada0be2317dd19a04b",
    "sweep/trace_ref_anfis.csv": "6128fff99d952a0d119fe7bd4d84869377aeacf6d0bf1c1c60cd585a5ed612d1",
    "sweep/trace_ref_x_anfis.csv": "842b62cda267a2e08566404193dabf8d09646d228baad6c249a3473c0d4914d9",
    "train/aggregate.csv": "c4b945ad36995a06638a25bd564502bfb249f727af82959725253bb17580fa01",
    "train/metrics.csv": "d815b31bba5d9abdaaf1bcf0be58b4b357266e73142c44a348ae2fef4a392cd7",
    "train/model_seed0000.json": "5278e3e747fbd6ad7774688925e00b9e9d59406250395ed6530d95fd5bf384cb",
    "train/model_seed0001.json": "a147b27bbadbd343bdb0753b32635f6ee13d4e9f270fe5af67c3c7c11794c489",
    "train/trace_seed0000.csv": "a6c47047251c7795c5b182b0cefb99730046b794ad011674d13620be08d1d5c6",
    "train/trace_seed0001.csv": "0c355405db3bf5577a166ab321fb779405d0244d23ee57d851b7e4c63193b124",
    "train/trajectory_seed0000.csv": "1cebdfd07129ee7bc15c304fa9c01c9a67db9a18f47533e25d5a297da0318760",
    "train/trajectory_seed0001.csv": "2f7e05c195bc633d652d42843f4f91a9b117135cd3506ab402f1f6e51689e371",
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
