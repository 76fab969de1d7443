"""Golden output digests: small CLI runs whose bytes are pinned by sha256.

A refactor that keeps these digests is byte-neutral on every subcommand.  The
sizes are fixed; a digest may only be updated for an intended change, with
the deviation it records stated alongside the change.
"""

import hashlib

import pytest

from focalrisk.cli import main

VALUES = "-2.5,-1.25,-0.75,-0.3,0.1,0.4,0.45,0.9,1.3,1.75,2.2,2.9"
# n=200 (200 distinct values in [-2.9, 2.9]): the rank and contour passes span several chunks
VALUES_200 = ",".join(f"{((i * 7919) % 5801 - 2900) / 1000:g}" for i in range(200))

CASES = {
    "simulate": (
        ["simulate", "--n", "8,30", "--replications", "40", "--seed", "5",
         "--theta-count", "21", "--svg"],
        {
            "band_hi_n30.csv": "8419726053f99aa26a0d24f9abf2be5dd3e0bf8bdfe9461f9b3a321a97130533",
            "band_hi_n8.csv": "8cd80fbcd6677fc505cf3ab7dcd104153be393019bb4ae0f2546bd3fd2a07f4d",
            "band_lo_n30.csv": "26ef3f482af1d7d08ade78c8438ccbb5ec4f07b0a70551e57cb822f5a98f0a33",
            "band_lo_n8.csv": "8a469e9863a4fbefb1cc58c9bbc21bf63234a7c10f1dbe134174d3f3aa5d705e",
            # The minimizers and the histogram edges drawn from their range moved from
            # the scalar engine: golden section now minimizes the same rounding of the
            # closed form as the grid curve.  n=8: 23 of 40 minimizers moved, at most
            # 2.5e-8; n=30: 30 of 40, at most 2.2e-8.  Bin counts are unchanged.
            "histogram_n30.csv": "24df96f71c1a86dfbbaaa8fe324136f6a7fe2d8d0b8a58776a1311622e868525",
            "histogram_n8.csv": "494a767cd93e92a161540ff9943c5e49ec40cf2ff75e49107c7dc3092af0f599",
            "median_n30.csv": "b1b4a13769314bf3042a95e70fa72724ebcd77ce136f147cddca67d6fe240626",
            "median_n8.csv": "be92fb104211d7b924182523ac3160c30e860c400c58e9da611cc7fee5f535be",
            "meta.json": "2595edd365f31d542797b92eff337d8849013b99b7f499513b791201204dc46e",
            "minimizer_histograms.svg": "848359277e96db40d340a5c944066424977f85f24e164705dd3d8d84feb38031",
            "minimizers_n30.csv": "53d30150128078ec0419159812de8e546e7e6bf29e7d9221ccb838d303f01ada",
            "minimizers_n8.csv": "dcc0c05615f62dd2084552b5ac3b1de197d38469c09dc1e91056a30b1c406a2f",
            "risk_curves.svg": "6c31b1226bd04012d07bb388b4555fe84a12faa2651c35cb9fbe9d8466ff1c13",
        },
    ),
    "verify-bounds": (
        ["verify-bounds", "--theta", "0,0.5", "--n", "40", "--epsilon", "1",
         "--replications", "100", "--seed", "2", "--uniform", "--alpha", "0.2",
         "--theta-count", "11"],
        {
            "bound_n40_eps1_theta0.5.json": "e7d477981f991a36d0da706dd156f31cec49be8899ddc6e866fc4de4d57f87b0",
            "bound_n40_eps1_theta0.json": "cae3e0e2c8e667545dd281341656f3a2339a79f0c258f80c8626e5ef02f5aa7a",
            "uniform_eps1.json": "a1c1da54d96e776ae3274632178555e7c247a33278556ba99f19ff197404674c",
        },
    ),
    "predict-identity": (
        ["predict", "--values=" + VALUES, "--alpha", "0.2"],
        {
            "contour.csv": "8934e5fc6faaa61ed9c728aaad767ffd81b86e2e141fa560aba833fd31d99347",
            "focal.txt": "e4bb1893205fada345323c208cea357ddb05e8e4bf8a9911cd8dec58e6a7fdbb",
            "prediction.txt": "7f75d1005ce222b00e9c434b63c4d65da3791c16c440680c9e6f1c86a3a066a2",
        },
    ),
    "predict-loo-mean": (
        ["predict", "--values=" + VALUES, "--alpha", "0.2", "--score", "loo-mean"],
        {
            "contour.csv": "8c4f2d17bcf2410caec9eab2aa17eb15c4d4b7b6ff693b00559d28cdf1819593",
            "focal.txt": "e8ab9259275633cc2282ae5654c3f14a29ea0cb07cebc634400fc20df4f0f8ff",
            "prediction.txt": "f4d7ca070210f843fabf5f75d6cbda8cea70369d4e8a15d719612258eecad311",
        },
    ),
    "predict-loo-mean-n200": (
        ["predict", "--values=" + VALUES_200, "--alpha", "0.2", "--score", "loo-mean"],
        {
            "contour.csv": "dbc570fe1cb650f74642384066e235f5620cb4c58a704e8dbcb0ab119160d025",
            "focal.txt": "6b957ad458df79228929b62bed6d66307f813bc4119a93ba126a4f9eb187fc2d",
            "prediction.txt": "4f08cd7abfb9d2e1d47bac6a9c6c3d721c2b82af7a609faec1fce2c0e2c7b883",
        },
    ),
    "risk-curve": (
        ["risk-curve", "--values=" + VALUES, "--model", "truncnorm", "--theta-count", "11"],
        {
            "risk_curve.csv": "2a29af8b98f7bda0b1cb3f5a5521cd25b9c88e6b9adfcd0f905574d0bb76f35a",
        },
    ),
    "coverage": (
        ["coverage", "--n", "5,12", "--alpha", "0.2", "--score", "identity,loo-mean",
         "--replications", "300", "--seed", "4"],
        {
            "coverage.csv": "48b00d5b15367b3970d04881fd98ef9d2bbbd78a42c568928a349629d5484e87",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name, tmp_path):
    argv, expected = CASES[name]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir())
    }
    assert got == expected
