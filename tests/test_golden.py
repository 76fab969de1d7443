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
            # Re-pinned for the closed form from per-row sums and the exact minimizer.
            # Curves: at most 10 of 21 values per file moved, by at most 8.9e-16 (3.1e-16
            # relative).  Minimizers: every one moved toward the exact argmin, at most 3.1e-8
            # (n=8) and 2.0e-8 (n=30); histogram edges at most 1.4e-8, bin counts unchanged.
            "band_hi_n30.csv": "bfa1f91ecce180a98dae8574b4ad0485e8c283463fdaa9b434a792196258d109",
            "band_hi_n8.csv": "3d4072954a3542b97a3371dee1fcbaaa76b2cac133bef5e3b54cc9cec91b0e3d",
            "band_lo_n30.csv": "cbc5c5dacbcba7fa6ff36763c69bf21b127a83962fa34ecb2a8a9f03c2e57604",
            "band_lo_n8.csv": "9b5fb692be13f226ecabf1f2883a986c41f23f63928e32ab2e69119c8f5680b1",
            # Before that, the batched engine moved the minimizers from the scalar one's
            # (golden section on the same rounding of the closed form as the grid curve):
            # n=8: 23 of 40, at most 2.5e-8; n=30: 30 of 40, at most 2.2e-8.
            "histogram_n30.csv": "ed0cbdba6c4d2fb56ef8b44137b548adb8c02cbe1703e5f870df1de8777f1d8d",
            "histogram_n8.csv": "4ab8fce1c1cea50fb2c0e9702ee7585cbfcd5504811d959e40e7494bcb24f9f5",
            "median_n30.csv": "e0ae6f7b5cbed81e9a2dc6c9c402c2915b3359f4a8663b629d108f1313a83e21",
            "median_n8.csv": "38a22b7342c9b4c31c29ff5a7c507f14d0af720c5860ce91bfefed659d945f52",
            "meta.json": "2595edd365f31d542797b92eff337d8849013b99b7f499513b791201204dc46e",
            "minimizer_histograms.svg": "848359277e96db40d340a5c944066424977f85f24e164705dd3d8d84feb38031",
            "minimizers_n30.csv": "cbfa4e1e048076884f686926fb38039373e02f35de3f0034621c9b6c6197af0b",
            "minimizers_n8.csv": "730873996216ab49b23b2a04b0b02acd59c82d417acf44bb7651dbf2531da50c",
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
    # Every theta and epsilon of one n is scored from one draw of its replications; at
    # n=190 those rows span three chunks.  Digests taken before that batching.
    "verify-bounds-multichunk": (
        ["verify-bounds", "--n", "95,190", "--theta", "0,0.5,1", "--epsilon", "0.5,1",
         "--replications", "1000"],
        {
            "bound_n190_eps0.5_theta0.5.json": "8a7f8ea099eff0b486ef2e3e81ce9394021770e67741aa61e96b82b7852cff34",
            "bound_n190_eps0.5_theta0.json": "fc940c776a85e7cb5b3b12009a9a633fd611aab17150423084b5df2d969e3690",
            "bound_n190_eps0.5_theta1.json": "325febc57efffddf8a44aeddfde6b6b85eb16b58d1f8b12a4147f2df6de8c56f",
            "bound_n190_eps1_theta0.5.json": "3a0c71a0c0e95a262e2732df43d8d8ab3a1465d28f68440fb58b46435d99a275",
            "bound_n190_eps1_theta0.json": "3b0ce8022a7e1f0137dc9b7e9e16766df4e2e864449ee5b12ef9445cabc5e163",
            "bound_n190_eps1_theta1.json": "75345c78b23785fa3b7f3c128f37a8b901289b6952aadcf0210762df912ffd02",
            "bound_n95_eps0.5_theta0.5.json": "0019ed19b6f8af2825e153636f46567615f5e108eb0b27232c832a8c68870b97",
            "bound_n95_eps0.5_theta0.json": "7c0337c1e68b8a8230b683d745717cfa7480bb95852631313e2089aef0a0c0b9",
            "bound_n95_eps0.5_theta1.json": "5f7abfdd78eba443b53b7f38124880fdece1117cedc2699a60279f4c42b34990",
            "bound_n95_eps1_theta0.5.json": "bb477f390781b5bd11c574d2a35744a899709248534e783587b77e1a944f596e",
            "bound_n95_eps1_theta0.json": "ea634f91f1fc3a779acfb91dbd0a9deddb32a76245d6354efa0615bddeb24db5",
            "bound_n95_eps1_theta1.json": "22c818677fd90456b49ade149f2512ea2c59c0bd335d212f4c7f3d010dddc6f2",
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
            # Only the true column moved, from adaptive Simpson to the fixed Gauss-Legendre
            # pass: at most 3.8e-11 (theta = -0.4, 0.4), every value toward the closed-form
            # truncated-normal moment, which it now meets within 4.5e-16.  Then the upper
            # column, from per-row sums: 5 of 11 values moved, at most 8.9e-16 (2.6e-16 rel.).
            # Then the empirical column, from the same per-row n R_n: 5 of 11 values moved,
            # at most 8.9e-16 (2.8e-16 rel.); upper and true columns byte-identical.
            "risk_curve.csv": "b802b26f7cea58582e8a348059484db0e6d44a8f8da1e2c8b4823677c1183925",
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


def _digests(argv, out):
    assert main(argv + ["--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name, tmp_path):
    argv, expected = CASES[name]
    assert _digests(argv, tmp_path) == expected


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "20,200", "--replications", "300", "--svg"],
    ["verify-bounds", "--theta", "0,1", "--n", "95", "--replications", "200", "--uniform"]])
def test_digests_do_not_depend_on_chunking(argv, tmp_path, monkeypatch):
    # risk._LIVE sets the rows per chunk: one chunk per run of replications at 1, 2 to 17 at
    # 16; every row is drawn from its own stream and evaluated alone
    import focalrisk.risk as risk

    digests = []
    for live in (1, 6, 16):
        monkeypatch.setattr(risk, "_LIVE", live)
        digests.append(_digests(argv, tmp_path / str(live)))
    assert digests[0] == digests[1] == digests[2]
