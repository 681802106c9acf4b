"""Golden artifacts: every subcommand's output files, byte for byte.

Each case runs the CLI from the repository root with repo-relative model
paths, so manifest.json (which records the --model option) is pinned
too. The digests are sha256 of the files as written; a refactor that
changes any byte of any artifact fails here. They were recorded with
numpy 2.4.6 on x86-64; another numpy or BLAS build may round some
floats differently, and then the digests must be recorded again with
run_case on a known-good commit.
"""
import hashlib
import re
from pathlib import Path

import pytest

from ephist.cli import run_command

ROOT = Path(__file__).resolve().parent.parent
SINGLE_MODELS = ("precession", "qubit_a", "qubit_b", "recorded", "threebox")
NUMPY_SCALAR = re.compile(r"np\.\w+\(")   # a numpy scalar's repr, e.g. np.float64(0.5)

CASES = {
    **{f"eval-{m}": (0, ["eval", "--model", f"models/{m}.model"]) for m in SINGLE_MODELS},
    **{f"decohere-{m}": (0, ["decohere", "--model", f"models/{m}.model"]) for m in SINGLE_MODELS},
    "records-recorded": (0, ["records", "--model", "models/recorded.model"]),
    "records-threebox": (4, ["records", "--model", "models/threebox.model"]),
    "coarsen-sector": (0, ["coarsen", "--model", "models/threebox.model",
                           "--partition", "sector"]),
    "coarsen-greedy": (0, ["coarsen", "--model", "models/threebox.model"]),
    "coarsen-greedy-qubit": (0, ["coarsen", "--model", "models/qubit_a.model"]),
    "composite-pair": (0, ["composite", "--model", "models/pair.model"]),
    "finegrained": (0, ["finegrained", "--model", "models/threebox.model"]),
    "finegrained-cylinders": (0, ["finegrained", "--model", "models/threebox.model",
                                  "--partition", "cylinders"]),
    "twoslit-5": (0, ["twoslit", "--kDelta", "5"]),
    "twoslit-20": (0, ["twoslit", "--kDelta", "20"]),
    "twoslit-bins-4096": (0, ["twoslit", "--bins", "4096"]),
    "threebox": (0, ["threebox"]),
    "dutchbook-11": (0, ["dutchbook", "--seed", "11"]),
}

GOLDEN = {
    "coarsen-greedy": {
        "greedy.json": "b82c7ce31a17cae3ba50b0c9cfc71471ff5509f065c16e41685dbe867a674aa0",
        "manifest.json": "134d0807fd047eab07a094481819c12c927e6602fd23e7e64b913c5a73793609",
    },
    "coarsen-greedy-qubit": {
        "greedy.json": "e1f3b6ce525ca9a544fd0c2d44dde4b69c598e73d3377839941cd437b55e4854",
        "manifest.json": "909dcb546222c27e64cd9decb84d7cb991285d71ea32136462e0c09df6b539d1",
    },
    "coarsen-sector": {
        "coarsen.json": "7169a50d87aed06b56c5d4e7281ba2b134cabaa3c49e11d96ebd5b3b48b466b8",
        "manifest.json": "59e62b36cf569e99a8d3c5659e222296efa96d05ac46944f85aa12d3d77cbeaa",
    },
    "composite-pair": {
        "composite.json": "35d154b35ce0fbea5b534d50fb2037007da36deddbe10a924e90a646edb640eb",
        "manifest.json": "eb51426421cbf102d5833c29b02069f2cf727df4ece989ebc8a6722e97172f54",
    },
    "decohere-precession": {
        "decoherence.json": "48e38fc4d8446476fdc92b104b8d656f4c3b431d21e3f1d2b25b58374741f8a4",
        "functional.csv": "5f6b8b5385ad63657d81bdd8fa3e37c7de3fdda59fc4882b433485e0a7f68280",
        "manifest.json": "cd95482f5c59d983e73517c98ea1f767730e3a77cb28af64cd5ae50e3d5d7461",
    },
    "decohere-qubit_a": {
        "decoherence.json": "4f28f0087d667577c1ce4b91f602c8bcbecd26df58e3f7c960dd39ca2f84b5e4",
        "functional.csv": "8140c84b143d7cc62482f90387cf7f7f7a1ec864d30a85547fbff9f5f3ec6599",
        "manifest.json": "42e161cd5e3eb5130dfc0661348c2f498b85da580e33dbfd3946f5f978767cb5",
    },
    "decohere-qubit_b": {
        "decoherence.json": "4f28f0087d667577c1ce4b91f602c8bcbecd26df58e3f7c960dd39ca2f84b5e4",
        "functional.csv": "8140c84b143d7cc62482f90387cf7f7f7a1ec864d30a85547fbff9f5f3ec6599",
        "manifest.json": "3085953c2f371064ddf8ef7197844518dedfb41ffc8a8ac9ab86ed2832e9bb5d",
    },
    "decohere-recorded": {
        "decoherence.json": "85dd8cd6ff396f2a618b2a73d32f9bc2746717485cbfd8bdbdaf69a342d5cea4",
        "functional.csv": "4cb73480b14d794d8be35b0f16042b0116fb4d420f0a46e08486088a486e186d",
        "manifest.json": "24c86f2d09805a0f02e6099da113c752d4a69767a7bee35fd6299e4f184f748b",
    },
    "decohere-threebox": {
        "decoherence.json": "68aac25199d99de5a7a2a00775cf2d4f9fc2b628b48fd3c6983a8b246cf7b52a",
        "functional.csv": "793f1a9a5ec362b80db36bf6e37f9dac42e54c76956908ccb06392d5149b95c8",
        "manifest.json": "b8428d44451b2bd6c7f3e7fe291c89e83c69dbb616fbd23bf31b362fc69a76cd",
    },
    "dutchbook-11": {
        "dutchbook.csv": "73c9f409ee3122bd671459a4d73c83ff9e3756bebd700c41e3175907116f3412",
        "manifest.json": "a10c702dc8658cd70362fe074d8a569374bdcd8136b87c9bedabe987a1151e26",
        "summary.json": "bff8a8c029a9437dc76a5a5dc1225fdb3fec42cd87520773f4606a9c3767c519",
    },
    "eval-precession": {
        "histories.csv": "d27b848e9c056be305d442aad285f0b653f98c35e2cbd6752326b1950b5613de",
        "manifest.json": "fea84df8c77402dda07067f6ebbccd28e91f80c5133b4c64b6e883dcfbe930a5",
        "summary.json": "d3d9cae7909e3f792dae7e004925cf7f8689d3bac09ff2b960fc4170ca3abc84",
    },
    "eval-qubit_a": {
        "histories.csv": "812a0a76fc48b1bb05a7363d1921ce4cf16cc5a2674daee32be1a09c5bde944e",
        "manifest.json": "ffe399d1c9adfa48f741be27e9355f41ccdebc85f50f0f8dc5c3f5a2c3eb8076",
        "summary.json": "1d8264f63b43e375d78fb237b25053fb1c0cbbb42e75a86d540a3012dd09fb6d",
    },
    "eval-qubit_b": {
        "histories.csv": "812a0a76fc48b1bb05a7363d1921ce4cf16cc5a2674daee32be1a09c5bde944e",
        "manifest.json": "b1d466ef287a429ed6d71c9b2967ea6f545a2a752a013477457f6da0a13a839d",
        "summary.json": "1d8264f63b43e375d78fb237b25053fb1c0cbbb42e75a86d540a3012dd09fb6d",
    },
    "eval-recorded": {
        "histories.csv": "d40c19951526288e6989a355f7406a3de1271ae8a0d17a93ce83efffe4e12f1e",
        "manifest.json": "9711270ba308333b00962f6077d0ce168d3df666e77b07c6b445a2d4b41fcbed",
        "summary.json": "ce66ed386af51ffd8da62726503355865455d389b6a2a8d9f72df4dcf36e9ca5",
    },
    "eval-threebox": {
        "histories.csv": "82ecbdcd2d5ba142b8404c1197e186531c771536b330f92ee41717d6c3adb249",
        "manifest.json": "f94bdf4b0818e72084a2454119f1cf21911c81c140c2f3424140ee7e9ca72939",
        "summary.json": "580d2c28dfd9e47b2db6b73881360b0e1d4747113939f9c16e35465f30a4ad0f",
    },
    "finegrained": {
        "finegrained.csv": "09b62ee48b8d8a87e2d0ea3ccaa5a9d94e86dade4d5370fcdf0944fa39c6ecef",
        "manifest.json": "621082e6ae45e8b630f818748668c3f4706c5966eff19520bc41f02400196e9b",
        "summary.json": "4dbd820c6263131fe3b276af67e948e4db9a1b6679318497f3771362156d00f3",
    },
    "finegrained-cylinders": {
        "finegrained.csv": "09b62ee48b8d8a87e2d0ea3ccaa5a9d94e86dade4d5370fcdf0944fa39c6ecef",
        "manifest.json": "0eb762e09a80efba9ae03bceaaf8a2cb4a9716d41d0dccb7b6c2bf87421b56c6",
        "summary.json": "b542d989e257a1241c06bff5a0692038a67594d7852daea86f1dcca3163c6b8a",
    },
    "records-recorded": {
        "manifest.json": "bd7f1fa089b09872f7914a96c3492d3ad63ce379729df1b96c4507176648fb2b",
        "records.json": "e7a02d7f9a89189385646bcdd5eee9e8a40bc146f08b7fc40f1b5f83d28890ae",
    },
    "records-threebox": {
        "error.json": "f2014ac93084e02ba7041a57a5e39667ab4aefe821b1cf3b010a6a74cc439b9e",
    },
    "threebox": {
        "manifest.json": "ac494143399f5ec319c4cb228babcf9ab7ebfb7cff493f3ab6e0e7936c8e09c3",
        "threebox.json": "ea97f474d1b07d0d310afdf455d8c4e200ba0072e81e10312effc88919d88b6b",
    },
    "twoslit-20": {
        "bins.csv": "f06364e340bb0fd6d4afd8e3cd734421d607ed1b2d7715729735c65c5bfc02e5",
        "curve.csv": "92f140f41687b09603f91b79c241601b0cd8bca9fb344ddefc162f19769d667b",
        "manifest.json": "faf9d58705c0a20dcf43f361b9a8c61603d37733cdae3b04aad230cfa33bcb20",
        "summary.json": "2626db60069e4caeef94ec19a3fe23dd536aff85c3668133faf97544e14bb652",
        "sweep.csv": "4436fbbb0fa10d1fe68ffd10cc043686a23eebd3fa235770ba65809b89211731",
    },
    "twoslit-bins-4096": {
        "bins.csv": "b79b77a8307bf12cc80757d7ddfef10715b3a26ca1dd8085437fe313cf83384c",
        "curve.csv": "92f140f41687b09603f91b79c241601b0cd8bca9fb344ddefc162f19769d667b",
        "manifest.json": "689fe319fca58b015d440907af42cc7b8933f05be67d7e458d33daa0b24ca504",
        "summary.json": "16183731d2db932908687cf5c5ae42d318d45ac0c75f369e561beddd5edf9a25",
        "sweep.csv": "4436fbbb0fa10d1fe68ffd10cc043686a23eebd3fa235770ba65809b89211731",
    },
    "twoslit-5": {
        "bins.csv": "a801b8152ca9341b6f272e2b9fd5aab713ea066ef0d98ed9881552920d76bb97",
        "curve.csv": "92f140f41687b09603f91b79c241601b0cd8bca9fb344ddefc162f19769d667b",
        "manifest.json": "82cc4ffc94a8ca8fee13adb396c8567db3110b84fe1e2b6ece3e1152afdc282d",
        "summary.json": "3a8b733401bbad439a345c6b613aca558ff43f03f09fe632ca461d7bc120b540",
        "sweep.csv": "4436fbbb0fa10d1fe68ffd10cc043686a23eebd3fa235770ba65809b89211731",
    },
}


def digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def run_case(name: str, out: Path) -> tuple[int, dict[str, str]]:
    _, argv = CASES[name]
    return run_command([*argv, "--out", str(out)]), digests(out)


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_match_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    status, got = run_case(name, tmp_path / "out")
    assert status == CASES[name][0]
    assert [p.name for p in (tmp_path / "out").iterdir()
            if NUMPY_SCALAR.search(p.read_text())] == []
    assert got == GOLDEN[name]
