"""Every CSV value of a grid of harness runs, pinned by digest.

Each run is two trials at alpha 0.1. Its digest is the sha256 of its CSV rows
without the seconds column, each followed by the repr of its
truncation_fraction. A change that moves one value, one count or one
truncation flag anywhere in the grid fails here.
"""
import hashlib

import pytest

from weakconformal.harness import ExperimentConfig, run

_GATE_TASKS = {
    "classify": dict(k=10, methods=("wsc", "fsc", "gws", "pessimistic")),
    "rank": dict(k=7),
    "match": dict(k=6, noise=1.0),
    "regress": dict(mu=0.05, methods=("wsc", "fsc", "pessimistic")),
}
_ALL_CLASSIFY = ("wsc", "fsc", "gws", "pessimistic")

# the four gate tasks at release-gate scale, then the settings off the gate that
# reach other paths: classify at k > 10, rank at other k and caps, and match at
# every k from 4 to 13 (k = 13 being above matching._DP_MAX_K)
RESULT_RUNS = {
    **{f"gate {task} seed {s}": dict(task=task, n=4000, seed=s, **kw)
       for task, kw in _GATE_TASKS.items() for s in range(5)},
    "classify k8": dict(task="classify", k=8, seed=3, methods=_ALL_CLASSIFY),
    "classify k17": dict(task="classify", k=17, seed=3, methods=_ALL_CLASSIFY),
    "rank k9": dict(task="rank", k=9, seed=3),
    "rank k12 m5": dict(task="rank", k=12, n=1000, m_max=5, seed=3),
    **{f"rank m{m}": dict(task="rank", n=1000, m_max=m, seed=3) for m in (1, 5, 200, 5040)},
    "match k4 m5": dict(task="match", k=4, m_max=5, seed=3, noise=1.0),
    "match k5": dict(task="match", k=5, seed=3, noise=1.0),
    "match k7 m200": dict(task="match", k=7, noise=0.25, m_max=200, seed=3),
    **{f"match k{k} noise {z}": dict(task="match", k=k, noise=z, n=1000, seed=3)
       for k in (8, 9) for z in (1.0, 0.25)},
    "match k10": dict(task="match", k=10, n=1000, noise=1.0, seed=3),
    "match k11": dict(task="match", k=11, n=1000, noise=1.0, seed=3),
    "match k12": dict(task="match", k=12, n=100, noise=1.0, seed=3),
    "match k13": dict(task="match", k=13, n=100, noise=1.0, seed=3),
}

# recorded while the match trials still counted k <= 7 from the table of all k!
# totals and k >= 8 by per-record best-first enumeration (numpy 2.4.6 with
# OpenBLAS, x86-64)
_RESULT_DIGESTS = {
    "gate classify seed 0": "b9a14a427a327f85ed99fc90991f35c8713f1f81d07f3842c6effc10d46d168c",
    "gate classify seed 1": "d1c9ff88a8bb896ff1daa52a2b11e74a3d9b89f9af3d09aaf58a7d4be576ed39",
    "gate classify seed 2": "8d42c10b0e0dbe4b33b1ce28f13d2eff1db122e5713ab081af8ee2fa45c28aef",
    "gate classify seed 3": "520bd6392012ae574a04b80204d611094b3da49c23b19684b621b8a241b013e1",
    "gate classify seed 4": "31eae95d27c17363eb27d12a2ada55d329538e253d75cb4de7628d7215cca37e",
    "gate rank seed 0": "155311bb06d98d94de101dc62035f87712ef41ccf53bbcc5a5e1a13722bbec9b",
    "gate rank seed 1": "b6d21e3ab53022b1ede0c324e3429309a0e06db2afe6fe31c2cf6725fbc6b68a",
    "gate rank seed 2": "0d43ee2400c8a11c72abf9afa5a0773637a411f54f8ddc5289dea116ae97b8e2",
    "gate rank seed 3": "86f44160cd65dddb3cc1527021bf54a81b94271be5a33cd2532d3ab731830b24",
    "gate rank seed 4": "bdca68daf8f7a43565f36a6d21498c047fba478eaa5795d515008ffcdc22e72b",
    "gate match seed 0": "4a5a892abffc43fb2f2775d0ae844eef2c916ad5e34e745de9872ccd14d20287",
    "gate match seed 1": "e738b311d3837e775597f7d7915d3f6bb617eddb4f34d41cdad76c62beeb3d20",
    "gate match seed 2": "3f0d7bfee7b2c707b732b231fb6e25315d3d02ea15c0726ec8d8cb243a9c05db",
    "gate match seed 3": "c1fd196763ff45975186f7cdc852dbf5df562d30ee79dc61c3abababccc614c5",
    "gate match seed 4": "09cbe6e80b26dd05e066d2bff17f01137b1f57da73b86029e9322082ad9bbeb4",
    "gate regress seed 0": "f4e48efdce8772dd682deabd040935c3a0b10c908fc3c87bdf5d04502b229ae5",
    "gate regress seed 1": "a8ca3238f7fdbb6d5ba6bc7cba3efbae552b898c68e04f8e4c322e21689f572a",
    "gate regress seed 2": "58c61016de84b24689f4d28c5b1f721d2b4384f1962c7d4b3531f0a281616d5c",
    "gate regress seed 3": "bab29fd7c75e54beed2de6a61448c2964b586e4abe5775b2789f7ad98c3f3631",
    "gate regress seed 4": "b69f6c8c1f6b3384a0bd73a2ee2ded6319fdf2ebe48849381d2eae87b821139f",
    "classify k8": "e2ba69fd018e9f571e081f940e54c6a44f73aa24002be929cb66c3687721316e",
    "classify k17": "34709420f75296d0edb3cb7cc5b7aa2df13fb4e9e2f3d89b85cf52fbe485c1f1",
    "rank k9": "b1146d92e2ffb9d794fd14784dfeaa7bc7fca596234826fc6fcb1405023489a5",
    "rank k12 m5": "69edb839bc4656d9a463fa111204dff1dc09f85944ae8596de2e15b5ca2b03b5",
    "rank m1": "071d6df7c92694e0ab761fe4fb669fac18b337a4c2c83063d1aa46e47a13bfc4",
    "rank m5": "902663c40f89cd88a8965d4d9f5950f2b152ef144b7b92abf02bff247451f280",
    "rank m200": "4e4ab51ebf52a83c2481477ad5cadace3cd9dd9a41b4537a05ccdb214030f5fb",
    "rank m5040": "c7708fa04b4a5d97649fa1f1c0335c18fec747672fabf038c0f01edb9e7dc924",
    "match k4 m5": "ca4329fb47d95622863309adce6a783ad4490f613280b3d8570cbe2f6c81032e",
    "match k5": "d8d8b0196bf3386f6783a928bb0cc669afe203a39eb0c42ea81ad5a116b6ec80",
    "match k7 m200": "d7e87e842e4699d55861b418ca01d551526d78430a2dfd5e1457059ea8d5dda3",
    "match k8 noise 1.0": "738589ee35286281ba644b3dfabab92134460d47c716792720bbbd9bcafd3c9d",
    "match k8 noise 0.25": "63971bed766bd90b1fc52df9b5d0191aaf0e1b77cbbddf3a8259692635149a30",
    "match k9 noise 1.0": "1f288a3ae6f768ca228cd8ecd5a9709aa3f0bb611a5a322b6e248470b29eda79",
    "match k9 noise 0.25": "ebd834fd38131e87ae69d1e249f7654c3da4526a7aedef4ef0b9d01d20e3348f",
    "match k10": "29634d6e0a4a9075daebb8409d36cef8c9c056fe25bf48566b96653ca023d00e",
    "match k11": "84f7a727a3b8291403b3dd5bcfdba93b5b5fe90ac24422aa35cfce39884a6890",
    "match k12": "67104e5af31b0616841ef998e7d05fc16547a8abdfbfe7fba50cf3c71c7738a0",
    "match k13": "c227e07bef0c43290a157176d084ad2334f20a6c8581d4218969cb85d95343a5",
}


def result_digest(**settings) -> str:
    """sha256 of a two-trial run's CSV rows without seconds, each followed by
    the repr of its truncation_fraction."""
    rows = run(ExperimentConfig(alpha=0.1, n_trials=2, **settings))
    text = "".join(
        f"{r.csv_row().rsplit(',', 1)[0]},{r.truncation_fraction!r}\n" for r in rows
    )
    return hashlib.sha256(text.encode()).hexdigest()


def test_the_grid_is_the_recorded_one():
    assert RESULT_RUNS.keys() == _RESULT_DIGESTS.keys()


@pytest.mark.parametrize("name", list(RESULT_RUNS))
def test_runs_match_their_recorded_digests(name):
    assert result_digest(**RESULT_RUNS[name]) == _RESULT_DIGESTS[name]
