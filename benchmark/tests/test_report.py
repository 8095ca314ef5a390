"""Profile writing and the compare verdicts, on synthetic samples."""

from benchmark import use_source
from benchmark.report import _verdict, compare, write_profile
from benchmark.runner import Tally, load_spec

WALL = {"name": "wall_s", "better": "lower", "bound": 0.25}
RATE = {"name": "ops_per_s", "better": "higher", "bound": 0.25}


def test_verdicts_follow_the_bound_and_the_spread():
    steady = [1.0, 1.01, 0.99, 1.0, 1.02]
    assert _verdict(WALL, steady, [1.1, 1.12, 1.09]) == "ok"
    assert _verdict(WALL, steady, [1.3, 1.31, 1.29]) == "REGRESSED"
    assert _verdict(WALL, steady, [0.7, 0.71, 0.69]) == "improved"
    assert _verdict(RATE, steady, [0.7, 0.71, 0.69]) == "REGRESSED"
    noisy = [0.6, 1.0, 1.6, 0.7, 1.5]
    assert _verdict(WALL, noisy, [1.3, 1.4, 1.2]) == "unresolved"
    assert _verdict(WALL, noisy, [0.5, 0.55, 0.52]) == "improved"


def _tally(wall: float) -> Tally:
    tally = Tally(attempted=3, failed=0)
    tally.samples = {"setup_s": [0.2, 0.21, 0.19],
                     "wall_s": [wall, wall * 1.01, wall * 0.99],
                     "peak_rss_mb": [30.0, 30.0, 30.1],
                     "ops_per_s": [100 / wall, 99 / wall, 101 / wall]}
    return tally


def test_profiles_round_trip_through_compare(tmp_path, capsys):
    use_source()
    spec = load_spec()
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    write_profile(str(old), 1, {"traffic-inline": _tally(4.0)}, spec)
    write_profile(str(new), 1, {"traffic-inline": _tally(4.2)}, spec)
    assert compare(str(old), str(new), spec) == 0
    write_profile(str(new), 1, {"traffic-inline": _tally(6.0)}, spec)
    assert compare(str(old), str(new), spec) == 1
    out = capsys.readouterr().out
    assert "traffic-inline   wall_s" in out and "REGRESSED" in out
