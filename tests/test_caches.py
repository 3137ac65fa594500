"""The memo registry of `exact_core`: every process-wide memo of the package is
registered where it is defined, and `exact_core.clear_caches()` empties them
all, which leaves the process computing as a fresh one does."""

import contextlib
import hashlib
import io
import json
import pathlib
import subprocess
import sys

from narayana import cli, exact_core

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# The hand-grown memos; the other fourteen are `exact_core.cached` functions.
HAND_GROWN = {
    "narayana.identities._catalan_memo", "narayana.identities._rows_memo",
    "narayana.series._catalan_power_cache", "narayana.sequences._recurrence_values",
}
# combinat's token intern tables grow but are never emptied: interning is
# idempotent, tokens 0 and 1 are fixed for `_toggle_word`, and the words the
# cached shape functions hold are token numbers, so a cleared table would leave
# those words pointing at tokens that no longer exist.
TOKEN_TABLES = {
    f"narayana.combinat.{name}"
    for name in ("_TOKENS", "_TOKEN_IDS", "_TOKEN_COEFFS", "_TOKEN_EXPONENTS")
}

# Run in a fresh interpreter, so that a memo no earlier test warmed grows here:
# every module-level dict, list or set of the package, sized before and after
# each command family the package offers, with whether it is registered.
GROWTH_PROBE = """
import contextlib, io, json, sys
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
from narayana import cli, combinat, exact_core, identities

def containers():
    return {
        f"{module}.{name}": value
        for module, m in list(sys.modules.items()) if module.startswith("narayana")
        for name, value in vars(m).items() if isinstance(value, (dict, list, set))
    }

before = {name: len(value) for name, value in containers().items()}
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "--identity", "all", "--max-n", "10"]) == 0
    for family in "DPQ":
        assert cli.main(["involution", "--family", family, "--n", "5"]) == 0
        assert cli.main(["enumerate", "--family", family, "--n", "5"]) == 0
    for sequence in cli._SEQUENCES:
        assert cli.main(["table", "--sequence", sequence, "--max-n", "10"]) == 0
seq = [Fraction(1, 3), -2, Fraction(5, 7), 4, 0, Fraction(-9, 2)]
for relation in (identities.legendre_inverse, identities.binomial_inverse):
    assert relation("backward", relation("forward", seq)) == seq
assert identities.left_inversion(2, 1, identities.left_inversion_forward(2, 1, seq, 11)) == seq
assert combinat.dbar_involution_check(5).certified
registered = {id(cache) for cache in exact_core._CACHES}
print(json.dumps({
    name: id(value) in registered for name, value in containers().items()
    if len(value) != before.get(name, 0)
}))
"""


def _cache_size(cache) -> int:
    return cache.cache_info().currsize if hasattr(cache, "cache_info") else len(cache)


class TestCacheRegistry:
    def test_every_lru_cache_is_registered(self):
        registered = {id(cache) for cache in exact_core._CACHES}
        lru = {
            f"{module}.{name}": id(value) in registered
            for module, m in list(sys.modules.items()) if module.startswith("narayana")
            for name, value in vars(m).items() if hasattr(value, "cache_clear")
        }
        assert "narayana.sequences.narayana_poly" in lru  # the scan is live
        assert [name for name, ok in lru.items() if not ok] == []

    def test_every_growing_container_is_registered(self):
        proc = subprocess.run(
            [sys.executable, "-c", GROWTH_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        grown = json.loads(proc.stdout)
        assert HAND_GROWN <= set(grown)  # each hand-grown memo grew: the probe is live
        assert {name for name, ok in grown.items() if not ok} == TOKEN_TABLES

    def test_clear_empties_every_registered_cache(self):
        assert cli.main(["verify", "--identity", "all", "--max-n", "6"]) == 0
        assert len(exact_core._CACHES) == 18
        assert any(map(_cache_size, exact_core._CACHES))
        exact_core.clear_caches()
        assert list(map(_cache_size, exact_core._CACHES)) == [0] * 18


_COMMANDS = (
    ["verify", "--identity", "all", "--max-n", "12"],
    *(["involution", "--family", family, "--n", "5", "--emit-pairs"] for family in "DPQ"),
    ["table", "--sequence", "pell", "--max-n", "20"],
)

_COLD_RUN = f"""
import sys
sys.path.insert(0, sys.argv[1])
from narayana import cli
for argv in {_COMMANDS!r}:
    assert cli.main(argv) == 0
"""


def _in_process_digest() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for argv in _COMMANDS:
            assert cli.main(argv) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_cleared_caches_print_what_a_fresh_process_prints():
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_RUN, str(SRC)],
        capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    cold = hashlib.sha256(proc.stdout).hexdigest()
    # recorded before the memos were registered
    assert cold == "850bc2c057992da1fb18e46f71931a4f951a27b24a0b5a96a315d1004de8f5d0"
    warm, warm_again = _in_process_digest(), _in_process_digest()
    exact_core.clear_caches()
    assert [warm, warm_again, _in_process_digest()] == [cold] * 3
