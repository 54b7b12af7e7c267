"""Output gate: every job's canonical JSON is checked against known invariants.

The invariants come from the mathematics, not from the code under test:
dimensions and graded pieces of H^0/H^1 on the projective line and on the
twistor line (and any rescaling of it), the Hilbert function and the single
quadric relation of the section rings, and the round trip and checks of the
degree-zero pipeline. For the default seed the sha256 digest of each job's
output must also equal the digest recorded in ``digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")

_ROUND_TRIP = re.compile(r"^xi \+ O\(xi\^\d+\)$")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests() -> dict:
    """workload -> job key -> sha256 of the job's output at the recorded commit."""
    return json.loads(DIGESTS.read_text())


def _graded(lo: int, hi: int, twistor: bool) -> dict:
    """{m: dim} for m in lo..hi; the twistor line has 2 per degree except 1 at m = 0."""
    return {str(m): (1 if m == 0 or not twistor else 2) for m in range(lo, hi + 1)}


def expected_cohomology(curve: str, n: int) -> dict:
    """dims and graded pieces of H^0(O(n)), H^1(O(n)) on p1 or the twistor line."""
    if curve == "p1":
        gr_h0 = _graded(0, n, False) if n >= 0 else {}
        gr_h1 = _graded(n + 1, -1, False) if n <= -2 else {}
    else:
        gr_h0 = _graded(0, n, True) if n >= 0 else {}
        gr_h1 = _graded(n + 1, 0, True) if n < 0 else {}
    return {
        "h0": sum(gr_h0.values()),
        "h1": sum(gr_h1.values()),
        "gr_h0": gr_h0,
        "gr_h1": gr_h1,
    }


def _check_cohomology(job, payload) -> str | None:
    results = payload if isinstance(payload, list) else [payload]
    for res in results:
        want = expected_cohomology(job.params["curve"], res["n"])
        got = {k: res[k] for k in want}
        if got != want:
            return f"n={res['n']}: got {got}, want {want}"
        if not res["certified"]:
            return f"n={res['n']}: not certified"
    return None


def _check_pipeline(job, payload) -> str | None:
    if not (payload["hfp_image_equals_fil0"] and payload["injective"]):
        return "fixed-point image or injectivity check failed"
    if not _ROUND_TRIP.match(payload["rebase_round_trip"]):
        return f"rebase round trip is {payload['rebase_round_trip']!r}"
    if payload["jump_index"] != job.params["a"] + 1:
        return f"jump index {payload['jump_index']}, want {job.params['a'] + 1}"
    return None


def _check_dream(job, payload) -> str | None:
    return None if payload["all_match"] else "assembled and direct cohomology differ"


def _check_section_ring(job, payload) -> str | None:
    hilbert = payload["hilbert"]
    twistor = job.params["curve"] == "twistor"
    want = [2 * n + 1 if twistor else n + 1 for n in range(len(hilbert))]
    if hilbert != want:
        return f"hilbert function {hilbert}, want {want}"
    if not all(payload["surjective"].values()):
        return "degree-one sections do not generate"
    relations = payload["kernel_dims"].get("2")
    if relations != (1 if twistor else 0):
        return f"{relations} degree-2 relations"
    return None


_CHECKS = {
    "cohomology": _check_cohomology,
    "pipeline": _check_pipeline,
    "dream": _check_dream,
    "section-ring": _check_section_ring,
}


def check(job, code: int, stdout: str, stderr: str, want_digest: str | None) -> str | None:
    """None when the job passed, otherwise why it failed."""
    if code != 0:
        return f"exit code {code}: {stderr.strip()[-300:]}"
    try:
        payload = json.loads(stdout)
        reason = _CHECKS[job.check](job, payload)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    if reason is None and want_digest is not None and digest(stdout) != want_digest:
        reason = "output digest differs from the recorded one"
    return reason
