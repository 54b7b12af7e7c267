"""Degree-zero extraction from a two-periodic presentation.

Starting from A[u,v]/(uv - xi) and A[v^(+-1)] with A = Q[[xi]] mod xi^M
and a Bott element beta = f*u, the pipeline inverts beta, completes
along the Nygaard filtration, and extracts degree 0. The outcome is a
filtered Laurent field with local parameter tau = beta*v = f*xi; the
fixed-point side lands exactly on the 0th filtration stage, injectively.

A non-unit f ("divided Bott") cannot be used as a coordinate: the
carrier keeps the parameter xi and the filtration jumps in steps of
jump_index = valuation(f) + 1.
"""

import json

from curvecoh import (
    TwoPeriodicPresentation,
    hfp_degree_zero,
    nygaard_fil,
    pipeline_trace,
    rational_tps,
    rebase_round_trip,
    tate_degree_zero,
)

M = 16

for label, coeffs in [("1", [1]), ("1+xi", [1, 1]), ("xi", [0, 1])]:
    f = rational_tps(coeffs, M)
    pres = TwoPeriodicPresentation(f=f)
    model = tate_degree_zero(pres, M)
    image = hfp_degree_zero(pres, M)
    print(f"f = {label}")
    print(f"  beta*v          = {model.parameter_expression}")
    print(f"  carrier         = k(({model.parameter_name})), jump index {model.jump_index}")
    print(f"  reversion       = {str(model.reversion)[:64]}...")
    print(f"  round trip      = {rebase_round_trip(model)}")
    print(f"  image == Fil_0  : {image.image_equals_fil0()}")
    print(f"  injective       : {image.injective()}")
    print(f"  gr jump per Fil : {nygaard_fil(model, 1).gr_dimension()}")
    print()

print("a full machine-readable trace (f = 1+xi):")
trace = pipeline_trace(TwoPeriodicPresentation(f=rational_tps([1, 1], 8)), 8)
print(json.dumps(trace, sort_keys=True, indent=2))
