"""Metamorphic invariants of the analysis chain: listing the buses or the
generators in another order, or splitting every branch into two parallel
halves, describes the same network, so the outputs may differ only by
rounding; scaling every inertia constant scales h and lambda2_bar alone."""

import zlib
from dataclasses import replace

import numpy as np
import pytest

from gridgfv import analyze_case, build_ybus

from conftest import FIXTURE_NAMES, SYNTH120, get_analysis, get_case
from references import powerflow_jacobian


def _bounds(analysis):
    """Rounding bounds of a re-evaluation of analysis's network: relative
    to the scale of L and h, absolute for lambda2_bar and the GFV entries.

    Every stage is backward stable, so a re-evaluation in another operation
    order moves the operating point, and with it L and h, by about
    kappa * c * eps relative: kappa the condition number of the power-flow
    Jacobian, the worst-conditioned stage here (the eliminated blocks of the
    reductions stay below it), and c = 64 for the rounded operations between
    the solution and an output entry.  A relative change rel of the pencil
    moves lambda2_bar by at most rel * lambda_max (Weyl) and the second
    vector by at most rel * lambda_max / gap (Davis-Kahan), gap the distance
    from lambda2_bar to its neighbours 0 and lambda3; the GFV entries take
    twice that for the rescaling to unit maximum.
    """
    case = analysis.case
    jac = powerflow_jacobian(case, build_ybus(case), analysis.solution)
    rel = 64 * np.finfo(float).eps * np.linalg.cond(jac, 1)
    vals = analysis.gep.eigenvalues
    gap = min(vals[1], vals[2] - vals[1]) if len(vals) > 2 else vals[1]
    return rel, rel * vals[-1], 2 * rel * vals[-1] / gap


def _assert_same_analysis(got, want, perm):
    """got is want's analysis with its bus rows taken in the order perm."""
    rel, lambda_tol, gfv_tol = _bounds(want)
    want_l = want.laplacian[np.ix_(perm, perm)]
    assert np.max(np.abs(got.laplacian - want_l)) <= rel * np.abs(want_l).max()
    assert np.max(np.abs(got.inertia - want.inertia[perm])) <= rel * want.inertia.max()
    assert abs(got.gfv.value - want.gfv.value) <= lambda_tol
    assert np.max(np.abs(got.gfv.vector - want.gfv.vector[perm])) <= gfv_tol


@pytest.mark.parametrize("name", FIXTURE_NAMES + [SYNTH120])
def test_bus_permutation_permutes_the_outputs(name):
    case = get_case(name)
    perm = np.random.default_rng(zlib.crc32(name.encode())).permutation(case.n_bus)
    permuted = analyze_case(replace(case, buses=tuple(case.buses[i] for i in perm)))
    _assert_same_analysis(permuted, get_analysis(name), perm)


@pytest.mark.parametrize("name", FIXTURE_NAMES + [SYNTH120])
def test_splitting_every_branch_in_two_parallel_halves_changes_nothing(name):
    case = get_case(name)
    halves = tuple(half for br in case.branches
                   for half in [replace(br, r=2 * br.r, x=2 * br.x, b_ch=br.b_ch / 2)] * 2)
    split = analyze_case(replace(case, branches=halves))
    _assert_same_analysis(split, get_analysis(name), np.arange(case.n_bus))


@pytest.mark.parametrize("name", FIXTURE_NAMES + [SYNTH120])
def test_generator_permutation_changes_nothing(name):
    case = get_case(name)
    perm = np.random.default_rng(zlib.crc32(name.encode())).permutation(case.n_gen)
    if np.array_equal(perm, np.arange(case.n_gen)):  # case9_lossless's draw
        perm = perm[::-1]
    permuted = analyze_case(replace(case, generators=tuple(case.generators[i] for i in perm)))
    _assert_same_analysis(permuted, get_analysis(name), np.arange(case.n_bus))


@pytest.mark.parametrize("name", FIXTURE_NAMES + [SYNTH120])
def test_tripling_every_inertia_triples_h_and_divides_lambda2(name):
    # H enters neither the operating point nor L.  The pencil (L, 3N) has
    # the eigenvalues of (L, N) over 3 and the same eigenvectors, and its
    # rounding is that of (L, N) scaled by 3 at most, so _bounds applies to
    # h / 3 and 3 * lambda2_bar.
    case = get_case(name)
    scaled = analyze_case(replace(case, generators=tuple(
        replace(g, h=3 * g.h) for g in case.generators)))
    want = get_analysis(name)
    rel, lambda_tol, gfv_tol = _bounds(want)
    assert np.max(np.abs(scaled.laplacian - want.laplacian)) <= rel * np.abs(want.laplacian).max()
    assert np.max(np.abs(scaled.inertia / 3 - want.inertia)) <= rel * want.inertia.max()
    assert abs(3 * scaled.gfv.value - want.gfv.value) <= lambda_tol
    assert np.max(np.abs(scaled.gfv.vector - want.gfv.vector)) <= gfv_tol
