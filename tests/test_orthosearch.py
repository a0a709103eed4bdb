import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    basis_spherical_class,
    block_k3_model,
    oracle_coefficient_shells,
    oracle_find_positive_orthogonal,
    oracle_inertia,
    oracle_perturb_square_case,
    oracle_search_per_candidate_q,
    random_k3_model,
    random_spherical,
    spherical_classes_in_box,
    unimodular_k3_model,
)
from mukai_entropy import _linalg, lattice, orthosearch
from mukai_entropy.errors import LatticeInputError, SearchExhaustedError
from mukai_entropy.lattice import (
    K3LatticeModel,
    MukaiVector,
    add_vectors,
    doubled_square_is_nonsquare,
    is_perfect_square,
    mukai_pairing,
    orthogonal_complement_basis,
    pairing_matrix,
    rank_one_model,
    scale_vector,
    signature_of,
    square,
    structure_sheaf_vector,
    vector_content,
)
from mukai_entropy.isometries import spherical_twist_action
from mukai_entropy.orthosearch import (
    Rank2Form,
    _positive_classes,
    find_positive_orthogonal,
    rank2_form,
    rank2_isotropy_free,
    search_report,
    signature_report,
)

V = MukaiVector
S = V(1, (0,), 1)


def test_search_degree_two_returns_polarization():
    m = rank_one_model(2)
    v = find_positive_orthogonal(m, S, 3)
    assert v == V(0, (1,), 0)
    assert square(m, v) == 4
    assert doubled_square_is_nonsquare(m, v)


def test_search_degree_one_needs_combination():
    # every short candidate has square 2 v^2; the diagonal class works
    m = rank_one_model(1)
    v = find_positive_orthogonal(m, S, 3)
    assert v == V(1, (1,), -1)
    assert square(m, v) == 4
    assert mukai_pairing(m, v, S) == 0


def test_search_rejects_non_spherical():
    m = rank_one_model(2)
    with pytest.raises(LatticeInputError):
        find_positive_orthogonal(m, V(1, (0,), -1), 3)
    with pytest.raises(LatticeInputError):
        find_positive_orthogonal(m, S, 0)


def test_search_output_is_primitive_and_verified():
    rng = random.Random(40)
    for _ in range(30):
        model = random_k3_model(rng, rng.randint(1, 4))
        s = random_spherical(rng, model)
        v = find_positive_orthogonal(model, s, 3)
        assert vector_content(v) == 1
        assert mukai_pairing(model, v, s) == 0
        assert square(model, v) > 0
        assert doubled_square_is_nonsquare(model, v)


def _random_symmetric(rng, rank, entry_bound=9):
    g = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            g[i][j] = g[j][i] = rng.randint(-entry_bound, entry_bound)
    return tuple(tuple(row) for row in g)


def _index_loop_square(gram, coeffs):
    n = len(gram)
    return sum(coeffs[i] * gram[i][j] * coeffs[j]
               for i in range(n) for j in range(n))


@pytest.mark.parametrize("rank", range(1, 12))
def test_lazy_shells_match_sorted_oracle(rank):
    gram = _random_symmetric(random.Random(rank), rank)
    for bound in range(1, 4 if rank <= 5 else 3 if rank <= 7 else 2):
        assert [c for c, _ in _positive_classes(gram, bound)] == \
            [c for c in oracle_coefficient_shells(rank, bound)
             if _index_loop_square(gram, c) > 0]


_rank_and_bound = st.integers(1, 7).flatmap(lambda rank: st.tuples(
    st.just(rank), st.integers(1, 3 if rank <= 5 else 2)))


def test_last_entry_is_set_after_a_skipped_candidate():
    # q = 2 x^2 + 2 x y: after x = 1 the walk skips y = -1 (q = 0) and
    # yields y = 1; the tuple must carry 1, not the -1 it tried or the -1
    # left by the leaf (-1, -1) before it
    gram = ((2, 1), (1, 0))
    assert list(_positive_classes(gram, 1)) == \
        [((-1, 0), 2), ((1, 0), 2), ((-1, -1), 4), ((1, 1), 4)]


@settings(max_examples=60, deadline=None)
@given(rank_bound=_rank_and_bound, seed=st.integers(0, 2**32 - 1),
       sign=st.sampled_from((-1, 0, 1)))
@example(rank_bound=(7, 2), seed=0, sign=-1)
@example(rank_bound=(5, 3), seed=1, sign=1)
@example(rank_bound=(1, 3), seed=0, sign=0)
def test_shell_squares_match_quadratic_form(rank_bound, seed, sign):
    # the last entry is tried in closed form: whatever the sign of its
    # diagonal entry, pairs and order must be the sorted shells'
    rank, bound = rank_bound
    rng = random.Random(seed)
    g = [list(row) for row in _random_symmetric(rng, rank)]
    g[-1][-1] = sign * rng.randint(1, 9)
    gram = tuple(map(tuple, g))
    expected = [(c, _index_loop_square(gram, c))
                for c in oracle_coefficient_shells(rank, bound)]
    assert list(_positive_classes(gram, bound)) == \
        [(c, q) for c, q in expected if q > 0]


@settings(max_examples=60, deadline=None)
@given(rank_bound=_rank_and_bound, seed=st.integers(0, 2**32 - 1))
@example(rank_bound=(1, 3), seed=0)
@example(rank_bound=(7, 2), seed=0)
def test_first_positive_class_and_first_hit_are_primitive(rank_bound, seed):
    # the search takes both without a content gcd: a multiple g c' of a
    # class c' comes a shell after it, with 2 g^2 q' square iff 2 q' is
    rank, bound = rank_bound
    gram = _random_symmetric(random.Random(seed), rank)
    stream = list(_positive_classes(gram, bound))
    firsts = stream[:1] + [(c, q) for c, q in stream
                           if not is_perfect_square(2 * q)][:1]
    for coeffs, _ in firsts:
        assert math.gcd(*coeffs) == 1


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32), rho=st.integers(1, 4),
       bound=st.integers(1, 2), pick=st.integers(0, 10 ** 6))
@example(seed=8, rho=8, bound=1, pick=0)
@example(seed=10, rho=10, bound=1, pick=1)
def test_search_matches_whole_box_oracle(seed, rho, bound, pick):
    rng = random.Random(seed)
    if rho <= 4:
        model = random_k3_model(rng, rho)
        classes = spherical_classes_in_box(model, 1)
        s = classes[pick % len(classes)]
    else:  # the explicit examples: O_X, as in the benchmark at rho 8 and 10
        model = unimodular_k3_model(rng, rho, 1 + pick % 3)
        s = structure_sheaf_vector(model)
    try:
        expected = oracle_find_positive_orthogonal(model, s, bound)
    except SearchExhaustedError:
        with pytest.raises(SearchExhaustedError):
            find_positive_orthogonal(model, s, bound)
        return
    assert find_positive_orthogonal(model, s, bound) == expected


@settings(max_examples=40, deadline=None)
@given(rho=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
@example(rho=20, seed=20)
def test_search_matches_per_candidate_q_oracle(rho, seed):
    # up to rho 6 a moved spherical class (a full bound-1 scan is at most
    # 3^7 tuples); above, O_X, whose bound-1 hit comes within ~3 rho tuples
    rng = random.Random(seed)
    model = unimodular_k3_model(rng, rho, rng.randint(1, 6))
    s = _moved_spherical(rng, model) if rho <= 6 else \
        structure_sheaf_vector(model)
    try:
        expected = oracle_search_per_candidate_q(model, s, 1)
    except SearchExhaustedError:
        with pytest.raises(SearchExhaustedError):
            find_positive_orthogonal(model, s, 1)
        return
    assert find_positive_orthogonal(model, s, 1) == expected


def _assert_checked_twin(v):
    twin = MukaiVector.from_coords(v.coords)
    assert v == twin and hash(v) == hash(twin) and repr(v) == repr(twin)
    assert type(v.c) is tuple
    assert all(type(x) is int for x in v.coords)


@settings(max_examples=40, deadline=None)
@given(rho=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
@example(rho=20, seed=20)
@example(rho=3, seed=7)
def test_built_vectors_equal_their_checked_twins(rho, seed):
    # complement basis vectors and classes B c are built unchecked from ints
    # the package made; each must be the value the checking constructor
    # gives, with a tuple c and exact ints
    rng = random.Random(seed)
    model = unimodular_k3_model(rng, rho, rng.randint(1, 6))
    s = _moved_spherical(rng, model) if rho <= 6 else \
        structure_sheaf_vector(model)
    basis = orthogonal_complement_basis(model, [s])
    built = list(basis)
    classes = _positive_classes(pairing_matrix(model, basis), 1)
    for coeffs, _ in itertools.islice(classes, 5):
        built.append(orthosearch._combination(basis, coeffs))
    try:
        v = find_positive_orthogonal(model, s, 1)
    except SearchExhaustedError:
        pass
    else:
        built += [v, *orthogonal_complement_basis(model, [s, v])]
    for w in built:
        _assert_checked_twin(w)


@pytest.mark.parametrize("k", [1, 2, 7])
def test_pairing_matrix_makes_no_mukai_pairing_call(monkeypatch, k):
    calls = _count_mukai_pairings(monkeypatch)
    model = unimodular_k3_model(random.Random(k), 4, 2)
    vs = [V.from_coords(row) for row in _linalg.identity(model.rank)][:k]
    pairing_matrix(model, vs)
    assert calls == []


def test_rank_twenty_search_pairs_a_constant_number_of_times(monkeypatch):
    # the complement Gram at rho 20 has 21^2 = 441 entries; none of them
    # may cost a mukai_pairing call, only the spherical check of s and the
    # re-check of the hit
    calls = _count_mukai_pairings(monkeypatch)
    model = unimodular_k3_model(random.Random(20), 20, 3)
    find_positive_orthogonal(model, structure_sheaf_vector(model), 1)
    assert 1 <= len(calls) <= 4


def test_search_at_picard_rank_twenty():
    # the first shell at rho = 20 has 3^21 - 1 tuples; the search must stop
    # at its first hit instead of building the shell
    rho = 20
    gram = [[0] * rho for _ in range(rho)]
    gram[0][0] = 2
    for i in range(1, rho):
        gram[i][i] = -2
    for i in range(1, rho - 1):
        gram[i][i + 1] = gram[i + 1][i] = 1
    model = K3LatticeModel(rho, tuple(tuple(row) for row in gram))
    s = structure_sheaf_vector(model)
    v = find_positive_orthogonal(model, s, 2)
    assert vector_content(v) == 1
    assert mukai_pairing(model, v, s) == 0
    assert square(model, v) > 0
    assert doubled_square_is_nonsquare(model, v)


def test_perturbation_preserves_orthogonality():
    rng = random.Random(41)
    for _ in range(30):
        model = random_k3_model(rng, rng.randint(2, 4))
        s = random_spherical(rng, model)
        basis = orthogonal_complement_basis(model, [s])
        v, u = basis[0], basis[-1]
        n = rng.randint(1, 100)
        w = add_vectors(scale_vector(n, v), u)
        assert mukai_pairing(model, w, s) == 0


def test_perturbation_repairs_square_case():
    # (0,1,0) at degree one has 2 v^2 = 4; adding one complement vector of
    # the pair {s, v} with the smallest scale already breaks squareness
    from mukai_entropy.orthosearch import _perturb_square_case

    m1 = rank_one_model(1)
    repaired = _perturb_square_case(m1, S, V(0, (1,), 0))
    assert repaired == V(1, (1,), -1)
    assert square(m1, repaired) == 4
    assert doubled_square_is_nonsquare(m1, repaired)
    assert mukai_pairing(m1, repaired, S) == 0


def _check_failure_caller(model, s, bound):
    """Name of the function whose answer failed the shared answer check."""
    with pytest.raises(RuntimeError, match="fails its own check") as info:
        find_positive_orthogonal(model, s, bound)
    assert info.traceback[-1].name == "_checked_answer"
    return info.traceback[-2].name


@pytest.mark.parametrize("name", ["mukai_pairing", "square"])
def test_box_hit_is_checked_explicitly(monkeypatch, name):
    # (0, 1, 0) at degree two is a hit of the bound-1 box; a pairing with s
    # or a square that reads one off must raise even under python -O
    real = getattr(orthosearch, name)
    monkeypatch.setattr(orthosearch, name, lambda *a: real(*a) + 1)
    assert _check_failure_caller(rank_one_model(2), S, 1) == \
        "find_positive_orthogonal"


def test_perturbed_result_is_checked_explicitly(monkeypatch):
    # no class of the bound-1 box qualifies, so the search perturbs; a
    # pairing that reads <N v + u, s> != 0 must raise even under python -O
    from mukai_entropy import orthosearch

    model = K3LatticeModel(3, ((2, 0, 0), (0, -4, 2), (0, 2, -2)))
    s = V(-1, (0, 1, -1), 4)
    real = orthosearch.mukai_pairing
    monkeypatch.setattr(orthosearch, "mukai_pairing",
                        lambda m, a, b: real(m, a, b) + 1)
    assert _check_failure_caller(model, s, 1) == "_perturb_square_case"


def test_perturbed_square_is_checked_explicitly(monkeypatch):
    # an answer N v + u whose square is not the q the loop accepted must
    # raise even under python -O; doubling the built vector keeps it
    # orthogonal to s, so only the square check can catch it
    from mukai_entropy import orthosearch

    model = K3LatticeModel(3, ((2, 0, 0), (0, -4, 2), (0, 2, -2)))
    s = V(-1, (0, 1, -1), 4)
    real = orthosearch.add_vectors
    monkeypatch.setattr(orthosearch, "add_vectors",
                        lambda a, b: scale_vector(2, real(a, b)))
    assert _check_failure_caller(model, s, 1) == "_perturb_square_case"


def test_anisotropic_combination_falls_back_to_sums():
    from mukai_entropy.orthosearch import _anisotropic_combination

    model = K3LatticeModel(2, ((0, 1), (1, 0)))
    isotropic = [V(0, (1, 0), 0), V(0, (0, 1), 0)]
    combo = _anisotropic_combination(isotropic,
                                     pairing_matrix(model, isotropic))
    assert combo == V(0, (1, 1), 0) and square(model, combo) != 0
    # only the last pair, (1, 0, 0, 0) and (0, 0, 0, 1), pairs non-zero
    later = [V(0, (1, 0), 0), V(1, (0, 0), 0), V(0, (0, 0), 1)]
    combo = _anisotropic_combination(later, pairing_matrix(model, later))
    assert combo == V(1, (0, 0), 1) and square(model, combo) == -2
    assert _anisotropic_combination([], ()) is None


@pytest.mark.parametrize("seed", range(24))
def test_repair_matches_per_n_vector_oracle(seed):
    # every positive complement basis vector v of s, square 2 v^2 or not,
    # repaired through two integers per N and through a vector per N
    rng = random.Random(seed)
    rho = 1 + seed % 6
    model = unimodular_k3_model(rng, rho, rng.randint(1, 6)) if seed % 2 \
        else random_k3_model(rng, rho)
    s = _moved_spherical(rng, model)
    for v in orthogonal_complement_basis(model, [s]):
        if square(model, v) > 0:
            assert orthosearch._perturb_square_case(model, s, v) == \
                oracle_perturb_square_case(model, s, v)


@pytest.mark.parametrize("model, s, v, built", [
    # u = b_1 + b_2: every complement basis vector of {s, v} is isotropic
    (K3LatticeModel(2, ((2, 2), (2, 0))), V(-1, (0, 1), -1),
     V(-1, (0, 0), 1), 2),
    (rank_one_model(1), S, V(0, (1,), 0), 1),
])
def test_repair_builds_at_most_two_vectors(monkeypatch, model, s, v, built):
    calls = []
    real = orthosearch.add_vectors

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(orthosearch, "add_vectors", counted)
    repaired = orthosearch._perturb_square_case(model, s, v)
    assert repaired == oracle_perturb_square_case(model, s, v)
    assert len(calls) == built


def test_rank2_isotropy_free_values():
    m2, m1, m4 = rank_one_model(2), rank_one_model(1), rank_one_model(4)
    assert rank2_isotropy_free(m2, S, V(0, (1,), 0))          # v^2 = 4
    assert not rank2_isotropy_free(m1, S, V(0, (1,), 0))      # v^2 = 2
    assert not rank2_isotropy_free(m4, S, V(0, (1,), 0))      # v^2 = 8
    with pytest.raises(LatticeInputError):
        rank2_isotropy_free(m2, V(0, (1,), 0), S)
    with pytest.raises(LatticeInputError):
        rank2_isotropy_free(m2, S, V(1, (1,), 0))  # not orthogonal


def test_rank2_isotropy_matches_exhaustive_search():
    # the square criterion against a brute-force hunt for a s + b v with
    # square zero
    rng = random.Random(42)
    checked = 0
    while checked < 25:
        model = random_k3_model(rng, rng.randint(1, 3))
        s = random_spherical(rng, model)
        basis = orthogonal_complement_basis(model, [s])
        v = basis[rng.randrange(len(basis))]
        if square(model, v) == 0:
            continue
        checked += 1
        free = rank2_isotropy_free(model, s, v)
        # the equation -2 a^2 + b^2 v^2 = 0 only sees a^2 and b^2, so scanning
        # a, b in [0, 1000] decides the whole [-1000, 1000]^2 box
        vsq = square(model, v)
        doubled_squares = {2 * a * a for a in range(1001)}
        found = any(
            b * b * vsq in doubled_squares for b in range(1, 1001)
        )
        assert free == (not found)


def test_rank2_form():
    m = rank_one_model(2)
    form = rank2_form(m, S, V(0, (1,), 0))
    assert form.gram == ((-2, 0), (0, 4))
    with pytest.raises(LatticeInputError):
        rank2_form(m, V(0, (1,), 0), S)
    with pytest.raises(LatticeInputError):
        Rank2Form(((1, 2), (3, 4)))


def test_signature_report_reference_model():
    m = rank_one_model(2)
    report = signature_report(m, S)
    assert report.full.as_tuple() == (2, 1, 0)
    assert report.s_perp.as_tuple() == (2, 0, 0)
    assert report.s_line.as_tuple() == (0, 1, 0)
    assert report.extended is None
    with pytest.raises(LatticeInputError, match="spherical class"):
        signature_report(m, V(0, (1,), 0))  # square 4


def test_signature_report_with_negative_subspace():
    m = rank_one_model(2)
    report = signature_report(m, S, [V(2, (0,), 1)])
    assert report.extended.as_tuple() == (1, 1, 0)
    with pytest.raises(LatticeInputError):
        signature_report(m, S, [V(0, (1,), 0)])  # positive square


def test_repair_counts_its_budget_from_the_first_positive_n(monkeypatch):
    # v = (1, 0, -1) has square 2 and u = (0, (0, 1), 0) square -2 10^12, so
    # N v + u is positive from N = 10^6 + 1 on (N = 10^6 gives 0), and a
    # budget of one N already answers there
    monkeypatch.setattr(orthosearch, "_PERTURBATION_BUDGET", 1)
    model = K3LatticeModel(2, ((0, 1), (1, -2 * 10 ** 12)))
    s = V(1, (0, 0), 1)
    repaired = orthosearch._perturb_square_case(model, s, V(1, (0, 0), -1))
    assert repaired == V(10 ** 6 + 1, (0, 1), -(10 ** 6 + 1))
    assert square(model, repaired) == 4_000_002


def test_s_perp_drops_one_negative_direction():
    rng = random.Random(43)
    for _ in range(100):
        model = random_k3_model(rng, rng.randint(1, 4))
        s = random_spherical(rng, model)
        rho = model.picard_rank
        comp = orthogonal_complement_basis(model, [s])
        sig = signature_of(pairing_matrix(model, comp))
        assert sig.as_tuple() == (2, rho - 1, 0)


def _count_mukai_pairings(monkeypatch):
    calls = []
    real = lattice.mukai_pairing

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lattice, "mukai_pairing", counted)
    monkeypatch.setattr(orthosearch, "mukai_pairing", counted)
    return calls


def _moved_spherical(rng, model):
    """A spherical class moved off the coordinate axes by a few twists."""
    s = basis_spherical_class(rng, model)
    for _ in range(rng.randint(0, 2)):
        s = spherical_twist_action(
            model, basis_spherical_class(rng, model)).apply(s)
    return s


@settings(max_examples=40, deadline=None)
@given(rho=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
@example(rho=20, seed=5)
def test_signature_report_matches_eliminations_at_every_rank(rho, seed):
    rng = random.Random(seed)
    model = unimodular_k3_model(rng, rho, rng.randint(1, 6))
    s = _moved_spherical(rng, model)
    t = _moved_spherical(rng, model)  # square -2: a negative definite line
    report = signature_report(model, s, [t])
    units = [V.from_coords(row) for row in _linalg.identity(model.rank)]
    assert report.full == signature_of(pairing_matrix(model, units))
    assert report.s_line == signature_of(pairing_matrix(model, [s]))
    assert report.s_perp == signature_of(pairing_matrix(
        model, orthogonal_complement_basis(model, [s])))
    assert report.extended == signature_of(pairing_matrix(model, [t, s]))
    plain = signature_report(model, s)
    assert (plain.full, plain.s_line, plain.s_perp, plain.extended) == \
        (report.full, report.s_line, report.s_perp, None)


@settings(max_examples=15, deadline=None)
@given(rho=st.sampled_from((12, 14, 20)), seed=st.integers(0, 2**32 - 1))
@example(rho=20, seed=0)
def test_block_models_past_rank_ten_signature_and_complement(rho, seed):
    # models built from root-lattice blocks, not from <2d> + <-2>^(rho-1),
    # which K3LatticeModel accepts as it builds them;
    # sympy's nullspace spans the complement over Q, and a basis whose Smith
    # form is all ones spans the saturation of that span in Z^(rho+2)
    import sympy
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(seed)
    model = block_k3_model(rng, rho)
    assert oracle_inertia(model.ns_gram) == (1, rho - 1, 0)
    for s in (structure_sheaf_vector(model), _moved_spherical(rng, model)):
        report = signature_report(model, s)
        assert (report.full.as_tuple(), report.s_line.as_tuple(),
                report.s_perp.as_tuple()) == \
            ((2, rho, 0), (0, 1, 0), (2, rho - 1, 0))
        basis = sympy.Matrix(
            [v.coords for v in orthogonal_complement_basis(model, [s])]).T
        row = sympy.Matrix([s.coords]) * sympy.Matrix(model.mukai_gram)
        null = row.nullspace()
        assert basis.shape == (rho + 2, len(null)) == (rho + 2, rho + 1)
        assert row * basis == sympy.zeros(1, rho + 1)
        assert sympy.Matrix.hstack(basis, *null).rank() == rho + 1
        smith = smith_normal_form(basis, domain=sympy.ZZ)
        assert [smith[i, i] for i in range(rho + 1)] == [1] * (rho + 1)


@pytest.mark.parametrize("rho", [1, 2, 8, 20])
def test_signature_report_runs_no_elimination(monkeypatch, rho):
    calls = []

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(_linalg, "inertia")
    for module in (lattice, orthosearch):
        counted(module, "orthogonal_complement_basis")
        counted(module, "pairing_matrix")
    rng = random.Random(rho)
    model = unimodular_k3_model(rng, rho, 3)
    s = _moved_spherical(rng, model)
    calls.clear()
    report = signature_report(model, s)
    assert calls == []
    assert report.s_perp.as_tuple() == (2, rho - 1, 0)


def test_search_report_shape():
    m = rank_one_model(2)
    v = find_positive_orthogonal(m, S, 3)
    report = search_report(m, v)
    assert report == {
        "v": {"r": 0, "c": [1], "m": 0},
        "v_squared": 4,
        "twice_square": 8,
        "is_square": False,
    }
