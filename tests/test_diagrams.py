"""Cartan validation, catalog classification, additive certificates."""

from __future__ import annotations

import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import correspondence, diagrams
from artifact.diagrams import (
    ADDITIVE,
    STRICTLY_SUBADDITIVE,
    VIOLATED,
    AsymmetricZeroPattern,
    CartanMatrix,
    CyclicOrientation,
    DiagonalNotTwo,
    DiagramClass,
    Disconnected,
    PositiveOffDiagonal,
    Quiver,
    _walk,
    canonical_key,
    catalog_diagram,
    catalog_members,
    check_subadditive,
    classify,
    cycle_quiver,
    default_quiver,
    find_additive_function,
    parse_shorthand,
    quiver_from_json,
    validate_cartan,
)
from cartan_oracles import (
    DenseCartanMatrix,
    centres_by_set_peel,
    dense_rows,
    quiver_from_json_by_rows,
)


def relabeled_rows(c: CartanMatrix, perm) -> list[list[int]]:
    """The dense rows of c with vertex k renamed perm[k]."""
    rows = dense_rows(c)
    out = [[0] * c.d for _ in range(c.d)]
    for i in range(c.d):
        for j in range(c.d):
            out[perm[i]][perm[j]] = rows[i][j]
    return out


def relabeled(c: CartanMatrix, perm) -> CartanMatrix:
    """The matrix with vertex k renamed perm[k]."""
    return validate_cartan(relabeled_rows(c, perm))


def quiver_to_json(q: Quiver) -> dict:
    edges = [{"from": i, "to": j, "val": list(q.cartan.valuation(j, i))}
             for i, j in sorted(q.arrows)]
    return {"vertices": q.cartan.d, "edges": edges}


def test_validation_errors():
    with pytest.raises(DiagonalNotTwo):
        validate_cartan([[1, -1], [-1, 2]])
    with pytest.raises(PositiveOffDiagonal):
        validate_cartan([[2, 1], [-1, 2]])
    with pytest.raises(AsymmetricZeroPattern):
        validate_cartan([[2, 0], [-1, 2]])
    with pytest.raises(Disconnected):
        validate_cartan([[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]])


def test_classification_of_whole_catalog():
    for d in range(2, 13):
        for tag, kind, m, c in catalog_members(d):
            got = classify(c)
            assert (got.tag, got.kind, got.m) == (tag, kind, m), (kind, m)


def test_classification_is_relabeling_invariant():
    rng = random.Random(11)
    for d in range(2, 10):
        for tag, kind, m, c in catalog_members(d):
            perm = list(range(d))
            rng.shuffle(perm)
            got = classify(relabeled(c, perm))
            assert (got.tag, got.kind, got.m) == (tag, kind, m)


def test_catalog_keys_are_pairwise_distinct():
    # so no two catalog members on the same vertex count can be confused
    for d in range(1, 13):
        keys = [canonical_key(c) for _, _, _, c in catalog_members(d)]
        assert None not in keys and len(set(keys)) == len(keys), d


def _valued_digraph(c):
    g = nx.DiGraph()
    g.add_nodes_from(range(c.d))
    for i, j in c.edges():
        a, b = c.valuation(i, j)
        g.add_edge(i, j, w=a)
        g.add_edge(j, i, w=b)
    return g


def _vf2_classify(c):
    """Oracle: the catalog member isomorphic to c as a valued digraph."""
    g = _valued_digraph(c)
    for tag, kind, m, member in catalog_members(c.d):
        h = _valued_digraph(member)
        if nx.is_isomorphic(g, h, edge_match=lambda e1, e2: e1["w"] == e2["w"]):
            return DiagramClass(tag, kind, m)
    return DiagramClass("Indefinite")


VALUATIONS = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (1, 4)]


@st.composite
def relabeled_catalog_members(draw):
    members = catalog_members(draw(st.integers(1, 11)))
    c = draw(st.sampled_from(members))[3]
    return relabeled(c, draw(st.permutations(range(c.d))))


@st.composite
def valued_graphs(draw):
    # a random tree plus 0, 1 or 2 chords, each closing one independent cycle;
    # every edge valued (1,1) half of the time, so affine trees and cycles occur
    d = draw(st.integers(1, 9))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, d)}
    chords = sorted({(i, j) for i in range(d) for j in range(i + 1, d)} - edges)
    edges |= set(draw(st.lists(st.sampled_from(chords), max_size=2, unique=True))
                 if chords else [])
    simply_laced = draw(st.booleans())
    m = [[2 if i == j else 0 for j in range(d)] for i in range(d)]
    for i, j in edges:
        a, b = (1, 1) if simply_laced else draw(st.sampled_from(VALUATIONS))
        m[i][j], m[j][i] = -a, -b
    return relabeled(validate_cartan(m), draw(st.permutations(range(d))))


def _validate_cartan_entrywise(matrix):
    # the validator that looped over every entry in Python, kept as the oracle
    if not (isinstance(matrix, (list, tuple)) and matrix and all(
            isinstance(row, (list, tuple)) and len(row) == len(matrix)
            and all(type(x) is int for x in row) for row in matrix)):
        raise ValueError("Cartan matrix must be a nonempty square list of integer rows")
    n = len(matrix)
    for i in range(n):
        if matrix[i][i] != 2:
            raise DiagonalNotTwo("entry (%d,%d) = %d" % (i, i, matrix[i][i]))
    for i in range(n):
        for j in range(n):
            if i != j and matrix[i][j] > 0:
                raise PositiveOffDiagonal("entry (%d,%d) = %d" % (i, j, matrix[i][j]))
    for i in range(n):
        for j in range(i + 1, n):
            if (matrix[i][j] == 0) != (matrix[j][i] == 0):
                raise AsymmetricZeroPattern("entries (%d,%d)/(%d,%d)" % (i, j, j, i))
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in range(n):
            if u != v and matrix[u][v] and u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != n:
        raise Disconnected("reached %d of %d vertices" % (len(seen), n))
    return tuple(tuple(int(v) for v in row) for row in matrix)


@st.composite
def near_cartan_matrices(draw):
    """Square matrices from a random valued graph, sparse or dense, with up
    to three entries overwritten, up to three zero-pattern flips and maybe
    one entry retyped as an equal bool or float, so any check may fail."""
    d = draw(st.integers(1, 7))
    density = draw(st.integers(1, 3))
    m = [[0] * d for _ in range(d)]
    for i in range(d):
        m[i][i] = 2
        for j in range(i + 1, d):
            if draw(st.integers(0, 3)) < density:
                m[i][j], m[j][i] = -draw(st.integers(1, 3)), -draw(st.integers(1, 3))
    cell = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1))
    for i, j in draw(st.lists(cell, max_size=3)):
        m[i][j] = draw(st.integers(-3, 3))
    for i, j in draw(st.lists(cell, max_size=3)):
        if i != j:
            m[i][j] = 0 if m[i][j] else -1
    if draw(st.integers(0, 7)) == 0:
        i, j = draw(cell)
        m[i][j] = draw(st.sampled_from([bool, float]))(m[i][j])
    return m if draw(st.booleans()) else tuple(map(tuple, m))


malformed_matrices = st.one_of(
    st.integers(), st.text(max_size=2), st.just([]), st.just(()),
    st.lists(st.one_of(
        st.lists(st.one_of(st.integers(-3, 3), st.booleans(), st.floats(-3, 3),
                           st.text(max_size=1)), max_size=4),
        st.integers(), st.none()), max_size=4))


def _validation_outcome(validate, matrix):
    try:
        return validate(matrix)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("matrix, error, message", [
    ([[2, -1], [-1, 1]], DiagonalNotTwo, "entry (1,1) = 1"),
    ([[2, -1, 0], [-1, 2, 3], [0, 1, 2]], PositiveOffDiagonal, "entry (1,2) = 3"),
    # row 0 has one entry without its mirror and one mirror without its entry
    ([[2, -1, 0], [0, 2, -1], [-1, -1, 2]], AsymmetricZeroPattern, "entries (0,1)/(1,0)"),
    ([[2, 0, -1], [0, 2, 0], [-1, 0, 2]], Disconnected, "reached 2 of 3 vertices"),
    ([[2, -1], [-1.0, 2]], ValueError, "Cartan matrix must be a nonempty square list"),
])
def test_validation_names_the_first_offending_entry(matrix, error, message):
    for validate in (validate_cartan, _validate_cartan_entrywise):
        with pytest.raises(error) as info:
            validate(matrix)
        assert type(info.value) is error and str(info.value).startswith(message)


@settings(max_examples=600, deadline=None)
@given(st.one_of(near_cartan_matrices(), malformed_matrices,
                 st.builds(dense_rows, st.one_of(relabeled_catalog_members(), valued_graphs()))))
def test_validate_cartan_agrees_with_the_entrywise_checks(matrix):
    got = _validation_outcome(validate_cartan, matrix)
    want = _validation_outcome(_validate_cartan_entrywise, matrix)
    assert (tuple(map(tuple, dense_rows(got))) if isinstance(got, CartanMatrix) else got) == want


@settings(max_examples=300, deadline=None)
@given(st.one_of(relabeled_catalog_members(), valued_graphs()),
       st.one_of(relabeled_catalog_members(), valued_graphs()), st.data())
def test_sparse_cartan_reads_like_the_dense_oracle(c, other, data):
    # two relabellings of c (equal when the second is an automorphism) and
    # one of another diagram
    pairs = []
    for x in (c, c, other):
        rows = relabeled_rows(x, data.draw(st.permutations(range(x.d))))
        pairs.append((validate_cartan(rows), DenseCartanMatrix(rows)))
    for sparse, dense in pairs:
        assert sparse.d == dense.d and sparse.edges() == dense.edges()
        q = Quiver(sparse, sparse.edges())
        for j in range(dense.d):
            assert sparse.neighbors(j) == dense.neighbors(j)
            for i in range(dense.d):
                if i != j:
                    assert q.exponent(i, j) == dense.exponent(i, j)
        for i, j in dense.edges():
            assert sparse.valuation(i, j) == dense.valuation(i, j)
            assert sparse.valuation(j, i) == dense.valuation(j, i)
    for sparse_a, dense_a in pairs:
        for sparse_b, dense_b in pairs:
            assert (sparse_a == sparse_b) == (dense_a == dense_b)
            if sparse_a == sparse_b:
                assert hash(sparse_a) == hash(sparse_b)


def test_catalog_members_equal_their_validated_rows():
    # the catalog is built from edge lists with no validation pass
    for d in range(1, 13):
        for _, kind, m, c in catalog_members(d):
            checked = validate_cartan(dense_rows(c))
            assert c == checked and hash(c) == hash(checked), (kind, m)
            assert repr(c) == repr(checked)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 80), st.integers(1, 80), st.randoms(use_true_random=False))
def test_walk_centres_match_the_set_peel(d, reach, rnd):
    # vertex v hangs off one of the reach vertices before it: small reach
    # gives long paths, large reach bushy trees
    perm = rnd.sample(range(d), d)
    m = [[2 if i == j else 0 for j in range(d)] for i in range(d)]
    for v in range(1, d):
        p = rnd.randint(max(0, v - reach), v - 1)
        a, b = rnd.choice(VALUATIONS)
        m[perm[v]][perm[p]], m[perm[p]][perm[v]] = -a, -b
    c = validate_cartan(m)
    shape, searches = _walk(c)
    assert shape == "tree"
    nbrs = [c.neighbors(v) for v in range(d)]
    assert [order[0] for _, order in searches] == centres_by_set_peel(nbrs)


@settings(max_examples=300, deadline=None)
@given(st.one_of(relabeled_catalog_members(), valued_graphs()))
def test_classify_agrees_with_vf2(c):
    assert classify(c) == _vf2_classify(c)


def test_classify_at_the_vertex_cap():
    perm = list(range(512))
    random.Random(5).shuffle(perm)
    path = relabeled(catalog_diagram("A", 512), perm)
    assert classify(path) == DiagramClass("Dynkin", "A", 512)
    assert find_additive_function(path) is None
    fork = relabeled(catalog_diagram("Dtilde", 511), perm)
    assert classify(fork) == DiagramClass("Euclidean", "Dtilde", 511)
    marks = [1, 1] + [2] * 508 + [1, 1]
    assert find_additive_function(fork) == {perm[k]: mark for k, mark in enumerate(marks)}


def test_classify_keys_the_members_of_a_rank_once(monkeypatch):
    calls = []

    def counting(c):
        calls.append(c.d)
        return key(c)

    key = diagrams.canonical_key
    monkeypatch.setattr(diagrams, "canonical_key", counting)
    diagrams._member_keys.cache_clear()
    assert classify(catalog_diagram("D", 7)) == DiagramClass("Dynkin", "D", 7)
    assert len(calls) == 1 + len(catalog_members(7))  # the input, then every member of rank 7
    del calls[:]
    assert classify(catalog_diagram("Etilde6", 6)) == DiagramClass("Euclidean", "Etilde6", 6)
    assert calls == [7]  # the input only


def test_b3_and_c3_differ():
    b3, c3 = catalog_diagram("B", 3), catalog_diagram("C", 3)
    assert classify(b3).kind == "B" and classify(c3).kind == "C"


def test_indefinite_examples():
    assert classify(validate_cartan([[2, -2], [-3, 2]])).tag == "Indefinite"
    k4 = [[2 if i == j else -1 for j in range(4)] for i in range(4)]
    assert classify(validate_cartan(k4)).tag == "Indefinite"


EXPECTED_MARKS = {
    ("Atilde", 3): (1, 1, 1, 1),
    ("Btilde", 3): (1, 1, 2, 1),
    ("Btilde", 5): (1, 1, 2, 2, 2, 1),
    ("Ctilde", 2): (1, 2, 1),
    ("Ctilde", 4): (1, 2, 2, 2, 1),
    ("Dtilde", 4): (1, 1, 2, 1, 1),
    ("Dtilde", 6): (1, 1, 2, 2, 2, 1, 1),
    ("BCtilde", 2): (2, 2, 1),
    ("BCtilde", 4): (2, 2, 2, 2, 1),
    ("BDtilde", 3): (1, 1, 2, 2),
    ("BDtilde", 5): (1, 1, 2, 2, 2, 2),
    ("CDtilde", 2): (1, 1, 1),
    ("CDtilde", 4): (1, 1, 1, 1, 1),
    ("Atilde11", 1): (1, 1),
    ("Atilde12", 1): (2, 1),
    ("Gtilde21", 2): (1, 2, 3),
    ("Gtilde22", 2): (1, 2, 1),
    ("Ftilde41", 4): (1, 2, 3, 4, 2),
    ("Ftilde42", 4): (1, 2, 3, 2, 1),
    ("Etilde6", 6): (3, 2, 1, 2, 1, 2, 1),
    ("Etilde7", 7): (4, 3, 2, 1, 3, 2, 1, 2),
    ("Etilde8", 8): (6, 5, 4, 3, 2, 1, 4, 2, 3),
}


def _rational_nullspace(rows):
    """Basis of the nullspace of the given matrix, exact arithmetic."""
    m = [row[:] for row in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][col]
        m[r] = [v / inv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][col]:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            v[pc] = -m[row_idx][fc]
        basis.append(v)
    return basis


def _gauss_jordan_additive_function(c):
    """Oracle: a one-signed vector of C's left nullspace by dense elimination."""
    entries = dense_rows(c)
    rows = [[Fraction(entries[i][j]) for i in range(c.d)] for j in range(c.d)]
    basis = _rational_nullspace(rows)
    candidates = list(basis)
    if len(basis) > 1:
        candidates.append([sum(col) for col in zip(*basis)])
    for v in candidates:
        if all(x > 0 for x in v) or all(x < 0 for x in v):
            if v[0] < 0:
                v = [-x for x in v]
            lo = min(v)
            return {i: x / lo for i, x in enumerate(v)}
    return None


@settings(max_examples=400, deadline=None)
@given(st.one_of(relabeled_catalog_members(), valued_graphs()))
def test_additive_function_agrees_with_gauss_jordan(c):
    assert find_additive_function(c) == _gauss_jordan_additive_function(c)


def test_euclidean_marks():
    for (kind, m), marks in EXPECTED_MARKS.items():
        c = catalog_diagram(kind, m)
        f = find_additive_function(c)
        assert f is not None, (kind, m)
        assert tuple(f[i] for i in range(c.d)) == marks, (kind, m)
        assert check_subadditive(c, f) == ADDITIVE


def test_every_euclidean_has_additive_every_dynkin_has_none():
    for d in range(2, 13):
        for tag, kind, m, c in catalog_members(d):
            f = find_additive_function(c)
            if tag == "Euclidean":
                assert f is not None and min(f.values()) == 1
            else:
                assert f is None, (kind, m)


def test_dynkin_admits_strictly_subadditive():
    # solve sum_i f(i) C_ij = 1 for all j; for the positive-definite finite
    # types the solution exists and is strictly positive
    for d in range(2, 9):
        for tag, kind, m, c in catalog_members(d):
            if tag != "Dynkin":
                continue
            f = _solve_left_system(c)
            assert f is not None and all(v > 0 for v in f.values()), (kind, m)
            assert check_subadditive(c, f) == STRICTLY_SUBADDITIVE


def _solve_left_system(c):
    from fractions import Fraction

    n = c.d
    entries = dense_rows(c)
    aug = [[Fraction(entries[i][j]) for i in range(n)] + [Fraction(1)] for j in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                fac = aug[r][col]
                aug[r] = [x - fac * y for x, y in zip(aug[r], aug[col])]
    return {i: aug[i][n] for i in range(n)}


def test_check_subadditive_violations():
    c = catalog_diagram("Atilde", 2)
    assert check_subadditive(c, {0: 1, 1: 1, 2: 1}) == ADDITIVE
    assert check_subadditive(c, {0: 1, 1: 1, 2: 3}) == VIOLATED
    with pytest.raises(ValueError):
        check_subadditive(c, {0: 0, 1: 1, 2: 1})


def test_quiver_orientation_and_order():
    q = default_quiver("A", 3)
    assert q.topological_order == (0, 1, 2)
    assert q.out_neighbors(0) == [1] and q.in_neighbors(1) == [0]
    c = catalog_diagram("Atilde", 2)
    with pytest.raises(CyclicOrientation):
        Quiver(c, [(0, 1), (1, 2), (2, 0)])


def _toposort_by_sorting(d, arrows):
    # the toposort that re-sorted the whole arrow set for every vertex it
    # popped, kept as the oracle; None for a directed cycle
    indeg = [0] * d
    for _, j in arrows:
        indeg[j] += 1
    ready = sorted(v for v in range(d) if indeg[v] == 0)
    order = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        for (a, b) in sorted(arrows):
            if a == v:
                indeg[b] -= 1
                if indeg[b] == 0:
                    ready.append(b)
        ready.sort()
    return tuple(order) if len(order) == d else None


@settings(max_examples=200, deadline=None)
@given(valued_graphs(), st.data())
def test_toposort_matches_the_sorting_oracle(c, data):
    # a vertex ranking orients every edge acyclically; the arrows go in
    # shuffled, as a caller may pass them
    rank = data.draw(st.permutations(range(c.d)))
    arrows = data.draw(st.permutations(
        [(i, j) if rank[i] < rank[j] else (j, i) for i, j in c.edges()]))
    q = Quiver(c, arrows)
    assert q.topological_order == _toposort_by_sorting(c.d, arrows)
    for v in range(c.d):
        assert q.out_neighbors(v) == sorted(b for a, b in arrows if a == v)
        assert q.in_neighbors(v) == sorted(a for a, b in arrows if b == v)


@pytest.mark.parametrize("m", [2, 3, 7])
def test_directed_cycle_raises_like_the_sorting_oracle(m):
    c = catalog_diagram("Atilde", m)
    arrows = [(v, (v + 1) % c.d) for v in range(c.d)]
    assert _toposort_by_sorting(c.d, arrows) is None
    with pytest.raises(CyclicOrientation):
        Quiver(c, arrows)


def test_quiver_requires_total_orientation():
    c = catalog_diagram("A", 3)
    with pytest.raises(ValueError):
        Quiver(c, [(0, 1)])
    with pytest.raises(ValueError):
        Quiver(c, [(0, 1), (1, 0), (1, 2)])
    with pytest.raises(ValueError):
        Quiver(c, [(0, 1), (1, 2), (0, 2)])


def test_exponent_convention():
    # for the two-vertex diagram with a double-valued edge, each vertex
    # sees its neighbor with exponent 2
    q = parse_shorthand("kronecker")
    assert q.exponent(1, 0) == 2 and q.exponent(0, 1) == 2
    q2 = default_quiver("Atilde12", 1)
    assert (q2.exponent(1, 0), q2.exponent(0, 1)) == (4, 1)


def test_shorthands():
    assert classify(parse_shorthand("A3").cartan).kind == "A"
    q = parse_shorthand("Atilde3")
    assert classify(q.cartan).m == 3
    assert (0, 3) in q.arrows and (2, 3) in q.arrows
    q = parse_shorthand("Dtilde7")
    assert {(0, 2), (1, 2), (5, 6), (7, 5)} <= q.arrows
    assert classify(parse_shorthand("BCtilde4").cartan).kind == "BCtilde"
    assert classify(parse_shorthand("E6").cartan).kind == "E6"
    assert classify(parse_shorthand("Ftilde41").cartan).kind == "Ftilde41"
    with pytest.raises(ValueError):
        parse_shorthand("Z9")


def test_json_round_trip():
    q = parse_shorthand("Dtilde5")
    obj = quiver_to_json(q)
    q2 = quiver_from_json(obj)
    assert q2.cartan == q.cartan and q2.arrows == q.arrows


@pytest.mark.parametrize("second", [
    {"from": 0, "to": 1, "val": [2, 2]},  # a conflicting valuation
    {"from": 0, "to": 1},
    {"from": 1, "to": 0},
    {"from": 0, "to": 1, "val": [0, 0]},
])
def test_json_rejects_an_edge_listed_twice(second):
    obj = {"vertices": 3, "edges": [{"from": 1, "to": 2}, {"from": 0, "to": 1}, second]}
    with pytest.raises(ValueError, match=r"^edge \{0,1\} listed twice$"):
        quiver_from_json(obj)


def test_json_valuation_convention():
    obj = {"vertices": 2, "edges": [{"from": 0, "to": 1, "val": [2, 2]}]}
    q = quiver_from_json(obj)
    assert classify(q.cartan).kind == "Atilde11"
    obj = {"vertices": 2, "edges": [{"from": 0, "to": 1, "val": [1, 3]}]}
    q = quiver_from_json(obj)
    # val[0] scales the source's step, val[1] the target's
    assert q.exponent(1, 0) == 1 and q.exponent(0, 1) == 3


@st.composite
def quiver_json(draw):
    """Quiver JSON from random edges: half the time a spanning tree comes
    first, and half the time a valuation may hold a zero or an edge come
    twice, so every check of the reader gets its turn."""
    d = draw(st.integers(1, 7))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, d)] if draw(st.booleans()) else []
    pairs = st.tuples(st.integers(0, d - 1), st.integers(1, max(1, d - 1))).map(
        lambda p: (p[0], (p[0] + p[1]) % d))
    chosen = tree + (draw(st.lists(pairs, max_size=d)) if d > 1 else [])
    if draw(st.booleans()):  # no edge twice
        chosen = list({frozenset(p): p for p in reversed(chosen)}.values())
    vals = [None, None] + VALUATIONS + ([(0, 1), (2, 0), (0, 0)] if draw(st.booleans()) else [])
    edges = []
    for i, j in draw(st.permutations(chosen)):
        i, j = (j, i) if draw(st.booleans()) else (i, j)
        val = draw(st.sampled_from(vals))
        edges.append({"from": i, "to": j} if val is None else {"from": i, "to": j, "val": list(val)})
    return {"vertices": d, "edges": edges}


def _json_outcome(read, obj):
    try:
        q = read(obj)
    except ValueError as exc:
        return type(exc), str(exc)
    return q.cartan, q.arrows, q.topological_order


@settings(max_examples=500, deadline=None)
@given(quiver_json())
def test_quiver_from_json_agrees_with_the_dense_route(obj):
    assert _json_outcome(quiver_from_json, obj) == _json_outcome(quiver_from_json_by_rows, obj)


# Kac's index rules: a series' least index, or a fixed kind's only one
INDEX_RULES = {
    "A": (1, True), "B": (2, True), "C": (3, True), "D": (4, True),
    "E6": (6, False), "E7": (7, False), "E8": (8, False), "F4": (4, False), "G2": (2, False),
    "Atilde": (2, True), "Btilde": (3, True), "Ctilde": (2, True), "Dtilde": (4, True),
    "BCtilde": (2, True), "BDtilde": (3, True), "CDtilde": (2, True),
    "Atilde11": (1, False), "Atilde12": (1, False), "Etilde6": (6, False),
    "Etilde7": (7, False), "Etilde8": (8, False), "Ftilde41": (4, False),
    "Ftilde42": (4, False), "Gtilde21": (2, False), "Gtilde22": (2, False),
}


def test_the_catalog_has_the_kinds_of_the_index_rules():
    kinds = {kind for d in range(1, 15) for _, kind, _, _ in catalog_members(d)}
    assert kinds == set(INDEX_RULES)


@pytest.mark.parametrize("kind", list(INDEX_RULES))
def test_every_kind_rejects_an_index_outside_its_rule(kind):
    m, series = INDEX_RULES[kind]
    assert catalog_diagram(kind, m).d == m + ("tilde" in kind)
    if series:
        outside, message = [m - 1, 0, -3], r"^%s_m needs m >= %d" % (kind, m)
    else:
        outside, message = sorted({m - 1, m + 1, 1, 3} - {m}), r"^%s needs m = %d$" % (kind, m)
    for other in outside:
        for build in (catalog_diagram, default_quiver):
            with pytest.raises(ValueError, match=message):
                build(kind, other)


def test_series_index_errors_keep_their_notes():
    with pytest.raises(ValueError, match=r"^C_m needs m >= 3 \(C_2 is B_2\)$"):
        catalog_diagram("C", 2)
    with pytest.raises(ValueError, match=r"^Atilde_m needs m >= 2 "
                       r"\(m=1 is the Kronecker diagram Atilde11\)$"):
        default_quiver("Atilde", 1)
    with pytest.raises(ValueError, match=r"^Dtilde_m needs m >= 4$"):
        default_quiver("Dtilde", 3)
    with pytest.raises(ValueError, match=r"^unknown diagram kind 'Z'$"):
        catalog_diagram("Z", 3)


def test_shorthand_round_trip_over_the_catalog():
    # the name of a fixed member is its kind, of a series member kind + m
    for d in range(1, 15):
        for _, kind, m, c in catalog_members(d):
            if kind == "Atilde" and m in (11, 12):
                continue  # shadowed, see below
            q = parse_shorthand("%s%d" % (kind, m) if INDEX_RULES[kind][1] else kind)
            want = default_quiver(kind, m)
            assert q.cartan == c and q.arrows == want.arrows, (kind, m)
            assert q.topological_order == want.topological_order


@pytest.mark.parametrize("m", [11, 12])
def test_exceptional_names_shadow_the_atilde_series(m):
    name = "Atilde%d" % m
    assert ("Euclidean", "Atilde", m) in [member[:3] for member in catalog_members(m + 1)]
    q = parse_shorthand(name)
    assert q.cartan == catalog_diagram(name, 1) and q.cartan.d == 2
    assert q.cartan != catalog_diagram("Atilde", m)


def test_shorthand_indexes_are_ascii_digits():
    # as the CLI's vertex cap reads them
    assert classify(parse_shorthand(" A03 ").cartan) == DiagramClass("Dynkin", "A", 3)
    for name in ("A\u0663", "A\u00b3", "A", "E66", "Ftilde4", "Etilde63"):
        with pytest.raises(ValueError, match=r"^unrecognized diagram shorthand"):
            parse_shorthand(name)


def test_cycle_quiver_is_the_one_correspondence_exports():
    assert correspondence.cycle_quiver is cycle_quiver
