import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import contextlib
import io
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargraph import search
from chargraph.cli import build_parser, document_to_graph, graph_to_document, graph_to_dot, run
from chargraph.errors import ChargraphError
from chargraph.graphs import PrimeGraph
from chargraph.models import psl2_graph, suzuki_graph
from chargraph.numtheory import as_prime_power
from chargraph.search import sweep_models


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- graph documents ---


def test_json_round_trip_for_generated_graphs():
    for g in (psl2_graph(64), psl2_graph(11), suzuki_graph(1), psl2_graph(4)):
        doc = graph_to_document(g, {"model": "x"})
        parsed, metadata = document_to_graph(json.loads(json.dumps(doc)))
        assert parsed == g
        assert metadata == {"model": "x"}


def test_document_validation():
    vertices_message = '"vertices" must be a list of integers'
    edges_message = '"edges" must be a list of 2-element integer lists'
    metadata_message = '"metadata" must be an object when present'
    outside = "has an endpoint outside the vertex set"
    cases = [
        ([], "graph document must be a JSON object"),
        ({"vertices": "nope"}, vertices_message),
        ({"vertices": [2, 3], "edges": {"2": 3}}, edges_message),
        ({"vertices": [2, 3], "metadata": [1]}, metadata_message),
        # the document's elements are checked by PrimeGraph, in its own words
        ({"vertices": [3, 5, True]}, "vertex True is not prime"),
        ({"vertices": [3, 5.0]}, "vertex 5.0 is not prime"),
        ({"vertices": [3, [5]]}, "vertex [5] is not prime"),
        ({"vertices": [2, 3], "edges": [[2]]}, "an edge is a 2-element tuple or list, got [2]"),
        ({"vertices": [2, 3, 5], "edges": [[2, 3, 5]]}, "an edge is a 2-element tuple or list, got [2, 3, 5]"),
        ({"vertices": [2, 3], "edges": [2, 3]}, "an edge is a 2-element tuple or list, got 2"),
        ({"vertices": [2, 3], "edges": [[2, "3"]]}, f"edge (2, '3') {outside}"),
        ({"vertices": [2, 3], "edges": [[2, 3], [False, 3]]}, f"edge (False, 3) {outside}"),
        ({"vertices": [2, 3], "edges": [[2, True]]}, f"edge (2, True) {outside}"),
        ({"vertices": [3, 5], "edges": [[3.0, 5]]}, f"edge (3.0, 5) {outside}"),
        ({"vertices": [3, 5], "edges": [[[3], 5]]}, f"edge ([3], 5) {outside}"),
        # falsy non-objects are refused too, not read as absent metadata
        ({"vertices": [2, 3], "metadata": []}, metadata_message),
        ({"vertices": [2, 3], "metadata": ""}, metadata_message),
        ({"vertices": [2, 3], "metadata": 0}, metadata_message),
        ({"vertices": [2, 3], "metadata": False}, metadata_message),
    ]
    for doc, message in cases:
        with pytest.raises(ChargraphError) as info:
            document_to_graph(doc)
        assert str(info.value) == message, doc


# JSON values of every kind, beside lists of small primes and prime pairs
# common enough that many documents build a graph with edges
PRIMES = st.sampled_from((2, 3, 5, 7, 11))
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-12, 12) | st.floats() | st.text(max_size=3)
    | PRIMES | st.sampled_from((3.0, 5.0, 2**70))
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=2), children, max_size=2),
    max_leaves=6,
)
VERTEX_LISTS = st.lists(PRIMES | JSON_VALUES, max_size=6)
EDGE_LISTS = st.lists(st.lists(JSON_SCALARS, min_size=2, max_size=2) | JSON_VALUES, max_size=6)
# (vertices, edges): a graph's, or elements of any kind
GRAPH_PARTS = st.lists(PRIMES, min_size=2, max_size=5, unique=True).flatmap(
    lambda vs: st.tuples(st.just(vs), st.lists(st.lists(st.sampled_from(vs), min_size=2, max_size=2, unique=True)))
) | st.tuples(VERTEX_LISTS, EDGE_LISTS)


def assert_round_trips(g: PrimeGraph) -> None:
    assert document_to_graph(json.loads(json.dumps(graph_to_document(g)))) == (g, {})


@settings(max_examples=400, deadline=None)
@given(GRAPH_PARTS)
def test_prime_graph_builds_or_refuses_any_json_elements(parts):
    vertices, edges = parts
    try:
        g = PrimeGraph(vertices, edges)
    except ChargraphError:
        return
    assert all(type(v) is int for v in g.vertices)
    assert_round_trips(g)


@settings(max_examples=150, deadline=None)
@given(GRAPH_PARTS, JSON_VALUES, JSON_VALUES, st.integers(0, 2))
def test_any_json_document_builds_or_is_refused_and_analyze_exits_0_or_2(parts, other_vertices, other_edges, swap):
    # swap 1 or 2 puts a JSON value of any kind, a list or not, in place of the vertices or the edges
    vertices, edges = parts
    doc = {"vertices": other_vertices if swap == 1 else vertices, "edges": other_edges if swap == 2 else edges}
    try:
        assert_round_trips(document_to_graph(doc)[0])
    except ChargraphError:
        pass
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "graph.json")
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["--quiet", "analyze", "--n", "4", "--input", str(path)])
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")


def test_dot_output_shape():
    dot = graph_to_dot(psl2_graph(64))
    lines = dot.strip().splitlines()
    assert lines[0] == "graph primes {" and lines[-1] == "}"
    body = [line.strip() for line in lines[1:-1]]
    vertex_lines = [line for line in body if re.fullmatch(r"\d+;", line)]
    edge_lines = [line for line in body if re.fullmatch(r"\d+ -- \d+;", line)]
    assert len(vertex_lines) == 5 and len(edge_lines) == 2
    assert len(body) == len(vertex_lines) + len(edge_lines)
    assert vertex_lines == ["2;", "3;", "5;", "7;", "13;"]
    assert edge_lines == ["3 -- 7;", "5 -- 13;"]


# --- subcommands ---


def test_psl2_command_json(capsys):
    code, out, err = invoke(capsys, "psl2", "64", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == [2, 3, 5, 7, 13]
    assert doc["edges"] == [[3, 7], [5, 13]]
    assert doc["metadata"]["components"] == [[2], [3, 7], [5, 13]]
    assert "PSL2(64)" in err


def test_quiet_suppresses_stderr(capsys):
    code, out, err = invoke(capsys, "--quiet", "psl2", "64")
    assert code == 0 and err == ""


def test_identical_invocations_are_byte_identical(capsys):
    _, out1, _ = invoke(capsys, "--quiet", "verify", "--suite", "--n", "5", "--alpha-max", "6")
    _, out2, _ = invoke(capsys, "--quiet", "verify", "--suite", "--n", "5", "--alpha-max", "6")
    assert out1 == out2
    _, out3, _ = invoke(capsys, "--quiet", "suzuki", "2", "--format", "dot")
    _, out4, _ = invoke(capsys, "--quiet", "suzuki", "2", "--format", "dot")
    assert out3 == out4


def test_default_suite_json_matches_the_recorded_digest():
    """The default suite document (n in 4..7, alpha and f in 2..12), pinned
    byte for byte in fresh interpreters under two hash seeds, as the CI
    console-script step pins it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "chargraph.cli", "--quiet", "verify", "--suite"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert digest == "895a456309241627546ed78f58a3afe3d6a91a963ac3600bc9e9c8fa0b5d8f60", seed


def test_suite_json_matches_the_recorded_digest(capsys):
    """The suite document is pinned byte for byte, so a refactor that changes
    any verdict, certificate or record order shows up here."""
    code, out, _ = invoke(capsys, "--quiet", "verify", "--suite", "--alpha-max", "48")
    assert code == 0
    assert len(out.encode()) == 356828
    assert hashlib.sha256(out.encode()).hexdigest() == "b4bb328f49b997954d6785233b6847fb01794bbcbe2b8bc165cfba6ff1694b76"


def test_suite_json_for_larger_n_matches_the_recorded_digest(capsys):
    """The suite documents for n in 8..13 up to alpha 48, concatenated, are
    pinned byte for byte: larger n reach larger clique and cycle searches.
    The n = 9 document alone is pinned too, as the CI console-script step
    pins it."""
    outs = [invoke(capsys, "--quiet", "verify", "--suite", "--n", str(n), "--alpha-max", "48") for n in range(8, 14)]
    assert all(code == 0 for code, _, _ in outs)
    text = "".join(out for _, out, _ in outs)
    assert hashlib.sha256(text.encode()).hexdigest() == "a2a055730fe9602f8e24a746e6b4fb06d3ce7a617d99645e7037ca4b2fb8b4dc"
    assert hashlib.sha256(outs[1][1].encode()).hexdigest() == "bc811f2c88f8b0f89c585e0f67a6a7a4b09486ffc13dc420e98b6fe168e7f795"


def test_suite_at_n_5_builds_the_recorded_document_from_a_cold_table(capsys):
    """The suite at n = 5 alone, its one sweep building every alpha's models
    from an empty table as a fresh process does, pinned byte for byte, as the
    CI console-script step pins it."""
    search._swept_models.cache_clear()
    code, out, _ = invoke(capsys, "--quiet", "verify", "--suite", "--n", "5", "--alpha-max", "48")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "6b8cebf938c52ade12004b634fe60cb8c4be02fef5169f1c60938e00030f0f46"


def test_suzuki_23_document_matches_the_recorded_digest_under_two_hash_seeds():
    """The Suzuki(2^47) graph document, pinned byte for byte in fresh
    interpreters under two hash seeds, as the CI console-script step pins it.
    Its 2^94 + 1 lies past the alpha range and factors without rho only
    through the Aurifeuillian split."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "chargraph.cli", "--quiet", "suzuki", "23"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert digest == "fe570cc701f0ff7c97693d60c4abc71b63f1381ca704c3a2da9bc63ddb198672", seed


def test_search_documents_match_the_recorded_digests_under_two_hash_seeds():
    """The search documents for n = 6 at each k over the whole alpha range,
    whose factoring of 2^a +- 1 reaches 2^90 + 1, pinned byte for byte in
    fresh interpreters under two hash seeds, as the CI console-script step
    pins them."""
    expected = {
        "n-3": "728424ca0f3a46e1df242bca7becb28766d0f655cac528cb03a0a71773dbb8f8",
        "n-2": "a238deb31bc9d7152f9cbab46575763c89c69d27f1e7430b32213bb53f13e374",
        "n-1": "33b5c06c2dde42135dd6ba1aab544f13ed01a377399cc36a45b04785d4452e4f",
    }
    src = str(Path(__file__).resolve().parent.parent / "src")
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        for k, digest in expected.items():
            proc = subprocess.run(
                [sys.executable, "-m", "chargraph.cli", "--quiet", "search", "--n", "6", "--k", k, "--alpha-max", "90"],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest, (seed, k)


# vertices on both sides of 9973, the last prime of the factoring sieve that
# is_prime reads, and two Mersenne primes far past it
SIEVE_BOUND_VERTICES = [9931, 9941, 9949, 9967, 9973, 10007, 10009, 10037, 2**31 - 1, 2**61 - 1]


def sieve_bound_document(*extra: int) -> str:
    """A ring on SIEVE_BOUND_VERTICES plus two chords, with extra vertices."""
    ring = SIEVE_BOUND_VERTICES
    edges = [[ring[i], ring[(i + 1) % len(ring)]] for i in range(len(ring))] + [[9931, 10007], [9973, 2**61 - 1]]
    return json.dumps({"vertices": ring + list(extra), "edges": edges})


def test_analyze_across_the_sieve_bound_matches_the_recorded_digest_under_two_hash_seeds(tmp_path):
    """The analyze document at n = 4 of a graph whose vertices straddle the
    sieve bound, pinned byte for byte in fresh interpreters under two hash
    seeds, as the CI console-script step pins it."""
    path = tmp_path / "bound.json"
    path.write_text(sieve_bound_document())
    src = str(Path(__file__).resolve().parent.parent / "src")
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "chargraph.cli", "--quiet", "analyze", "--n", "4", "--input", str(path)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert digest == "d56526c2a25380a97c42505f51d45b79c3304e2ec17cad175fcec585af7fe29f", seed


def test_caps_1456_analyze_document_matches_the_recorded_digest_under_two_hash_seeds(tmp_path):
    """The analyze document at n = 15 of the README "Caps" graph at seed 1456
    (the odd primes 3..101, an edge wherever the draw is at least 0.25),
    pinned byte for byte in fresh interpreters under two hash seeds, as the
    CI console-script step pins it.  The forced-edge rule reaches its 25-cycle
    in milliseconds, so a slow search fails at the timeout instead of
    stalling the suite."""
    P = [p for p in range(3, 102) if all(p % d for d in range(2, p))]
    rng = random.Random(1456)
    edges = [[P[a], P[b]] for a in range(25) for b in range(a + 1, 25) if rng.random() >= 0.25]
    path = tmp_path / "caps1456.json"
    path.write_text(json.dumps({"vertices": P, "edges": edges}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "chargraph.cli", "--quiet", "analyze", "--n", "15", "--input", str(path)],
            env=env, capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert digest == "5df276ffff3983054647ee434dbb2bb0c90b24cb5cbbe5797a71a0e54ceae7d5", seed


def test_caps_91_analyze_document_matches_the_recorded_digest_under_two_hash_seeds(tmp_path):
    """The analyze document at n = 14 of the README generator on the first 24
    odd primes, 3..97, at seed 91, pinned as the seed-1456 document is.  Its
    odd-cycle target 23 may leave one vertex off the cycle; forced edges that
    act once the vertices left out are known answer it in milliseconds, where
    forced edges only with no vertex to spare took over 10 s, and the timeout
    fails a search that slow."""
    P = [p for p in range(3, 98) if all(p % d for d in range(2, p))]
    rng = random.Random(91)
    edges = [[P[a], P[b]] for a in range(24) for b in range(a + 1, 24) if rng.random() >= 0.25]
    path = tmp_path / "caps91.json"
    path.write_text(json.dumps({"vertices": P, "edges": edges}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "chargraph.cli", "--quiet", "analyze", "--n", "14", "--input", str(path)],
            env=env, capture_output=True, text=True, timeout=5,
        )
        assert proc.returncode == 0, proc.stderr
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert digest == "3bcae4485ef56e318341673c91381d164657a118d46019eb6afbf52fac76f5a3", seed


def test_composites_on_either_side_of_the_sieve_bound_exit_2(tmp_path, capsys):
    for composite in (9991, 10001):  # 97 * 103 below the bound, 73 * 137 above it
        path = tmp_path / f"{composite}.json"
        path.write_text(sieve_bound_document(composite))
        expected = (2, "", f"error: vertex {composite} is not prime\n")
        assert invoke(capsys, "analyze", "--n", "4", "--input", str(path)) == expected


def test_float_endpoints_and_bool_vertices_exit_2_with_the_library_message(tmp_path, capsys):
    cases = [
        ({"vertices": [3, 5], "edges": [[3.0, 5]]}, "edge (3.0, 5) has an endpoint outside the vertex set"),
        ({"vertices": [3, 5, True], "edges": []}, "vertex True is not prime"),
    ]
    for doc, message in cases:
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(doc))
        expected = (2, "", f"error: {message}\n")
        assert invoke(capsys, "--quiet", "analyze", "--n", "4", "--input", str(path)) == expected


def test_model_graph_documents_match_the_recorded_digest():
    """The PSL2 graphs for q = 2^a, a in 2..90, and for the odd prime powers
    7 <= q < 2000, and the Suzuki graphs for m in 1..23, pinned byte for byte
    as graph documents."""
    odd = [q for q in range(7, 2000, 2) if as_prime_power(q) is not None]
    assert len(odd) == 321
    graphs = [psl2_graph(2**a) for a in range(2, 91)] + [psl2_graph(q) for q in odd]
    graphs += [suzuki_graph(m) for m in range(1, 24)]
    text = "".join(json.dumps(graph_to_document(g), sort_keys=True) + "\n" for g in graphs)
    assert hashlib.sha256(text.encode()).hexdigest() == "781fd68e1eba3e12004091fd53ebc3c03955b8bd370223772e895c942ac7340d"


def test_analyze_and_search_documents_match_the_recorded_digest(tmp_path, capsys):
    """The analyze reports on the PSL2(2^a) graph documents, a in 2..24, for
    n in 4..9, tagged as `chargraph psl2` writes them and with the metadata
    removed, then the search results for n in 4..9 at every k up to alpha 48,
    pinned byte for byte."""
    outs = []
    for a in range(2, 25):
        _, doc, _ = invoke(capsys, "--quiet", "psl2", str(2**a))
        tagged = tmp_path / f"tagged{a}.json"
        tagged.write_text(doc)
        untagged = tmp_path / f"untagged{a}.json"
        untagged.write_text(json.dumps({k: v for k, v in json.loads(doc).items() if k != "metadata"}))
        for n in range(4, 10):
            for path in (tagged, untagged):
                outs.append(invoke(capsys, "--quiet", "analyze", "--n", str(n), "--input", str(path)))
    for n in range(4, 10):
        for k in ("n-3", "n-2", "n-1"):
            outs.append(invoke(capsys, "--quiet", "search", "--n", str(n), "--k", k, "--alpha-max", "48"))
    assert all(code == 0 for code, _, _ in outs)
    reports = [json.loads(out) for _, out, _ in outs[:-18]]
    # the reports cover both certificates and both extremal classes
    assert any(r["clique_witness"] for r in reports) and any(r["odd_cycle"] for r in reports)
    assert {"MinExtremal", "MaxExtremal"} <= {r["extremal_class"] for r in reports}
    text = "".join(out for _, out, _ in outs)
    assert hashlib.sha256(text.encode()).hexdigest() == "a072081c29f88e940a0d69bcb33f3c5e8532d9851c7392f49a2bfe5562859d57"


def test_degrees_command(tmp_path, capsys):
    path = tmp_path / "degrees.txt"
    path.write_text("# PSL2(7) degrees\n1\n3\n6\n\n7\n8  # largest\n")
    code, out, _ = invoke(capsys, "--quiet", "degrees", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == [2, 3, 7]
    assert doc["edges"] == [[2, 3]]


def test_degrees_command_bad_line(tmp_path, capsys):
    path = tmp_path / "degrees.txt"
    # a long line is echoed clipped, so the error stays one short line
    for line, echo in (("nope", "'nope'"), ("x" * 5000, "'xxxxxxxxxxxxxxxxxxxx'... (5000 characters)")):
        path.write_text(f"1\n{line}\n")
        code, _, err = invoke(capsys, "--quiet", "degrees", str(path))
        assert code == 2 and f"degrees.txt:2: not an integer: {echo}" in err
        assert len(err) < 200


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(), reason="no int-to-str digit limit")
def test_degrees_command_line_past_the_digit_limit(tmp_path, capsys):
    path = tmp_path / "degrees.txt"
    path.write_text("1\n" + "7" * (sys.get_int_max_str_digits() + 700) + "\n")
    code, _, err = invoke(capsys, "--quiet", "degrees", str(path))
    assert code == 2
    assert f"degrees.txt:2: more digits than Python's int-to-str limit ({sys.get_int_max_str_digits()})" in err
    assert len(err) < 200


def test_analyze_command(tmp_path, capsys):
    graph_file = tmp_path / "g.json"
    code, out, _ = invoke(capsys, "--quiet", "psl2", "64")
    graph_file.write_text(out)
    code, out, err = invoke(capsys, "analyze", "--n", "5", "--input", str(graph_file))
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] is True
    assert report["extremal_class"] == "MinExtremal"
    assert report["odd_cycle"] == [2, 3, 5, 7, 13]
    assert "n-exact" in err


def test_analyze_untagged_graph_never_claims_max_extremal(tmp_path, capsys):
    graph_file = tmp_path / "g.json"
    doc = graph_to_document(psl2_graph(64))
    graph_file.write_text(json.dumps(doc))
    _, out, _ = invoke(capsys, "--quiet", "analyze", "--n", "5", "--input", str(graph_file))
    assert json.loads(out)["extremal_class"] == "MinExtremal"


def test_search_command(capsys):
    code, out, _ = invoke(capsys, "--quiet", "search", "--n", "5", "--k", "n-3", "--alpha-max", "12")
    assert code == 0
    payload = json.loads(out)
    alphas = [r["alpha"] for r in payload["realizations"]]
    assert 6 in alphas
    assert payload["k_target"] == 2
    # without --quiet the same document, and a summary on stderr
    code, loud_out, err = invoke(capsys, "search", "--n", "5", "--k", "n-3", "--alpha-max", "12")
    assert code == 0 and loud_out == out
    assert err == "k = 2: 3 realization(s) in alpha (2, 12): [6, 9, 11]; 5 near miss(es)\n"


def test_verify_command_passes(capsys):
    code, out, err = invoke(capsys, "verify", "--suite", "--n", "5", "--alpha-max", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True and payload["failures"] == 0
    assert any(r["check"] == "hamilton_characterization" for r in payload["records"])
    assert "PASS" in err


def test_verify_requires_suite(capsys):
    code, _, err = invoke(capsys, "verify")
    assert code == 2 and "--suite" in err


def test_export_command(tmp_path, capsys):
    graph_file = tmp_path / "g.json"
    _, out, _ = invoke(capsys, "--quiet", "psl2", "11")
    graph_file.write_text(out)
    code, dot, _ = invoke(capsys, "--quiet", "export", "--input", str(graph_file), "--format", "dot")
    assert code == 0 and dot.startswith("graph primes {")
    code, out2, _ = invoke(capsys, "--quiet", "export", "--input", str(graph_file), "--format", "json")
    assert code == 0 and json.loads(out2)["vertices"] == [2, 3, 5, 11]


def test_input_files_are_read_as_utf8(tmp_path):
    """JSON is UTF-8 (RFC 8259): the input files are read as UTF-8 whatever
    the locale, so no read falls back to the locale encoding."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNDEFAULTENCODING="1")
    graph_file = tmp_path / "g.json"
    doc = graph_to_document(psl2_graph(11), {"model": "PSL\u2082(11)", "note": "caract\u00e8res"})
    graph_file.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    degree_file = tmp_path / "degrees.txt"
    degree_file.write_text("# degr\u00e9s de PSL\u2082(7)\n1\n3\n6\n7\n8\n", encoding="utf-8")
    calls = [
        (["analyze", "--n", "4", "--input", str(graph_file)], "verdict"),
        (["export", "--input", str(graph_file), "--format", "json"], "PSL\\u2082(11)"),
        (["degrees", str(degree_file)], "vertices"),
    ]
    for argv, expected in calls:
        proc = subprocess.run(
            [sys.executable, "-W", "error::EncodingWarning", "-m", "chargraph.cli", "--quiet", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0 and expected in proc.stdout, (argv, proc.stderr)


# --- exit codes ---


def test_usage_error_exits_2(capsys):
    assert invoke(capsys, "analyze", "--n", "5")[0] == 2
    assert invoke(capsys, "unknown-command")[0] == 2


def test_bad_parameter_exits_2(capsys):
    code, _, err = invoke(capsys, "--quiet", "psl2", "12")
    assert code == 2 and "not a prime power" in err
    assert invoke(capsys, "--quiet", "psl2", "3")[0] == 2
    # refused before factoring, not as a factoring range error (exit 3)
    assert invoke(capsys, "--quiet", "psl2", "1") == (2, "", "error: PSL2 needs q >= 4, got 1\n")
    assert invoke(capsys, "--quiet", "suzuki", "0")[0] == 2


def test_range_error_exits_3(capsys):
    code, _, err = invoke(capsys, "--quiet", "search", "--n", "5", "--k", "n-3", "--alpha-max", "91")
    assert code == 3 and "alpha range" in err
    for m in (24, 30):  # q^4 + 1 = 2^(4m+2) + 1 passes the factorization cap from m = 24
        code, out, err = invoke(capsys, "--quiet", "suzuki", str(m))
        assert (code, out, err) == (3, "", f"error: Suzuki needs m <= 23, got {m}\n")
    # the library refuses an empty range, so the suite cannot print a vacuous PASS
    code, out, err = invoke(capsys, "verify", "--suite", "--alpha-max", "1")
    assert (code, out, err) == (3, "", "error: alpha range must lie within [2, 90], got [2, 1]\n")
    code, out, err = invoke(capsys, "search", "--n", "5", "--k", "n-3", "--alpha-max", "0")
    assert (code, out, err) == (3, "", "error: alpha range must lie within [2, 90], got [2, 0]\n")
    # the range is checked before n, in both commands
    for argv in (("search", "--n", "3", "--k", "n-3"), ("verify", "--suite", "--n", "3")):
        code, out, err = invoke(capsys, *argv, "--alpha-max", "91")
        assert (code, out, err) == (3, "", "error: alpha range must lie within [2, 90], got [2, 91]\n")


def test_size_cap_exits_3(tmp_path, capsys):
    primes = [p for p in range(2, 160) if all(p % d for d in range(2, p))][:26]
    graph_file = tmp_path / "big.json"
    graph_file.write_text(json.dumps({"vertices": primes, "edges": []}))
    code, _, err = invoke(capsys, "--quiet", "analyze", "--n", "5", "--input", str(graph_file))
    assert code == 3 and "capped" in err


def test_missing_input_exits_2(capsys, tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text('{"vertices": [2, 3')
    for path in ("/nonexistent.json", str(bad_json)):
        code, out, err = invoke(capsys, "--quiet", "analyze", "--n", "5", "--input", path)
        assert code == 2 and out == ""
        assert re.fullmatch(r"error: .+\n", err), err


def test_unreadable_input_files_exit_2(tmp_path, capsys):
    """Input a command cannot decode or parse is a usage error: one error
    line and exit 2, never a traceback with exit 1, the FAIL code."""
    contents = {
        "undecodable": b"\xff\xfe\n",
        "nested": b"[" * 100000,  # deeper than the recursion limit
        "long_int": b'{"vertices": [' + b"1" * 5000 + b"]}",  # past the int digit limit
    }
    calls = []
    for name, content in contents.items():
        path = tmp_path / name
        path.write_bytes(content)
        calls += [("analyze", "--n", "5", "--input", str(path)), ("export", "--input", str(path), "--format", "json")]
    calls.append(("degrees", str(tmp_path / "undecodable")))
    for argv in calls:
        code, out, err = invoke(capsys, "--quiet", *argv)
        assert (code, out) == (2, ""), argv
        assert re.fullmatch(r"error: [^\n]+\n", err), (argv, err)


def test_n_below_4_gives_one_message(tmp_path, capsys):
    graph_file = tmp_path / "g.json"
    graph_file.write_text(invoke(capsys, "--quiet", "psl2", "64")[1])
    expected = (2, "", "error: n-exactness is defined for n >= 4, got 3\n")
    assert invoke(capsys, "analyze", "--n", "3", "--input", str(graph_file)) == expected
    assert invoke(capsys, "search", "--n", "3", "--k", "n-3", "--alpha-max", "12") == expected
    assert invoke(capsys, "verify", "--suite", "--n", "3") == expected


def test_verify_failure_exit_code(monkeypatch, capsys):
    # force a FAIL record through the sweep to check the exit path
    from chargraph import cli
    from chargraph.exactness import VerificationRecord

    def fake_sweep(n, alpha_range):
        return [VerificationRecord("order_bound", "forced failure", False, {"n": n})]

    monkeypatch.setattr(cli, "sweep_models", fake_sweep)
    code, out, err = invoke(capsys, "verify", "--suite", "--n", "5", "--alpha-max", "4")
    assert code == 1
    assert json.loads(out)["failures"] == 1
    assert "FAIL" in err


# --- one parser per process ---


def test_repeated_runs_match_fresh_processes(tmp_path, monkeypatch, capsys):
    """run() shares one parser across calls; each call in a row must still
    print and exit exactly as the same argv does in a fresh interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")  # help wraps at the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    # seven isolated vertices, n = 4: order 2n - 1, so the class is MaxExtremal
    # with --character-model and Interior without it
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({"vertices": [2, 3, 5, 7, 11, 13, 17], "edges": []}))
    tagged = tmp_path / "tagged.json"
    tagged.write_text(json.dumps(graph_to_document(psl2_graph(64), {"model": "PSL2(64)"})))
    calls = [
        ["--quiet", "analyze", "--n", "5"],
        ["--quiet", "analyze", "--n", "4", "--input", str(plain), "--character-model"],
        ["--quiet", "analyze", "--n", "4", "--input", str(plain)],
        ["--quiet", "analyze", "--n", "5", "--input", str(tagged)],
        ["psl2", "11", "--format", "dot"],
        ["--help"],
    ]
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "chargraph.cli", *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert invoke(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert [invoke(capsys, *argv)[0] for argv in calls] == [2, 0, 0, 0, 0, 0]
    assert build_parser() is build_parser()


def test_import_does_not_build_the_parser():
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import chargraph.cli as c; print(c.build_parser.cache_info().misses)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60
    )
    assert proc.stdout == "0\n", proc.stderr
