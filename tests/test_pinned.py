"""Byte pins on the outputs that depend on traversal order.

Component sizes and orders do not depend on the order in which a search
visits edges and j-sets, but search traces, wheel witnesses, component ids
and the j-set map's insertion order do.  Each test hashes one such output
on a seeded sample, so any change of visiting order shows up here.
"""

import hashlib

from hyperlab.cli import main
from hyperlab.combinatorics import TheoryParams, rank_subset
from hyperlab.hypergraph import j_components, sample, write_hypergraph
from hyperlab.processes import coupled_run, format_trace, search_component
from hyperlab.rng import trial_seed

PARAMS = TheoryParams(40, 3, 2, 0.3)
DIGESTS = {
    "trace": "0bdbbc5b0d86690abaa0a185d8a62ddd59329207bf87c13db720c9a88f666528",
    "wheels": "e114c45118190b5311f44cd25d73d282ab85dfa82d8864f11c7448f9acaef3c4",
    "jset_map": "986be27e9a074aa6401660f3ba16993431559d3e888c9b28574f9046d9f1378e",
    "coupled": "05eec300aea75ec1b2a0acf0153dde633e3595f4b7fc86b30e412d3689a4498b",
}


def digest(text):
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def subcritical():
    # seed 7 holds a 17-edge component carrying a wheel
    return sample(40, 3, PARAMS.p, 7)


def supercritical():
    return sample(40, 3, 1.5 * PARAMS.p0, 3)


def test_format_trace_pinned():
    h = subcritical()
    comps, jmap = j_components(h, 2)
    biggest = sorted(comps, key=lambda c: (-c.size, c.id))[:3]
    firsts = {}
    for e in h.edges:
        cid = jmap[rank_subset(e[:2], 40)]
        firsts.setdefault(cid, e)
    starts = [firsts[c.id][:2] for c in biggest]
    starts += [firsts[biggest[0].id][1:], (39, 40)]
    lines = []
    for start in starts:
        tr = search_component(h, 2, start)
        lines.append(f"start {start} size={tr.size} order={tr.order}")
        lines.extend(format_trace(tr))
    assert len(lines) > 60
    assert digest("\n".join(lines)) == DIGESTS["trace"]


def test_components_wheels_stdout_pinned(capsys, tmp_path):
    path = tmp_path / "dense.txt"
    path.write_text(write_hypergraph(supercritical()))
    assert main(["components", "--in", str(path), "--j", "2", "--wheels"]) == 0
    out = capsys.readouterr().out
    assert sum(ln.startswith("wheel ") for ln in out.splitlines()) >= 2
    assert digest(out) == DIGESTS["wheels"]


def test_jset_map_pinned():
    parts = []
    for h in (subcritical(), supercritical()):
        comps, jmap = j_components(h, 2)
        parts.append(repr(list(jmap.items())))
        for c in comps:
            w = c.wheel_witness
            parts.append(f"{c.id} {c.size} {c.order} {c.is_hypertree} "
                         f"{None if w is None else (w.edges, w.jsets)}")
    assert digest("\n".join(parts)) == DIGESTS["jset_map"]


def test_coupled_run_pinned():
    results = []
    for k, j in [(2, 1), (3, 2)]:
        params = TheoryParams(40, k, j, 0.3)
        for s in range(40):
            h = sample(40, k, params.p, trial_seed(41, s))
            start = h.edges[0][:j] if h.edges else tuple(range(1, j + 1))
            results.append(coupled_run(h, params, start, trial_seed(43, s)))
    assert digest(repr(results)) == DIGESTS["coupled"]
