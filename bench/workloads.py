"""The benchmark workloads, the CLI calls, and the answer checks for each.

Every workload is a closed loop with one client: one process, one
thread, and the next op starts only after the previous one returned.  A
pass runs the workload's whole seeded op schedule once; the harness in
run.py repeats passes until the run's time is up.

Each op goes through ``rec.op(key, fn, check)``: ``fn`` is the timed
request and calls the program only through ``rec.call(layer, ...)``, so
that a traced run gets one span per layer call; ``check`` runs after the
timer stopped and returns None or the reason the answer is wrong.
"""

import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from resposet import (
    ExtensionMode,
    InvolutedPoset,
    boolean_residuation,
    chain_residuation,
    derived_negation,
    enumerate_antitone_involutions,
    extend_boolean_theorem5,
    extend_theorem1,
    extend_theorem2,
    extend_theorem3,
    find_residuations,
    find_residuations_naive,
    involuted,
    poset_from_covers,
    recognize_boolean,
    render_tables,
    verify_residuated,
)
from resposet.catalog import posets_of_size
from resposet.files import dump, load_structure, structure_to_doc

import inputs

# Bytes that verify_residuated holds at once per carrier of n elements:
# the two int64 associativity cubes and their boolean comparison.
CUBE_BYTES_PER_TRIPLE = 8 + 8 + 1

# Exhaustive search: no result limit is reached on any mined input here.
FULL = 10**6

CATALOG_COUNTS = (1, 2, 5, 16, 63)  # posets on 1..5 points, OEIS A000112
INVOLUTED_PAIRS = 82  # (poset, antitone involution) pairs on up to 5 points
NAIVE_MAX = 4  # the naive oracle enumerates n**(n(n-1)/2) tables

# Expected answers of the named searches in the mine workload: a number is
# the exact structure count of a full enumeration, "sat"/"unsat" a verdict.
# Theorems 1 and 2 guarantee that every extension is satisfiable.
MINE_EXPECTED = {
    "chain8": 31,
    "chain9": 59,
    "n5": "unsat",
    "pk9": "unsat",
    "kleene6-any-negation": 19,
}

GOLDEN_DIR = Path("tests") / "goldens"


# ---------------------------------------------------------------- layer calls


def build(rec, doc):
    """Poset, or involuted poset when the document has an involution."""
    rec.count("order.calls", 1)
    p = rec.call("order", poset_from_covers, doc["elements"], doc["covers"])
    if "involution" not in doc:
        return p
    return rec.call("involution", involuted, p, doc["involution"])


def construct(rec, fn, *args):
    """Run a construction without its built-in verification."""
    result = rec.call("constructions", fn, *args, verify=False)
    poset = result.poset
    rec.count("constructions.calls", 1)
    rec.count("constructions.elements", len(poset))
    return result


def verify(rec, s):
    """(axioms hold, derived negation) for a structure."""
    n = len(s.poset)
    rec.count("residuation.calls", 1)
    rec.count("residuation.triples", n**3)
    rec.peak("residuation.cube_mb", CUBE_BYTES_PER_TRIPLE * n**3 / 2**20)
    report = rec.call("residuation", verify_residuated, s)
    negation = rec.call("residuation", derived_negation, s)
    return report.overall, negation


def mine(rec, ip, **kwargs):
    outcome = rec.call("miner", find_residuations, ip, **kwargs)
    rec.count("miner.searches", 1)
    rec.count("miner.nodes", outcome.stats.nodes)
    rec.count("miner.structures", len(outcome.structures))
    for rule, n in outcome.stats.prunes.items():
        rec.count(f"miner.prunes.{rule}", n)
    return outcome


# ---------------------------------------------------------------- answer checks


def structures_wrong(outcome, ip, require_negation=True):
    """Reason a mined structure is wrong, or None when all are verified."""
    for k, s in enumerate(outcome.structures):
        if not verify_residuated(s).overall:
            return f"mined structure {k} fails verify_residuated"
        if require_negation and derived_negation(s) != ip.involution.mapping:
            return f"mined structure {k}: negation differs from the involution"
    return None


def verdict_wrong(outcome, expected):
    if expected == "sat":
        ok = outcome.satisfiable
    elif expected == "unsat":
        ok = not outcome.satisfiable
    else:
        ok = len(outcome.structures) == expected and not outcome.truncated
    if ok:
        return None
    return f"expected {expected}, got {len(outcome.structures)} structure(s)"


def first_wrong(*reasons):
    return next((r for r in reasons if r), None)


# ---------------------------------------------------------------- workloads


class Workload:
    # op_tail_ms is taken at TAIL_PERCENTILE: the highest of p99.9, p99, p95,
    # p90, p75 and p50 that leaves at least 10 samples above it in a run of
    # MIN_PASSES passes, the fewest a run makes.  A fixed percentile keeps the
    # tail from switching rungs when a busy machine fits fewer passes.
    TAIL_PERCENTILE = 95
    MIN_PASSES = 3

    def __init__(self, seed, root):
        self.seed = seed
        self.root = Path(root)

    def setup(self, rec):
        """Generate the seeded inputs and warm up; ``rec`` is discarded."""

    def answer_key(self):
        """Expected answers that need the program's own oracles; run once, untimed."""

    def run_pass(self, rec):
        raise NotImplementedError

    def layer_extras(self, rec):
        """Extra per-layer measurements of a traced run, taken after the timed phase."""
        return {}

    def close(self):
        pass


class Census(Workload):
    """Every involuted poset on up to 5 points: verdict, Theorem-1 extension, first structure."""

    name = "census"

    def setup(self, rec):
        rng = random.Random(self.seed)
        self.order = rng.sample(range(INVOLUTED_PAIRS), INVOLUTED_PAIRS)
        self.pairs = self._catalog(rec)[1]
        # The seed decides which pair gets which of the modes it admits, but
        # pairs admitting the same modes get each mode equally often, so that
        # every seed does the same amount of work.
        groups = {}
        for i in self.order:
            p, inv = self.pairs[i]
            groups.setdefault(tuple(inputs.admitted_modes(inputs.poset_doc(p, inv))), []).append(i)
        self.modes = {}
        for modes, members in groups.items():
            for j, i in enumerate(members):
                self.modes[i] = modes[j % len(modes)]
        for i in self.order[:4]:
            p, inv = self.pairs[i]
            rec.op(f"pair{i}", lambda: self._request(rec, p, inv, self.modes[i]), None)

    def _catalog(self, rec):
        sizes, pairs = [], []
        for n in range(1, len(CATALOG_COUNTS) + 1):
            posets = rec.call("catalog", posets_of_size, n)
            sizes.append(len(posets))
            for p in posets:
                found = rec.call("involution", enumerate_antitone_involutions, p)
                pairs += [(p, inv) for inv in found]
        rec.count("catalog.posets", sum(sizes))
        rec.count("involution.found", len(pairs))
        return tuple(sizes), pairs

    def answer_key(self):
        self.oracle = {}
        for i, (p, inv) in enumerate(self.pairs):
            if len(p) <= NAIVE_MAX and None not in p.bounds():
                outcome = find_residuations_naive(InvolutedPoset(p, inv), limit=1)
                self.oracle[i] = outcome.satisfiable

    def run_pass(self, rec):
        sizes, pairs = self._catalog(rec)
        catalog_wrong = None
        if sizes != CATALOG_COUNTS or len(pairs) != INVOLUTED_PAIRS:
            catalog_wrong = f"catalog gave {sizes} posets and {len(pairs)} pairs"
            order = range(len(pairs))
        else:
            order = self.order
        for i in order:
            p, inv = pairs[i]
            rec.op(
                f"pair{i}",
                lambda: self._request(rec, p, inv, self.modes.get(i, "addfour")),
                lambda ans: catalog_wrong or self._wrong(ans, i),
            )

    def _request(self, rec, p, inv, mode):
        ip = rec.call("involution", InvolutedPoset, p, inv)
        verdict = mine(rec, ip, limit=1) if None not in p.bounds() else None
        result = construct(rec, extend_theorem1, ip, ExtensionMode(mode))
        verified, negation = verify(rec, result.structure)
        ext = rec.call("involution", InvolutedPoset, result.poset, result.involution)
        first = mine(rec, ext, limit=1)
        return {
            "ip": ip,
            "verdict": verdict,
            "verified": verified,
            "negation": negation == result.involution.mapping,
            "ext": ext,
            "first": first,
        }

    def _wrong(self, ans, i):
        verdict = ans["verdict"]
        oracle = self.oracle.get(i)
        return first_wrong(
            not ans["verified"] and "Theorem-1 extension fails verify_residuated",
            not ans["negation"] and "extension negation differs from the involution",
            not ans["first"].satisfiable and "no structure found on a Theorem-1 extension",
            structures_wrong(ans["first"], ans["ext"]),
            verdict is not None and structures_wrong(verdict, ans["ip"]),
            oracle is not None
            and verdict.satisfiable != oracle
            and f"verdict {verdict.satisfiable} disagrees with the naive oracle",
        )


class Mine(Workload):
    """Deep searches on 8-11 elements: full enumerations, unsatisfiable spaces, extensions."""

    name = "mine"
    TAIL_PERCENTILE = 75  # 13 searches a pass: 4 passes leave 13 above p75
    MIN_PASSES = 4
    # Catalog pairs drawn by the seed, all on 5 points and none a chain (the
    # chains are the chain8/chain9 searches), as (theorem, parameter, limit).
    # They stop at a first structure, which costs about the same for every
    # pair, so that the seed moves neither the median nor a pass's length;
    # the deep searches are the fixed ones.
    DRAWS = [("thm1", "addfour", 1), ("thm2", 3, 1), ("thm2", 3, 1)]

    def setup(self, rec):
        rng = random.Random(self.seed)
        searches = [
            ("chain8", inputs.chain_doc(8), {"limit": FULL}),
            ("chain9", inputs.chain_doc(9), {"limit": FULL}),
            ("n5", inputs.N5, {"limit": FULL}),
            ("pk9", inputs.PSEUDO_KLEENE9, {"limit": FULL}),
            ("kleene6-any-negation", inputs.KLEENE6, {"require_negation": False, "limit": FULL}),
        ]
        fixtures = {"n5": inputs.N5, "kleene6": inputs.KLEENE6, "pk9": inputs.PSEUDO_KLEENE9}
        for name, theorem, arg, limit in (
            ("kleene6", "thm1", "reusebounds", FULL),
            ("kleene6", "thm1", "reusefour", FULL),
            ("kleene6", "thm1", "addfour", 16),
            ("pk9", "thm1", "reusebounds", 16),
            ("n5", "thm2", 3, 4),
        ):
            doc = self._extension(fixtures[name], theorem, arg)
            searches.append((f"{theorem}-{arg}-{name}", doc, {"limit": limit}))

        pool = [
            inputs.poset_doc(p, inv)
            for p in posets_of_size(5)
            if not p.is_chain()
            for inv in enumerate_antitone_involutions(p)
        ]
        for j, (source, (theorem, arg, limit)) in enumerate(
            zip(rng.sample(pool, len(self.DRAWS)), self.DRAWS)
        ):
            doc = self._extension(source, theorem, arg)
            searches.append((f"{theorem}-{arg}-catalog.{j}", doc, {"limit": limit}))
        for key, doc, kwargs in (searches[2], searches[3], searches[-1]):  # n5, pk9, a draw
            rec.op(key, lambda: mine(rec, build(rec, doc), **kwargs), None)
        rng.shuffle(searches)
        self.searches = searches

    @staticmethod
    def _extension(doc, theorem, arg):
        ip = involuted(poset_from_covers(doc["elements"], doc["covers"]), doc["involution"])
        if theorem == "thm1":
            result = extend_theorem1(ip, ExtensionMode(arg))
        else:
            result = extend_theorem2(ip, arg)
        return inputs.poset_doc(result.poset, result.involution)

    def run_pass(self, rec):
        for key, doc, kwargs in self.searches:
            expected = MINE_EXPECTED.get(key, "sat")
            box = {}

            def search():
                box["ip"] = build(rec, doc)
                return mine(rec, box["ip"], **kwargs)

            rec.op(
                key,
                search,
                lambda out: first_wrong(
                    verdict_wrong(out, expected),
                    structures_wrong(out, box["ip"], kwargs.get("require_negation", True)),
                ),
            )


class Construct(Workload):
    """Verified construction requests on carriers up to 200 elements, with JSON and text output."""

    name = "construct"
    SMALL_THM1 = 54

    def setup(self, rec):
        # Sizes are fixed per request; the seed draws the catalog posets and pairs.
        rng = random.Random(self.seed)
        posets = posets_of_size(5)
        pairs = [(p, inv) for p in posets for inv in enumerate_antitone_involutions(p)]
        cube8 = inputs.LETTER_CUBE8
        cube16 = inputs.subset_lattice_doc("abcd")
        n5, kleene6, pk9 = inputs.N5, inputs.KLEENE6, inputs.PSEUDO_KLEENE9
        requests = [
            # (key, kind, document, parameters, golden file)
            ("cor1-5", "cor1", None, (5,), "chain5_tables.txt"),
            ("thm1-reusebounds-n5", "thm1", n5, ("reusebounds",), "pentagon7_tables.txt"),
            ("thm5-cube8-2", "thm5", cube8, (2,), "cube12_tables.txt"),
            ("lemma2-cube8", "lemma2", cube8, (), None),
            ("lemma2-cube16", "lemma2", cube16, (), None),
            ("thm5-cube8-6", "thm5", cube8, (6,), None),
            ("thm5-cube16-10", "thm5", cube16, (10,), None),
            ("thm1-addfour-n5", "thm1", n5, ("addfour",), None),
            ("thm1-reusefour-kleene6", "thm1", kleene6, ("reusefour",), None),
            ("thm1-addfour-pk9", "thm1", pk9, ("addfour",), None),
            ("thm2-n5-10", "thm2", n5, (10,), None),
            ("thm2-kleene6-25", "thm2", kleene6, (25,), None),
            ("thm2-pk9-38", "thm2", pk9, (38,), None),
        ]
        # cor1 sizes spread evenly over 50..200
        for n in (50, 75, 100, 125, 150, 175, 200):
            requests.append((f"cor1-{n}", "cor1", None, (n,), None))
        for n, k in ((2, 0), (10, 5), (20, 15), (30, 30), (38, 40)):
            doc = inputs.poset_doc(rng.choice(posets))
            requests.append((f"thm3-{n}-{k}", "thm3", doc, (n, k), None))
        # Many small requests and a few large ones: the small ones set the
        # median, the large ones the tail, the throughput and peak memory.
        small = [
            (f"thm1-addfour-catalog.{j}", "thm1", inputs.poset_doc(*pair), ("addfour",), None)
            for j, pair in enumerate(rng.choices(pairs, k=self.SMALL_THM1))
        ]
        for j, pair in enumerate(rng.sample(pairs, 2)):
            doc = inputs.poset_doc(*pair)
            requests.append((f"thm2-20-catalog.{j}", "thm2", doc, (20,), None))
        for key, kind, doc, params, _ in requests[:3]:  # the golden cases
            rec.op(key, lambda: self._request(rec, kind, doc, params), None)
        # The order stays fixed: it decides how fragmented the heap is when
        # the largest request runs, and with it the peak memory.  The small
        # requests are spread evenly between the others: the machine's speed
        # changes from one second to the next, and in one stretch they would
        # all see the same moment of each pass.
        per = -(-len(small) // len(requests))
        self.requests = [
            r for i, big in enumerate(requests) for r in (big, *small[per * i:per * (i + 1)])
        ]

    def answer_key(self):
        self.goldens = {
            name: (self.root / GOLDEN_DIR / name).read_bytes()
            for *_, name in self.requests
            if name
        }

    def run_pass(self, rec):
        for key, kind, doc, params, golden in self.requests:
            rec.op(
                key,
                lambda: self._request(rec, kind, doc, params),
                lambda ans: self._wrong(ans, golden),
            )

    def _request(self, rec, kind, doc, params):
        if kind == "cor1":
            result = construct(rec, chain_residuation, *params)
        elif kind in ("lemma2", "thm5"):
            p = build(rec, doc)
            rec.count("classify.calls", 1)
            B = rec.call("classify", recognize_boolean, p)
            if kind == "lemma2":
                s = construct(rec, boolean_residuation, B)
                provenance = {"construction": "lemma2", "parameters": {}}
                return self._deliver(rec, s, B.complement, provenance)
            result = construct(rec, extend_boolean_theorem5, B, *params)
        elif kind == "thm3":
            result = construct(rec, extend_theorem3, build(rec, doc), *params)
        elif kind == "thm1":
            result = construct(rec, extend_theorem1, build(rec, doc), ExtensionMode(params[0]))
        else:
            result = construct(rec, extend_theorem2, build(rec, doc), *params)
        return self._deliver(rec, result.structure, result.involution, result.provenance)

    @staticmethod
    def _deliver(rec, s, involution, provenance):
        """Verify, write JSON, read it back and render: the rest of one request."""
        verified, negation = verify(rec, s)
        out = rec.call("files", structure_to_doc, s, involution, provenance)
        buf = io.StringIO()
        rec.call("files", dump, out, buf)
        text = buf.getvalue()
        back = rec.call("files", load_structure, io.StringIO(text))
        rec.count("files.bytes", 2 * len(text.encode("utf-8")))
        table = rec.call("render", render_tables, s, "text").encode("utf-8")
        rec.count("render.bytes", len(table))
        return {
            "structure": s,
            "verified": verified,
            "negation": negation == involution.mapping,
            "back": back.structure,
            "table": table,
        }

    def layer_extras(self, rec):
        cli = Cli(self.seed, self.root)
        try:
            cli.setup(rec)
            cli.answer_key()
            cli.run_pass(rec)
            return {"cli.import_ms": cli.import_ms()}
        finally:
            cli.close()

    def _wrong(self, ans, golden):
        return first_wrong(
            not ans["verified"] and "construction fails verify_residuated",
            not ans["negation"] and "derived negation differs from the involution",
            ans["back"] != ans["structure"] and "JSON round trip changed the structure",
            golden and ans["table"] != self.goldens[golden] and f"tables differ from {golden}",
        )


class Cli(Workload):
    """``python -m resposet.cli`` calls, one child process at a time.

    Not a timed workload: child start-up times on a shared machine drift
    by more than any bound from one minute to the next.  Its calls run once
    at the end of a traced construct run, which gives the CLI layer metrics.
    """

    IMPORT_SAMPLES = 5
    work = None

    def setup(self, rec):
        rng = random.Random(self.seed)
        work = self.root / ".bench_run" / "work"
        work.mkdir(parents=True, exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="cli-", dir=work))
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))

        pentagon = extend_theorem1(
            involuted(poset_from_covers(inputs.N5["elements"], inputs.N5["covers"]),
                      inputs.N5["involution"]),
            ExtensionMode.REUSE_BOUNDS,
        )
        doc = structure_to_doc(pentagon.structure, pentagon.involution, pentagon.provenance)
        other = chain_residuation(7)
        antichain = rng.randint(5, 6)
        self._write("pentagon7.json", doc)
        self._write("relabeled.json", inputs.relabeled(doc, rng))
        self._write("chain7.json", structure_to_doc(other.structure, other.involution))
        self._write("antichain.json", inputs.antichain_doc(antichain))
        self._write("kleene6.json", inputs.KLEENE6)
        cyclic = inputs.chain_doc(4)
        cyclic["covers"].append(["e4", "e1"])
        self._write("cyclic.json", cyclic)

        f = lambda name: str(self.work / name)  # noqa: E731
        mode = rng.choice(inputs.admitted_modes(inputs.KLEENE6))
        n = rng.randint(27, 33)
        pentagon_text = ("tables", "pentagon7_tables.txt")
        calls = [
            # (subcommand arguments, expected exit code, expected output)
            (["extend", "cor1", "--n", "5", "--format", "text"], 0, ("tables", "chain5_tables.txt")),
            (["extend", "cor1", "--n", str(n), "--format", "json"], 0, ("structure", None)),
            (["extend", "thm1", "-i", f("kleene6.json"), "--mode", mode], 0, ("structure", None)),
            (["extend", "thm1", "-i", "builtin:n5", "--mode", "reusebounds", "--format", "text"],
             0, pentagon_text),
            (["extend", "thm5", "-i", "builtin:cube8", "--n", "2", "--format", "text"],
             0, ("tables", "cube12_tables.txt")),
            (["verify", "-i", f("pentagon7.json")], 0, ("line", "overall: PASS")),
            (["verify", "-i", f("relabeled.json")], 0, ("line", "overall: PASS")),
            (["verify", "-i", f("cyclic.json")], 2, ("stderr", "error:")),
            (["mine", "-i", "builtin:n5"], 1, ("line", "unsatisfiable")),
            (["mine", "-i", "builtin:kleene6", "--limit", "2"], 0,
             ("line", "satisfiable: 2 structure(s) found")),
            (["classify", "-i", "builtin:cube16"], 0, ("line", "boolean: True")),
            (["involutions", "-i", f("antichain.json")], 0,
             ("line", f"count: {inputs.telephone(antichain)}")),
            (["show", "-i", f("pentagon7.json"), "--format", "text"], 0, pentagon_text),
            (["show", "-i", f("relabeled.json"), "--format", "json"], 0, ("structure", None)),
            (["diff", f("pentagon7.json"), f("relabeled.json")], 0, ("line", "structurally equal")),
            (["diff", f("pentagon7.json"), f("chain7.json")], 1, ("line", "structurally different")),
            (["extend", "thm3", "-i", f("antichain.json"), "--n", "2", "--k", "1"], 0,
             ("structure", None)),
            (["extend", "lemma2", "-i", "builtin:cube8"], 0, ("structure", None)),
            (["classify", "-i", f("kleene6.json"), "--json"], 1, ("line", '"boolean": false')),
            (["involutions", "-i", f("chain7.json")], 0, ("line", "count: 1")),
            (["mine", "-i", "builtin:pseudokleene9"], 1, ("line", "unsatisfiable")),
        ]
        rng.shuffle(calls)
        self.calls = calls
        self._child(["show", "-i", "builtin:n5", "--format", "json"])

    def _write(self, name, doc):
        (self.work / name).write_text(json.dumps(doc), encoding="utf-8")

    def _child(self, argv):
        return subprocess.run(
            [sys.executable, "-m", "resposet.cli", *argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            timeout=120,
        )

    def answer_key(self):
        self.goldens = {
            name: (self.root / GOLDEN_DIR / name).read_bytes()
            for _, _, (kind, name) in self.calls
            if kind == "tables"
        }

    def run_pass(self, rec):
        for j, (argv, code, expected) in enumerate(self.calls):

            def call():
                with rec.span("cli", tag=argv[0]):
                    return self._child(argv)

            rec.op(f"call{j}", call, lambda proc: self._wrong(proc, code, expected))

    def _wrong(self, proc, code, expected):
        if proc.returncode != code:
            return f"exit code {proc.returncode}, expected {code}"
        kind, value = expected
        out = proc.stdout
        if kind == "tables":
            ok = out == self.goldens[value]
        elif kind == "line":
            ok = value in (line.strip() for line in out.decode("utf-8").splitlines())
        elif kind == "stderr":
            ok = proc.stderr.decode("utf-8").startswith(value)
        else:
            bundle = load_structure(io.StringIO(out.decode("utf-8")))
            s = bundle.structure
            ok = (
                verify_residuated(s).overall
                and derived_negation(s) == bundle.involution.mapping
            )
        return None if ok else f"unexpected output for {kind} {value!r}"

    def import_ms(self):
        times = []
        for _ in range(self.IMPORT_SAMPLES):
            start = perf_counter()
            subprocess.run(
                [sys.executable, "-c", "import resposet.cli"],
                cwd=self.root, env=self.env, check=True, timeout=120,
            )
            times.append(perf_counter() - start)
        return 1000 * statistics.median(times)

    def close(self):
        if self.work is not None:
            shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Census, Mine, Construct)}
