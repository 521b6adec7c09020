"""The three workloads: seeded operations, set-up, timed execution, checks.

Each workload is a closed loop with one client.  ``make_ops`` draws every
input from the seed; the order of operation kinds is a fixed interleaving of
the kind weights, so runs with different seeds do the same mix of work on
different inputs.  ``prepare(op)`` returns the call to time; ``check`` runs
outside the timed region and raises ``Mismatch`` when a result is wrong.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import oracle

CHILD_TIMEOUT_S = 150
TRACED_CLI = Path(__file__).with_name("traced_cli.py")


class Mismatch(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


def interleave(weights):
    """Smooth weighted round robin: every prefix keeps close to the weights."""
    total = sum(w for _, w in weights)
    current = {k: 0 for k, _ in weights}
    order = []
    for _ in range(total):
        for k, w in weights:
            current[k] += w
        best = max(weights, key=lambda kw: current[kw[0]])[0]
        current[best] -= total
        order.append(best)
    return order


def reset_library_caches():
    """Drop every in-process table and memo of the library."""
    from steinmann import arrangement

    arrangement.clear_memo()
    for name, mod in list(sys.modules.items()):
        if name.startswith("steinmann.") and mod is not None:
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def fresh_dir(parent: Path, prefix: str) -> Path:
    parent.mkdir(parents=True, exist_ok=True)
    n = 0
    while (parent / f"{prefix}{n}").exists():
        n += 1
    path = parent / f"{prefix}{n}"
    path.mkdir()
    return path


def chamber_table(chambers):
    return [(c.signs, [Fraction(str(x)) for x in c.witness.coords]) for c in chambers]


class Library:
    """Seeded functionals and the library-side expectations the checks use."""

    def __init__(self):
        import steinmann.cli  # noqa: F401
        from steinmann import arrangement, functionals, preposets, serialize, zie
        from steinmann.compositions import GroundSet, standard_ground

        self.arr, self.fn, self.pp, self.ser, self.zie = (
            arrangement, functionals, preposets, serialize, zie)
        self.GroundSet, self.standard_ground = GroundSet, standard_ground
        self._memo = {}

    def memo(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def based_keys(self, n):
        return self.memo(("keys", n), lambda: self.zie.based_keys(self.standard_ground(n)))

    def combo(self, rng, n, terms):
        """A seeded integer combination of based cone functionals, as JSON."""
        keys = rng.sample(range(len(self.based_keys(n))), terms)
        return [[k, rng.choice((-3, -2, -1, 1, 2, 3))] for k in sorted(keys)]

    def functional(self, n, combo, bump=None):
        def make():
            g = self.standard_ground(n)
            keys = self.based_keys(n)
            f = self.fn.ChamberFunctional(g, {})
            for k, a in combo:
                f = f + self.fn.c_functional(self.pp.preposet_of(keys[k])).scale(a)
            if bump is not None:
                f = f + self.fn.ChamberFunctional(g, {bump: 1})
            return f

        return self.memo(("f", n, json.dumps(combo), bump), make)

    def squares(self, n):
        def make():
            signs = [c.signs for c in self.arr.enumerate_chambers(self.standard_ground(n))]
            return oracle.flip_squares(signs)

        return self.memo(("squares", n), make)

    def bump_chamber(self, rng, n):
        """A chamber in some Steinmann square: moving its value breaks a relation."""
        in_square = sorted(set().union(*(sq for _, _, sq in self.squares(n))))
        return rng.choice(in_square)

    def derivative_values(self, n, combo, split):
        """Expected derivative of a cone combination, from the closed formula."""
        keys = self.based_keys(n)
        split = (tuple(split[0]), tuple(split[1]))
        out = {}
        for k, a in combo:
            t = self.fn.c_derivative_formula(keys[k], split)
            for key, v in t.values.items():
                out[key] = out.get(key, 0) + a * Fraction(str(v))
        return {key: v for key, v in out.items() if v != 0}

    def chamber(self, n, signs):
        return self.arr.chamber_index(self.standard_ground(n))[signs]

    def h_element_json(self, n, signs, construction):
        """The H-basis element of a chamber by ``dynkin`` or ``egs_expansion``."""
        def make():
            ch = self.chamber(n, signs)
            x = self.fn.dynkin(ch) if construction == "dynkin" else self.fn.egs_expansion(ch)
            return self.ser.element_to_json(x)

        return self.memo(("h", n, signs, construction), make)


def split_labels(rng, n, left_size):
    labels = [str(i) for i in range(1, n + 1)]
    left = sorted(rng.sample(labels, left_size), key=int)
    right = [x for x in labels if x not in left]
    return [left, right]


# ---------------------------------------------------------------------------


class EnumerateCold:
    """Cold chamber enumeration at n = 5: memo cleared, empty cache dir."""

    name = "enumerate-cold"
    in_process = True
    setup_reps = 5
    deck_size = 1
    min_decks = 1

    def __init__(self, ctx):
        self.ctx = ctx
        self.lib = Library()

    def setup(self):
        # a library user's set-up here is starting an interpreter and importing
        run_child([sys.executable, "-c", "import steinmann.cli"], self.ctx.child_env())

    def make_ops(self, rng, count=64):
        alphabet = "abcdefghijklmnopqrstuvwxyz"
        ops = []
        for _ in range(count):
            labels = set()
            while len(labels) < 5:
                labels.add("".join(rng.choice(alphabet) for _ in range(rng.randint(1, 3))))
            ops.append({"kind": "enumerate5", "labels": sorted(labels)})
        return ops

    def prepare(self, op, traced=False):
        cache = fresh_dir(self.ctx.tmp, "cold-")
        self.lib.arr.clear_memo()
        g = self.lib.GroundSet(tuple(op["labels"]))
        return lambda: (self.lib.arr.enumerate_chambers(g, cache_dir=str(cache)), cache)

    def check(self, op, result):
        chambers, cache = result
        try:
            errors = oracle.chamber_table_errors(5, chamber_table(chambers))
            expect(not errors, "; ".join(errors))
            expect(any(cache.iterdir()), "the chamber table was not written to the disk cache")
        finally:
            shutil.rmtree(cache, ignore_errors=True)


class AlgebraWarm:
    """A long-lived library process on warm n = 4/5 tables: a seeded mix of requests."""

    name = "algebra-warm"
    in_process = True
    setup_reps = 3
    min_decks = 3  # 132 samples: the tail is p90
    # The mix puts the median inside the 2/3-split derivatives and p90 inside
    # the Dynkin requests, away from the edges of those groups, so that both
    # percentiles read the same kind of request in every run.
    weights = [
        ("coords", 1),
        ("derivative", 10),
        ("derivative_side4", 2),
        ("is_steinmann", 10),
        ("comb", 10),
        ("dynkin", 6),
        ("egs", 4),
        ("hopf", 1),
    ]

    def __init__(self, ctx):
        self.ctx = ctx
        self.lib = Library()
        self.deck_size = len(interleave(self.weights))

    def setup(self):
        lib = self.lib
        reset_library_caches()
        os.environ["STEINMANN_CACHE_DIR"] = str(fresh_dir(self.ctx.tmp, "warm-"))
        g5 = lib.standard_ground(5)
        labels = g5.labels
        for mask in range(1, 1 << 5):
            sub = lib.GroundSet(tuple(x for i, x in enumerate(labels) if (mask >> i) & 1))
            lib.arr.enumerate_chambers(sub)
            if len(sub) >= 2 and (len(sub) == 5 or "5" not in sub.labels):
                lib.fn.steinmann_relations(sub)
            if "5" not in sub.labels:
                lib.fn.eulerian_element(sub)

    def make_ops(self, rng, decks=5):
        lib = self.lib
        chambers4 = [c.signs for c in lib.arr.enumerate_chambers(lib.standard_ground(4))]
        pool4 = rng.sample(chambers4, 8)
        ops = []
        s = 0
        for _ in range(decks):
            for kind in interleave(self.weights):
                op = {"kind": kind}
                if kind == "coords":
                    op["combo"] = lib.combo(rng, 5, 5)
                elif kind.startswith("derivative"):
                    op["combo"] = lib.combo(rng, 5, 4)
                    sizes = (1, 4) if kind.endswith("side4") else (2, 3)
                    op["split"] = split_labels(rng, 5, rng.choice(sizes))
                elif kind == "is_steinmann":
                    op["combo"] = lib.combo(rng, 5, 4)
                    op["bump"] = lib.bump_chamber(rng, 5) if s % 2 else None
                    s += 1
                elif kind == "comb":
                    op["combo"] = lib.combo(rng, 4, 4)
                elif kind in ("dynkin", "egs"):
                    op["chamber"] = rng.choice(pool4)
                else:
                    op["seed"] = rng.randrange(1 << 16)
                ops.append(op)
        for op in ops:  # build the inputs now, outside the timed region
            if "combo" in op:
                n = 4 if op["kind"] == "comb" else 5
                lib.functional(n, op["combo"], op.get("bump"))
        return ops

    def prepare(self, op, traced=False):
        from steinmann import verify

        lib, fn, kind = self.lib, self.lib.fn, op["kind"]
        if kind == "hopf":
            return lambda: verify.verify_hopf(3, seed=op["seed"])
        if kind in ("dynkin", "egs"):
            ch = lib.chamber(4, op["chamber"])
            return lambda: fn.dynkin(ch) if kind == "dynkin" else fn.egs_expansion(ch)
        f = lib.functional(4 if kind == "comb" else 5, op["combo"], op.get("bump"))
        if kind == "coords":
            return lambda: fn.steinmann_basis_coords(f)
        if kind.startswith("derivative"):
            split = tuple(tuple(side) for side in op["split"])
            return lambda: fn.derivative(f, split)
        if kind == "is_steinmann":
            return lambda: fn.is_steinmann(f)
        return lambda: fn.comb_coefficients(f)

    def check(self, op, out):
        lib, kind = self.lib, op["kind"]
        if kind == "hopf":
            expect(out["ok"] is True, "verify_hopf(3) reported a failed check")
        elif kind in ("dynkin", "egs"):
            other = lib.h_element_json(4, op["chamber"], "egs" if kind == "dynkin" else "dynkin")
            expect(lib.ser.element_to_json(out) == other, "dynkin differs from egs_expansion")
        elif kind == "coords":
            keys = lib.based_keys(5)
            expected = {keys[k]: a for k, a in op["combo"]}
            expect(out is not None, "a cone combination had no coordinates")
            got = {k: v for k, v in out.items() if v != 0}
            expect(got == expected, "coordinates differ from the generating combination")
            g = lib.standard_ground(5)
            expect(lib.fn.from_basis_coords(g, got) == lib.functional(5, op["combo"]),
                   "coordinates do not reassemble the input")
        elif kind.startswith("derivative"):
            expected = lib.derivative_values(5, op["combo"], op["split"])
            got = {key: Fraction(str(v)) for key, v in out.values.items()}
            expect([list(out.left_ground.labels), list(out.right_ground.labels)] == op["split"],
                   "derivative grounds differ from the split")
            expect(got == expected, "derivative differs from c_derivative_formula")
        elif kind == "is_steinmann":
            expect(out is (op["bump"] is None), "is_steinmann gave the wrong answer")
        else:
            g = lib.standard_ground(4)
            expect(lib.fn.reconstruct(g, out) == lib.functional(4, op["combo"]),
                   "expansion does not reconstruct its input")


class CliOneshot:
    """One fresh ``python -m steinmann.cli`` process per request, warm disk cache."""

    name = "cli-oneshot"
    in_process = False  # requests run in child processes; see collect_trace
    setup_reps = 3
    min_decks = 3  # 51 samples: the tail is p75
    # Three cache reads per deck put the median among them, and a second
    # `steinmann check` makes the slow group (six of 17) large enough that
    # p75 falls inside it rather than at its edge.
    weights = [
        ("chambers5", 3),
        ("relations5", 1),
        ("check5", 2),
        ("derivative5", 1),
        ("derivative5_side4", 1),
        ("eulerian4", 1),
        ("dynkin_mbasis", 1),
        ("dynkin_egs", 1),
        ("expand4", 1),
        ("verify_hopf", 1),
        ("verify_duality", 1),
        ("tits", 1),
        ("zie_reduce", 1),
        ("compositions", 1),
    ]

    def __init__(self, ctx):
        self.ctx = ctx
        self.lib = Library()
        self.cache = None
        self.peak_rss_kb = 0
        self.deck_size = len(interleave(self.weights))

    def setup(self):
        cache = fresh_dir(self.ctx.tmp, "cli-")
        env = self.ctx.child_env(cache)
        for n in ("4", "5"):
            code, _, _, _ = run_child(self.cli_argv(["chambers", "count", "--n", n]), env)
            expect(code == 0, "warming the chamber cache failed")
        self.cache = cache

    @staticmethod
    def cli_argv(args):
        return [sys.executable, "-m", "steinmann.cli", *args]

    def make_ops(self, rng, decks=4):
        lib = self.lib
        chambers4 = [c.signs for c in lib.arr.enumerate_chambers(lib.standard_ground(4))]
        ops = []
        flags = 0
        for _ in range(decks):
            for kind in interleave(self.weights):
                op = {"kind": kind}
                if kind == "chambers5":
                    op["args"] = ["chambers", "count", "--n", "5"]
                elif kind == "relations5":
                    op["args"] = ["steinmann", "relations", "--n", "5"]
                elif kind == "check5":
                    op["combo"] = lib.combo(rng, 5, 4)
                    op["bump"] = lib.bump_chamber(rng, 5) if flags % 2 else None
                    flags += 1
                    f = lib.functional(5, op["combo"], op["bump"])
                    op["args"] = ["steinmann", "check", "--f", json.dumps(lib.ser.functional_to_json(f))]
                elif kind.startswith("derivative5"):
                    op["combo"] = lib.combo(rng, 5, 4)
                    sizes = (1, 4) if kind.endswith("side4") else (2, 3)
                    op["split"] = split_labels(rng, 5, rng.choice(sizes))
                    f = lib.functional(5, op["combo"])
                    op["args"] = ["derivative", "--f", json.dumps(lib.ser.functional_to_json(f)),
                                  "--split", ",".join(op["split"][0]) + ";" + ",".join(op["split"][1])]
                elif kind == "eulerian4":
                    op["args"] = ["eulerian", "--n", "4"]
                elif kind.startswith("dynkin"):
                    op["chamber"] = rng.choice(chambers4)
                    action = "mbasis" if kind == "dynkin_mbasis" else "egs"
                    # "=" keeps a sign string that starts with "-" from reading as a flag
                    op["args"] = ["dynkin", action, "--n", "4", f"--chamber={op['chamber']}"]
                elif kind == "expand4":
                    op["combo"] = lib.combo(rng, 4, 4)
                    f = lib.functional(4, op["combo"])
                    op["args"] = ["expand", "--f", json.dumps(lib.ser.functional_to_json(f))]
                elif kind.startswith("verify"):
                    op["args"] = ["verify", kind.split("_")[1], "--n", "3"]
                elif kind == "tits":
                    labels = [str(i) for i in range(1, rng.randint(3, 5) + 1)]
                    op["f"], op["g"] = random_composition(rng, labels), random_composition(rng, labels)
                    op["args"] = ["tits", "--f", json.dumps(op["f"]), "--g", json.dumps(op["g"])]
                elif kind == "zie_reduce":
                    labels = [str(i) for i in range(1, rng.randint(3, 4) + 1)]
                    rng.shuffle(labels)
                    op["tree"] = random_tree(rng, labels)
                    op["args"] = ["zie", "reduce", "--tree", json.dumps(op["tree"])]
                else:
                    op["n"] = rng.randint(3, 4)
                    op["args"] = ["enumerate", "compositions", "--n", str(op["n"])]
                ops.append(op)
        return ops

    def prepare(self, op, traced=False):
        env = self.ctx.child_env(self.cache)
        if traced:
            argv = [sys.executable, str(TRACED_CLI), str(self.child_trace), *op["args"]]
        else:
            argv = self.cli_argv(op["args"])

        def call():
            code, out, err, rss_kb = run_child(argv, env)
            self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
            return code, out, err

        return call

    @property
    def child_trace(self) -> Path:
        return self.ctx.tmp / "child-trace.json"

    def collect_trace(self, tracer):
        """Adopt the traced child's spans into the parent's last operation."""
        if self.child_trace.exists():
            tracer.adopt_child(json.loads(self.child_trace.read_text()))
            self.child_trace.unlink()

    def check(self, op, result):
        code, out, err = result
        expect(code == 0, f"exit {code}: {err.strip()[-200:]}")
        doc = json.loads(out)
        lib, kind = self.lib, op["kind"]
        if kind == "chambers5":
            expect(doc == {"n": 5, "chambers": 370}, "wrong chamber count")
        elif kind == "relations5":
            got = {(r["hyperplanes"][0], r["hyperplanes"][1], frozenset(r["chambers"]))
                   for r in doc["relations"]}
            expect(doc["count"] == oracle.RELATION_COUNTS[5] == len(doc["relations"]),
                   "wrong relation count")
            expect(all(r["signs"] == [1, -1, -1, 1] for r in doc["relations"]), "wrong relation signs")
            expect(got == lib.squares(5), "relations differ from the flip-graph squares")
        elif kind == "check5":
            expect(doc == {"steinmann": op["bump"] is None}, "steinmann check gave the wrong answer")
        elif kind.startswith("derivative5"):
            got = {(v["left"], v["right"]): Fraction(v["coeff"]) for v in doc["values"]}
            expect(doc["left_ground"] == op["split"][0] and doc["right_ground"] == op["split"][1],
                   "derivative grounds differ from the split")
            expect(got == lib.derivative_values(5, op["combo"], op["split"]),
                   "derivative differs from c_derivative_formula")
        elif kind == "eulerian4":
            expect(self.eulerian_values(doc) == self.eulerian_expected(), "not an Eulerian element")
        elif kind.startswith("dynkin"):
            other = "egs" if kind == "dynkin_mbasis" else "dynkin"
            expect(doc == lib.h_element_json(4, op["chamber"], other),
                   "dynkin differs from egs_expansion")
        elif kind == "expand4":
            f = lib.functional(4, op["combo"])
            want = {k: Fraction(str(v)) for k, v in f.values.items() if v != 0}
            got = {k: Fraction(v) for k, v in doc["reconstruction"]["values"].items() if Fraction(v) != 0}
            expect(got == want, "expansion does not reconstruct its input")
        elif kind.startswith("verify"):
            expect(doc.get("ok") is True, f"{kind} reported a failed check")
        elif kind == "tits":
            expect(doc == oracle.tits(op["f"], op["g"]), "wrong Tits product")
        elif kind == "zie_reduce":
            t = lib.ser.tree_from_json(op["tree"])
            expect(doc == lib.ser.zie_to_json(lib.zie.reduce_tree(t)), "CLI and library disagree")
        else:
            comps = [json.dumps(c) for c in doc["compositions"]]
            expect(doc["count"] == len(set(comps)) == oracle.ordered_bell(op["n"]),
                   "wrong composition count")

    def eulerian_values(self, doc):
        """p-functional values of the based keys on a chamber combination."""
        lib = self.lib
        weights = {k: Fraction(v) for k, v in doc["weights"].items()}
        out = []
        for key in lib.based_keys(4):
            pf = lib.memo(("p", key), lambda: lib.fn.p_functional(key))
            out.append(sum(Fraction(str(pf.values[s])) * w for s, w in weights.items()))
        return out

    def eulerian_expected(self):
        g = self.lib.standard_ground(4)
        return [Fraction(int(key.lumps == (g.labels,))) for key in self.lib.based_keys(4)]


def random_composition(rng, labels):
    labels = list(labels)
    rng.shuffle(labels)
    cuts = sorted(rng.sample(range(1, len(labels)), rng.randint(0, len(labels) - 1)))
    bounds = [0, *cuts, len(labels)]
    return [sorted(labels[a:b], key=int) for a, b in zip(bounds, bounds[1:])]


def random_tree(rng, labels):
    if len(labels) == 1:
        return [labels[0]]
    cut = rng.randint(1, len(labels) - 1)
    return [random_tree(rng, labels[:cut]), random_tree(rng, labels[cut:])]


def run_child(argv, env):
    """Run one child to completion; returns (exit code, stdout, stderr, max RSS in KiB)."""
    with open(os.devnull, "rb") as devnull:
        proc = subprocess.Popen(argv, env=env, stdin=devnull,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out, err = _drain(proc)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
    return proc.returncode, out.decode(), err.decode(), usage.ru_maxrss


def _drain(proc):
    """Read both pipes to EOF without reaping the child (wait4 does that)."""
    chunks = {proc.stdout: [], proc.stderr: []}

    def pump(stream):
        for block in iter(lambda: stream.read(65536), b""):
            chunks[stream].append(block)
        stream.close()

    reader = threading.Thread(target=pump, args=(proc.stderr,))
    reader.start()
    pump(proc.stdout)
    reader.join()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


WORKLOADS = {w.name: w for w in (EnumerateCold, AlgebraWarm, CliOneshot)}
