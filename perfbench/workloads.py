"""The three benchmark workloads: input generation, requests and checks.

Every request reaches the engine through ``scoreplay.cli.main`` or the
package's public functions, looked up at call time so that the tracer's
rebinding (see tracing.py) sees them.  Inputs are plain JSON data made
from a seed; ``generate`` runs in its own process, so the process that
times the requests parses text it has never interned.

See README.md for why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import random
from time import perf_counter

import scoreplay

#: The context universe the workloads pin, written out instead of taken
#: from the engine's defaults, so a change of default does not change the
#: workload.  This is the 1,280-game default universe.
DEPTH, WIDTH, SCORES = 1, 2, (-2, -1, 0, 1, 2)
SPEC = scoreplay.UniverseSpec(DEPTH, WIDTH, SCORES)
CMP_FLAGS = [
    "--depth", str(DEPTH), "--width", str(WIDTH),
    "--scores=" + ",".join(str(s) for s in SCORES), "--format", "jsonl",
]

# Sign tests of the outcome sets a Refuted witness can name, written from
# the definitions rather than taken from the engine.
_SET_TESTS = {
    "L>": lambda sl, sr: sl > 0, "L>=": lambda sl, sr: sl >= 0,
    "R>": lambda sl, sr: sr > 0, "R>=": lambda sl, sr: sr >= 0,
    "L<": lambda sl, sr: sl < 0, "L<=": lambda sl, sr: sl <= 0,
    "R<": lambda sl, sr: sr < 0, "R<=": lambda sl, sr: sr <= 0,
}
_UP_SETS = {"L>", "L>=", "R>", "R>="}

#: Per-layer counts read from request outputs; a workload that does not
#: exercise a layer reports its counts as 0.
OUTPUT_COUNTS = (
    "order.searches", "order.contexts_scanned", "order.proved",
    "order.refuted", "order.unrefuted", "order.refuted_ratio",
    "canonical.steps_applied", "notation.bytes_out", "verify.grid_points",
)


def _oracles():
    # tests/oracles.py shares no code with the engine; run.py puts tests/
    # on the path of the processes that check outputs.
    return importlib.import_module("oracles")


def _sum_scores(oracles, *terms) -> tuple:
    comps = tuple(oracles.raw(t) for t in terms)
    return oracles.play_left(comps), oracles.play_right(comps)


class Workload:
    """Interface shared by the workloads.

    ``setup`` prepares what requests need and returns the seconds spent
    building a context universe (0.0 when the workload has none);
    ``request`` runs one request and returns its record; ``text`` gives a
    record's output for the digest; ``check`` returns (failed operations,
    messages); ``counts`` returns the output-derived per-layer counts.
    """

    name = ""
    ops_per_request = 1

    def setup(self) -> float:
        return 0.0

    def generate(self, rng: random.Random, n: int) -> list:
        raise NotImplementedError

    def request(self, req):
        raise NotImplementedError

    def text(self, record) -> str:
        return record[0]

    def check(self, requests, records, rng) -> tuple[int, list[str]]:
        raise NotImplementedError

    def counts(self, requests, records) -> dict:
        return {}

    def digest(self, records) -> str:
        h = hashlib.sha256()
        for r in records:
            h.update(b"-\n" if r is None else self.text(r).encode() + b"\n")
        return h.hexdigest()


class CmpDefault(Workload):
    """``cmp G H`` through the CLI, G and H uniform over the universe."""

    name = "cmp-default"

    def setup(self) -> float:
        importlib.import_module("scoreplay.cli")
        t0 = perf_counter()
        scoreplay.universe(SPEC)
        return perf_counter() - t0

    def generate(self, rng, n):
        games = scoreplay.universe(SPEC)
        return [
            ["cmp", scoreplay.render(rng.choice(games)),
             scoreplay.render(rng.choice(games))] + CMP_FLAGS
            for _ in range(n)
        ]

    def request(self, argv):
        buf = io.StringIO()
        rc = scoreplay.cli.main(argv, out=buf)
        return buf.getvalue(), rc

    def check(self, requests, records, rng):
        oracles = _oracles()
        failed, msgs = 0, []
        for argv, rec in zip(requests, records):
            problem = "exception" if rec is None else self._check_one(
                oracles, argv, *rec)
            if problem:
                failed += 1
                msgs.append(f"cmp {argv[1]} {argv[2]}: {problem}")
        return failed, msgs

    @staticmethod
    def _check_one(oracles, argv, text, rc) -> str:
        if rc != 0:
            return f"exit {rc}"
        records = [json.loads(line) for line in text.splitlines()]
        if [r.get("relation") for r in records] != [">=", "<=", "="]:
            return "expected one record per relation"
        g, h = scoreplay.parse(argv[1]), scoreplay.parse(argv[2])
        for r in records:
            if r["verdict"] != "refuted":
                continue
            x = scoreplay.parse(r["witness"])
            sg = _sum_scores(oracles, g, x)
            sh = _sum_scores(oracles, h, x)
            if r["relation"] == "=":
                if oracles.outcome_name(*sg) == oracles.outcome_name(*sh):
                    return f"= witness {r['witness']} does not separate"
                continue
            o = r["witness_set"]
            if (o in _UP_SETS) != (r["relation"] == ">="):
                return f"{r['relation']} witness set {o} on the wrong side"
            test = _SET_TESTS[o]
            if not test(*sh) or test(*sg):
                return f"{r['relation']} witness {r['witness']} O={o} fails"
        return ""

    def counts(self, requests, records):
        games = scoreplay.universe(SPEC)
        index = {scoreplay.render(x): i for i, x in enumerate(games)}
        verdicts = {"proved": 0, "refuted": 0, "unrefuted": 0}
        scanned = 0
        for rec in records:
            if rec is None:
                continue
            for line in rec[0].splitlines():
                r = json.loads(line)
                verdicts[r["verdict"]] += 1
                if r["verdict"] == "refuted":
                    scanned += index[r["witness"]] + 1
                elif r["verdict"] == "unrefuted":
                    scanned += len(games)
        searches = sum(verdicts.values())
        return {
            "order.searches": searches,
            "order.contexts_scanned": scanned,
            "order.proved": verdicts["proved"],
            "order.refuted": verdicts["refuted"],
            "order.unrefuted": verdicts["unrefuted"],
            "order.refuted_ratio": verdicts["refuted"] / searches if searches else 0.0,
            "notation.bytes_out": sum(len(r[0].encode()) for r in records if r),
        }


class TemplateSweep(Workload):
    """``verify.outcome_template_sweep(bound=2)``: one request per round."""

    name = "template-sweep"
    BOUND = 2
    ops_per_request = (2 * BOUND + 1) ** 8  # 390,625 grid points
    # The seed's grid-2 results: the theorem's checks pass, and 121 of the
    # 125 triples (110 with G first) are realizable at this grid.
    FAMILY_TRIPLES, FIXED_TRIPLES = 121, 110
    ORACLE_POINTS = 200

    def setup(self) -> float:
        importlib.import_module("scoreplay.verify")
        return 0.0

    def generate(self, rng, n):
        return [self.BOUND] * n

    def request(self, bound):
        return (scoreplay.verify.outcome_template_sweep(bound=bound),)

    def text(self, record) -> str:
        s = record[0]
        return json.dumps({
            "grid_points": s.grid_points,
            "fixed": sorted(s.fixed_triples),
            "family": sorted(s.family_triples),
            "sr_violations": s.sr_violations,
            "sl_violations": s.sl_violations,
        }, sort_keys=True)

    def check(self, requests, records, rng):
        failed, msgs = 0, []
        for rec in records:
            if rec is None:
                failed += self.ops_per_request
                msgs.append("sweep raised")
                continue
            s = rec[0]
            expected = (self.ops_per_request, self.FAMILY_TRIPLES, self.FIXED_TRIPLES)
            got = (s.grid_points, len(s.family_triples), len(s.fixed_triples))
            if got != expected:
                failed += self.ops_per_request
                msgs.append(f"points/family/fixed {got}, expected {expected}")
                continue
            failed += s.sr_violations + s.sl_violations
            if s.sr_violations or s.sl_violations:
                msgs.append(f"violations SR={s.sr_violations} SL={s.sl_violations}")
            bad = self._oracle_sample(s, rng)
            failed += len(bad)
            msgs.extend(bad)
        return failed, msgs

    def _oracle_sample(self, sweep, rng) -> list[str]:
        """Recompute seeded grid points with the oracle."""
        oracles = _oracles()
        vals = range(-self.BOUND, self.BOUND + 1)
        bad = []
        for _ in range(self.ORACLE_POINTS):
            a, b, c, d, e, f, g, h = (rng.choice(vals) for _ in range(8))
            G, H = scoreplay.outcome_template(a, b, c, d, e, f, g, h)
            sl, sr = _sum_scores(oracles, G, H)
            rg, rh = oracles.raw(G), oracles.raw(H)
            triple = (
                oracles.outcome_name(oracles.left_score(rg), oracles.right_score(rg)),
                oracles.outcome_name(oracles.left_score(rh), oracles.right_score(rh)),
                oracles.outcome_name(sl, sr),
            )
            if sr != e + h or sl not in (e + g, d + h) or triple not in sweep.fixed_triples:
                bad.append(f"point {(a, b, c, d, e, f, g, h)}: oracle {sl, sr, triple}")
        return bad

    def counts(self, requests, records):
        return {
            "verify.grid_points": sum(r[0].grid_points for r in records if r),
        }


class BuildMix(Workload):
    """Text-in/text-out library requests that build new terms."""

    name = "build-mix"
    # Cumulative shares of canonicalize, add, negate; the rest is tf.
    MIX = ((0.35, "canon"), (0.60, "add"), (0.75, "neg"), (1.0, "tf"))
    TERMS_NEEDED = {"canon": 1, "add": 2, "neg": 1, "tf": 0}
    # Longer strips make tf trees too large to render (README.md).
    STRIP_CELLS = (4, 6)
    TF_ORACLE_SAMPLE = 40

    def generate(self, rng, n):
        from scoreplay.verify import sample_confluence_games

        kinds = []
        for _ in range(n):
            u = rng.random()
            kinds.append(next(k for share, k in self.MIX if u < share))
        need = sum(self.TERMS_NEEDED[k] for k in kinds)
        terms = iter(
            scoreplay.print_game(t)
            for t in sample_confluence_games(need, seed=rng.getrandbits(32))
        )
        reqs = []
        for k in kinds:
            if k == "tf":
                cells = rng.randint(*self.STRIP_CELLS)
                reqs.append([k, "".join(rng.choice("TFB") for _ in range(cells))])
            else:
                reqs.append([k] + [next(terms) for _ in range(self.TERMS_NEEDED[k])])
        return reqs

    def request(self, req):
        sp = scoreplay
        kind = req[0]
        if kind == "canon":
            t = sp.parse(req[1])
            c, trace = sp.canonicalize(t, SPEC, sp.Mode.SOUND)
            return sp.print_game(c), t, c, len(trace.steps)
        if kind == "add":
            g, h = sp.parse(req[1]), sp.parse(req[2])
            s = sp.add(g, h)
            sl, sr = sp.final_scores(s)
            return f"{sp.print_game(s)} sl={sl} sr={sr}", g, h, (sl, sr)
        if kind == "neg":
            t = sp.parse(req[1])
            n = sp.negate(t)
            return sp.print_game(n), t, n
        g = sp.tf_to_game(sp.tf_parse(req[1]))
        sl, sr = sp.final_scores(g)
        o = sp.outcome(g)
        return f"{sp.print_game(g)} sl={sl} sr={sr} outcome={o.value}", g, (sl, sr)

    def check(self, requests, records, rng):
        sp = scoreplay
        ev = sp.SumEvaluator()
        tf_sample = set(rng.sample(
            [i for i, r in enumerate(requests) if r[0] == "tf"],
            k=min(self.TF_ORACLE_SAMPLE, sum(r[0] == "tf" for r in requests)),
        ))
        failed, msgs = 0, []
        for i, (req, rec) in enumerate(zip(requests, records)):
            kind = req[0]
            if rec is None:
                ok = False
            elif kind == "canon":
                _, _, c, _ = rec
                ok = sp.canonicalize(c, SPEC, sp.Mode.SOUND)[0] is c
            elif kind == "add":
                _, g, h, scores = rec
                ok = ev.final_scores(g, h) == scores
            elif kind == "neg":
                _, t, n = rec
                ok = sp.negate(n) is t
            else:
                _, g, scores = rec
                ok = True
                if i in tf_sample:
                    oracles = _oracles()
                    r = oracles.raw(g)
                    ok = (oracles.left_score(r), oracles.right_score(r)) == scores
            if not ok:
                failed += 1
                msgs.append(f"{kind} {req[1:]}: check failed")
        return failed, msgs

    def counts(self, requests, records):
        return {
            "canonical.steps_applied": sum(
                r[3] for q, r in zip(requests, records) if r and q[0] == "canon"
            ),
            "notation.bytes_out": sum(len(r[0].encode()) for r in records if r),
        }


WORKLOADS = {w.name: w for w in (CmpDefault(), TemplateSweep(), BuildMix())}
