"""The three workloads: spaces to build, operations to time, outputs to check.

Each workload is an object with four methods:

- ``prepare()`` runs once in the set-up, after decspace is imported;
- ``build()`` returns freshly built inputs, once in the set-up and again
  before every later pass, so no memo on a groupoid carries over;
- ``operations(inputs)`` returns the pass as a list of (name, thunk);
- ``check(results)`` compares the outputs of one pass with values computed
  in ``oracles`` and returns (problems, names of failed operations).

Library functions are looked up on their module at call time, so the
tracer's wrappers are the ones called when tracing is on.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from math import comb

import oracles


def _problem_if(cond: bool, problems: list, text: str) -> None:
    if not cond:
        problems.append(text)


# ---------------------------------------------------------------------------
# fibre-checks


class FibreChecks:
    """Square checks whose work is building homotopy fibres and sorting
    them into iso classes by arrow search."""

    name = "fibre-checks"

    def __init__(self, ds, seed: int):
        self.ds = ds
        self.seed = seed

    def prepare(self) -> None:
        pass

    def build(self) -> dict:
        g = self.ds.gallery
        return {
            "vect(3,2,2)": g.vect_S(3, 2, 2),
            "vect(2,2,2)": g.vect_S(2, 2, 2),
            "forests(3,3)": g.forests_H(3, 3),
            "graphs(2,3)": g.graphs_G(2, 3),
            "graphs(3,3)": g.graphs_G(3, 3),
        }

    def operations(self, sp) -> list:
        s = self.ds.simplicial
        return [
            ("segal vect(3,2,2)", lambda: s.check_segal(sp["vect(3,2,2)"])),
            ("decomposition vect(3,2,2)", lambda: s.check_decomposition(sp["vect(3,2,2)"])),
            ("decomposition vect(2,2,2)", lambda: s.check_decomposition(sp["vect(2,2,2)"])),
            ("active vect(2,2,2)", lambda: s.check_decomposition_active(sp["vect(2,2,2)"])),
            ("decomposition forests(3,3)", lambda: s.check_decomposition(sp["forests(3,3)"])),
            ("active forests(3,3)", lambda: s.check_decomposition_active(sp["forests(3,3)"])),
            ("decomposition graphs(2,3)", lambda: s.check_decomposition(sp["graphs(2,3)"])),
            ("active graphs(2,3)", lambda: s.check_decomposition_active(sp["graphs(2,3)"])),
            ("segal graphs(3,3)", lambda: s.check_segal(sp["graphs(3,3)"])),
            ("decomposition graphs(3,3)", lambda: s.check_decomposition(sp["graphs(3,3)"])),
        ]

    def check(self, r: dict) -> tuple[list, set]:
        problems: list = []
        for name in ("vect(3,2,2)", "graphs(3,3)"):
            failure = r[f"segal {name}"].first_failure()
            _problem_if(
                failure is not None and bool(failure.witness),
                problems,
                f"{name} passed the Segal check, or failed it without a witness",
            )
        for name in ("vect(3,2,2)", "vect(2,2,2)", "forests(3,3)", "graphs(2,3)", "graphs(3,3)"):
            _problem_if(
                r[f"decomposition {name}"].passed,
                problems,
                f"{name} failed the decomposition check",
            )
        for name in ("vect(2,2,2)", "forests(3,3)", "graphs(2,3)"):
            _problem_if(
                r[f"active {name}"].passed == r[f"decomposition {name}"].passed,
                problems,
                f"active-map criterion and pushout squares disagree on {name}",
            )
        return problems, set()


# ---------------------------------------------------------------------------
# incidence-tables


def _degree(family: str):
    """The additive degree of a level-1 key.

    For injections the library's grade is the codomain size, which is not
    additive under composition; the length b - a of the injection is.
    """
    return {
        "binomial": lambda k: sum(k),
        "injections": lambda k: k[1] - k[0],
        "forests": oracles.forest_nodes,
        "graphs": lambda k: k[0],
        "vect": lambda k: k[0][-1],
    }[family]


class IncidenceTables:
    """Exact comultiplication, counit and three-fold tables, coassociativity,
    Hall numbers and one bialgebra check."""

    name = "incidence-tables"
    SPACES = {
        # name: (family, grade bound, constructor)
        "binomial(4,3)": ("binomial", 4, lambda g: g.binomial_B(4, 3)),
        "injections(3,3)": ("injections", 3, lambda g: g.injections_I(3, 3)[0]),
        "forests(3,3)": ("forests", 3, lambda g: g.forests_H(3, 3)),
        "graphs(3,3)": ("graphs", 3, lambda g: g.graphs_G(3, 3)),
    }
    HALL = [(q, n, k) for q in (2, 3) for n in range(4) for k in range(n + 1)]

    def __init__(self, ds, seed: int):
        self.ds = ds
        self.seed = seed
        self._expected: dict | None = None

    def prepare(self) -> None:
        pass

    def build(self) -> dict:
        g = self.ds.gallery
        sp = {name: make(g) for name, (_, _, make) in self.SPACES.items()}
        sp["vect(2,2,2)"] = g.vect_S(2, 2, 2)
        sp["graphs(2,3)"] = g.graphs_G(2, 3)
        return sp

    def operations(self, sp) -> list:
        c = self.ds.coalgebra
        ops = []
        for name, (_, b, _) in self.SPACES.items():
            X = sp[name]
            ops += [
                (f"comultiplication {name}", lambda X=X, b=b: c.comultiplication(X, b)),
                (f"counit {name}", lambda X=X, b=b: c.counit(X, b)),
                (f"delta_3 {name}", lambda X=X, b=b: c.delta_n(X, 3, b)),
                (f"coassociativity {name}", lambda X=X, b=b: c.check_coassociativity(X, b)),
            ]
        V = sp["vect(2,2,2)"]
        ops += [
            ("comultiplication vect(2,2,2)", lambda: c.comultiplication(V, 2)),
            ("counit vect(2,2,2)", lambda: c.counit(V, 2)),
        ]
        ops += [
            (f"hall q={q} n={n} k={k}", lambda q=q, n=n, k=k: c.hall_number(q, n, k))
            for (q, n, k) in self.HALL
        ]
        G = sp["graphs(2,3)"]
        ops.append(("bialgebra graphs(2,3)", lambda: c.check_bialgebra(G, 2)))
        return ops

    def expected(self) -> dict:
        """Reference sizes computed once, outside every timed pass."""
        if self._expected is None:
            self._expected = {
                "forest classes": oracles.rooted_forest_classes(3),
                "graph classes": oracles.loop_graph_classes(3),
            }
        return self._expected

    def check(self, r: dict) -> tuple[list, set]:
        problems: list = []
        for name, (family, bound, _) in self.SPACES.items():
            self._check_tables(name, family, bound, r, problems)
            _problem_if(
                r[f"coassociativity {name}"].passed,
                problems,
                f"check_coassociativity failed on {name}",
            )
        self._check_vect(r, problems)
        for q, n, k in self.HALL:
            res = r[f"hall q={q} n={n} k={k}"]
            want = oracles.gaussian_binomial(n, k, q)
            _problem_if(
                res.coefficient == want and res.gaussian == want and res.match,
                problems,
                f"Hall number q={q} n={n} k={k}: {res} against Gaussian binomial {want}",
            )
        _problem_if(
            r["bialgebra graphs(2,3)"].passed, problems, "graphs(2,3) failed the bialgebra check"
        )
        return problems, set()

    def _check_tables(self, name, family, bound, r, problems) -> None:
        comult = r[f"comultiplication {name}"].entries
        delta3 = r[f"delta_3 {name}"].entries
        counit = dict(r[f"counit {name}"].entries)
        deg = _degree(family)

        for table, label in ((comult, "comultiplication"), (delta3, "delta_3")):
            bad = [(row, f) for (row, f) in table if sum(deg(a) for a in row) != deg(f)]
            _problem_if(not bad, problems, f"{label} {name}: row degrees do not add up at {bad[:1]}")

        columns = {f for (_, f) in comult}
        zero = {f: Fraction(1) for f in columns if deg(f) == 0}
        _problem_if(
            counit == zero and zero,
            problems,
            f"counit {name} is not 1 exactly at the degree-0 elements: {counit}",
        )
        for law in oracles.coassociativity_defects(comult, delta3, counit):
            problems.append(f"{name}: {law}")

        if family in ("binomial", "injections"):
            if family == "binomial":
                want = {
                    (((a,), (n - a,)), (n,)): comb(n, a)
                    for n in range(bound + 1)
                    for a in range(n + 1)
                }
            else:
                want = {
                    (((a, c), (c, b)), (a, b)): comb(b - a, c - a)
                    for b in range(bound + 1)
                    for a in range(b + 1)
                    for c in range(a, b + 1)
                }
            _problem_if(comult == want, problems, f"{name}: entries differ from math.comb")
            _problem_if(
                all(c == oracles.multinomial([deg(a) for a in row]) for (row, _), c in delta3.items()),
                problems,
                f"delta_3 {name} differs from the multinomial coefficients",
            )
        elif family == "forests":
            self._check_column_sums(
                name, comult, delta3, problems,
                lambda f: oracles.down_closed_sets(oracles.forest_parents(f)),
                lambda f: oracles.down_closed_chains(oracles.forest_parents(f)),
            )
            _problem_if(
                len(columns) == self.expected()["forest classes"],
                problems,
                f"{name} has {len(columns)} columns, not one per rooted forest",
            )
        elif family == "graphs":
            self._check_column_sums(
                name, comult, delta3, problems, lambda f: 2 ** f[0], lambda f: 3 ** f[0]
            )
            _problem_if(
                len(columns) == self.expected()["graph classes"],
                problems,
                f"{name} has {len(columns)} columns, not one per graph",
            )

    @staticmethod
    def _check_column_sums(name, comult, delta3, problems, two, three) -> None:
        for table, want, label in ((comult, two, "comultiplication"), (delta3, three, "delta_3")):
            sums: dict = {}
            for (_, f), c in table.items():
                sums[f] = sums.get(f, 0) + c
            bad = [f for f, s in sums.items() if s != want(f)]
            _problem_if(not bad, problems, f"{label} {name}: column sums wrong at {bad[:1]}")

    @staticmethod
    def _check_vect(r, problems) -> None:
        comult = r["comultiplication vect(2,2,2)"].entries
        want = {
            (n - k, k): oracles.gaussian_binomial(n, k, 2) for n in range(3) for k in range(n + 1)
        }
        got = {(row[0][0][-1], row[1][0][-1]): c for (row, _), c in comult.items()}
        _problem_if(
            len(comult) == len(want) and got == want,
            problems,
            f"vect(2,2,2) comultiplication differs from the Gaussian binomials: {got}",
        )
        counit = r["counit vect(2,2,2)"].entries
        _problem_if(
            {k[0][-1]: c for k, c in counit.items()} == {0: 1},
            problems,
            "vect(2,2,2) counit is not 1 exactly at the zero space",
        )


# ---------------------------------------------------------------------------
# cli-check-all


FAMILIES = (
    # name, extra CLI arguments, Segal expected to pass
    ("binomial", [], True),
    ("injections", [], True),
    ("forests", ["--nodes", "3"], False),
    ("graphs", ["--vertices", "2"], False),
)


class CliCheckAll:
    """`decspace check F all --format json` per family, three corrupted
    controls per family, and the BZ2 control square."""

    name = "cli-check-all"
    BZ2 = "BZ2 collapse square is not a pullback"

    def __init__(self, ds, seed: int):
        self.ds = ds
        self.seed = seed
        self.corrupt_seeds: dict = {}
        self.reference: dict = {}

    def prepare(self) -> None:
        """Pick, per family, one corrupt seed for each inner face of level 3.

        Covering every face makes each pass do the same work whatever the
        seed; the seed still decides which corrupt seeds the CLI receives.
        """
        probe = self.ds.gallery.binomial_B(0, 3)
        for index, (family, _, _) in enumerate(FAMILIES):
            found: dict = {}
            start = abs(self.seed) * 1000 + 100 * index
            for s in range(start, start + 1000):
                _, desc = self.ds.simplicial.corrupted_variant(probe, s)
                found.setdefault(desc, s)
                if len(found) == 3:
                    break
            if len(found) != 3:
                raise RuntimeError(f"found only {len(found)} inner faces to corrupt")
            self.corrupt_seeds[family] = sorted(found.values())

    def build(self) -> dict:
        """The control square: BZ2 -> BZ2 sending every arrow to the
        identity on top, over 1 -> 1."""
        g = self.ds.groupoids
        bz2 = g.group_as_groupoid("BZ2", (0, 1), lambda a, b: a ^ b, lambda a: a, 0)
        bz2b = g.group_as_groupoid("BZ2'", (0, 1), lambda a, b: a ^ b, lambda a: a, 0)
        one = g.terminal_groupoid()
        one_b = g.terminal_groupoid()
        to_one = lambda src, tgt: g.GroupoidFunctor(src, tgt, lambda x: "*", lambda x, y, d: ())
        square = g.GroupoidSquare(
            top=g.GroupoidFunctor(bz2, bz2b, lambda x: "*", lambda x, y, d: 0, name="collapse"),
            left=to_one(bz2, one),
            right=to_one(bz2b, one_b),
            bottom=to_one(one, one_b),
            desc="BZ2 collapse over 1 -> 1",
        )
        return {"bz2 square": square}

    def _cli(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.ds.cli.main(argv)
        return code, buf.getvalue()

    def operations(self, sp) -> list:
        ops = []
        for family, extra, _ in FAMILIES:
            argv = ["check", family, "all", "--format", "json", *extra]
            ops.append((f"check {family} all", lambda argv=argv: self._cli(argv)))
            for s in self.corrupt_seeds[family]:
                cargv = argv + ["--corrupt-seed", str(s)]
                ops.append((f"check {family} all corrupt {s}", lambda a=cargv: self._cli(a)))
        g = self.ds.groupoids
        sq = sp["bz2 square"]
        ops.append(
            (
                self.BZ2,
                lambda: (
                    g.is_pullback_square(sq, method="fibrewise"),
                    g.is_pullback_square(sq, method="literal"),
                ),
            )
        )
        return ops

    def check(self, r: dict) -> tuple[list, set]:
        problems: list = []
        for name, (code, out) in ((k, v) for k, v in r.items() if k.startswith("check ")):
            ref = self.reference.setdefault(name, out)
            _problem_if(out == ref, problems, f"`{name}` printed different bytes than in the first pass")
        for family, _, segal_ok in FAMILIES:
            code, out = r[f"check {family} all"]
            reports = {rep["check"]: rep for rep in json.loads(out)}
            got = {k: v["pass"] for k, v in reports.items()}
            want = {
                "segal": segal_ok,
                "decomposition": True,
                "decalage-characterization": True,
                "extra-pullbacks": True,
            }
            _problem_if(got == want, problems, f"{family}: verdicts {got}, expected {want}")
            _problem_if(code == (0 if segal_ok else 1), problems, f"{family}: exit code {code}")
            decalage = reports.get("decalage-characterization", {"squares": []})
            agree = [sq["pass"] for sq in decalage["squares"] if sq["desc"] == "four-way agreement"]
            _problem_if(agree == [True], problems, f"{family}: decalage four-way agreement missing or failed")
            for s in self.corrupt_seeds[family]:
                code, out = r[f"check {family} all corrupt {s}"]
                reports = {rep["check"]: rep for rep in json.loads(out)}
                dec = reports.get("decomposition", {"pass": True, "squares": []})
                _problem_if(
                    code == 1 and not dec["pass"] and any(not sq["pass"] for sq in dec["squares"]),
                    problems,
                    f"{family} --corrupt-seed {s}: exit {code}, decomposition not failed",
                )
        (fib_ok, _), (lit_ok, _) = r[self.BZ2]
        # The right answer is "not a pullback" from both methods; until
        # is_equivalence checks that Aut(x) -> Aut(Fx) is injective both say
        # "pullback", and the operation counts as failed.
        failed = set() if (not fib_ok and not lit_ok) else {self.BZ2}
        return problems, failed


WORKLOADS = {w.name: w for w in (FibreChecks, IncidenceTables, CliCheckAll)}
