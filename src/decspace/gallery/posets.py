"""Nerves of finite posets: discrete levels of weakly increasing chains."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import NotAPoset
from ..groupoids import discrete_groupoid
from ..simplicial import TruncSimpGrpd, simplicial_space


@dataclass(frozen=True)
class PosetSpec:
    """Elements plus order relations; the reflexive-transitive closure must be
    antisymmetric."""

    elements: tuple
    relations: frozenset

    @classmethod
    def from_relations(cls, elements, pairs) -> "PosetSpec":
        return cls(tuple(elements), frozenset(pairs))

    @classmethod
    def from_file(cls, path) -> "PosetSpec":
        """UTF-8 lines ``a < b`` with two non-empty sides; blank lines and
        ``#`` comments ignored."""
        elements: list = []
        pairs = set()
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise NotAPoset(f"{path} is not UTF-8 text: {exc}") from None
        for line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            sides = [x.strip() for x in line.split("<")]
            if len(sides) != 2 or not all(sides):
                raise NotAPoset(f"cannot parse line {line!r}")
            a, b = sides
            for x in (a, b):
                if x not in elements:
                    elements.append(x)
            pairs.add((a, b))
        return cls(tuple(elements), frozenset(pairs))

    def closure(self) -> frozenset:
        leq = {(a, a) for a in self.elements}
        leq.update(self.relations)
        changed = True
        while changed:
            changed = False
            for (a, b) in list(leq):
                for (c, d) in list(leq):
                    if b == c and (a, d) not in leq:
                        leq.add((a, d))
                        changed = True
        for (a, b) in leq:
            if a != b and (b, a) in leq:
                raise NotAPoset(f"antisymmetry fails on {a!r}, {b!r}")
        return frozenset(leq)


def chain_poset(n: int) -> PosetSpec:
    return PosetSpec.from_relations(range(n + 1), {(i, i + 1) for i in range(n)})


def divisibility_poset(values) -> PosetSpec:
    values = tuple(values)
    return PosetSpec.from_relations(
        values, {(a, b) for a in values for b in values if b % a == 0}
    )


def nerve_of_poset(spec: PosetSpec, N: int) -> TruncSimpGrpd:
    """X_n is the discrete groupoid of weakly increasing (n+1)-chains."""
    leq = spec.closure()
    order = {e: i for i, e in enumerate(spec.elements)}

    def chains(n):
        out = [(e,) for e in spec.elements]
        for _ in range(n):
            out = [c + (e,) for c in out for e in spec.elements if (c[-1], e) in leq]
        return out

    levels = [
        discrete_groupoid(
            f"N(poset)_{n}", sorted(chains(n), key=lambda c: tuple(order[e] for e in c))
        )
        for n in range(N + 1)
    ]
    discrete = lambda x, y, d: ()
    return simplicial_space(
        "poset-nerve",
        levels,
        lambda n, i: (lambda c: c[:i] + c[i + 1 :], discrete),
        lambda n, i: (lambda c: c[: i + 1] + c[i:], discrete),
        0,
    )
