"""Built-in group fixtures and their JSON export.

Ships every group of order <= 8 plus Z9 and Z3xZ3.  The JSON files under
fixtures/ mirror the programmatic constructions exactly;
scenario.group_from_json reads them back.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ScenarioError
from .groups import FiniteGroup, direct_product, validate_group


def cyclic(n: int, name: str = "") -> FiniteGroup:
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return validate_group(table, labels=[str(a) for a in range(n)],
                          name=name or f"Z{n}")


def dihedral(n: int, name: str = "") -> FiniteGroup:
    """Dihedral group of order 2n; element j*n + i stands for s^j r^i."""
    order = 2 * n

    def idx(i, j):
        return j * n + i

    table = [[0] * order for _ in range(order)]
    for i1 in range(n):
        for j1 in range(2):
            sign = -1 if j1 else 1
            for i2 in range(n):
                for j2 in range(2):
                    table[idx(i1, j1)][idx(i2, j2)] = idx((i1 + sign * i2) % n,
                                                          (j1 + j2) % 2)
    labels = [f"r{i}" for i in range(n)] + [f"sr{i}" for i in range(n)]
    return validate_group(table, labels=labels, name=name or f"D{n}")


def quaternion8(name: str = "Q8") -> FiniteGroup:
    """The quaternion group via signed unit quaternions."""
    units = ["1", "i", "j", "k"]
    basis = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
        ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
        ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
    }
    elems = [(s, u) for u in units for s in (1, -1)]  # 1, -1, i, -i, j, -j, k, -k
    index = {e: n for n, e in enumerate(elems)}
    table = [[0] * 8 for _ in range(8)]
    for a, (s1, u1) in enumerate(elems):
        for b, (s2, u2) in enumerate(elems):
            s3, u3 = basis[(u1, u2)]
            table[a][b] = index[(s1 * s2 * s3, u3)]
    labels = [("" if s == 1 else "-") + u for (s, u) in elems]
    return validate_group(table, labels=labels, name=name)


def symmetric3(name: str = "S3") -> FiniteGroup:
    """S3 on {0,1,2}; permutations listed lexicographically, composed right-to-left."""
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    index = {p: n for n, p in enumerate(perms)}
    table = [[index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms]

    def cycles(p):
        seen, parts = set(), []
        for start in range(3):
            if start in seen or p[start] == start:
                seen.add(start)
                continue
            cyc, x = [], start
            while x not in seen:
                seen.add(x)
                cyc.append(x)
                x = p[x]
            parts.append("(" + " ".join(map(str, cyc)) + ")")
        return "".join(parts) or "e"

    return validate_group(table, labels=[cycles(p) for p in perms], name=name)


def klein4(name: str = "V4") -> FiniteGroup:
    return direct_product(cyclic(2), cyclic(2), name=name)


_BUILDERS = {
    "Z1": lambda: cyclic(1),
    "Z2": lambda: cyclic(2),
    "Z3": lambda: cyclic(3),
    "Z4": lambda: cyclic(4),
    "V4": klein4,
    "Z5": lambda: cyclic(5),
    "Z6": lambda: cyclic(6),
    "S3": symmetric3,
    "Z7": lambda: cyclic(7),
    "Z8": lambda: cyclic(8),
    "Z4xZ2": lambda: direct_product(cyclic(4), cyclic(2), name="Z4xZ2"),
    "Z2xZ2xZ2": lambda: direct_product(direct_product(cyclic(2), cyclic(2)),
                                       cyclic(2), name="Z2xZ2xZ2"),
    "D4": lambda: dihedral(4, name="D4"),
    "Q8": quaternion8,
    "Z9": lambda: cyclic(9),
    "Z3xZ3": lambda: direct_product(cyclic(3), cyclic(3), name="Z3xZ3"),
}


def builtin_names() -> tuple[str, ...]:
    return tuple(_BUILDERS)


@lru_cache(maxsize=None)
def builtin(name: str) -> FiniteGroup:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise ScenarioError(f"unknown fixture group {name!r}") from None


def group_to_json(g: FiniteGroup) -> dict:
    obj = {"name": g.name, "order": g.order, "table": [list(row) for row in g.table]}
    if g.labels is not None:
        obj["labels"] = list(g.labels)
    return obj

