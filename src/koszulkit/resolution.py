"""Minimal graded free resolutions over the polynomial ring, Betti tables,
chain-map lifting, mapping cones, the acyclicity test via expected ranks and
heights of minor ideals, and Ext-annihilator computation: Ann Ext^i is the
intersection (groebner.intersect) of the proper colons
(modules.submodule_colon) of the cocycles into the coboundaries."""

from __future__ import annotations

from functools import reduce
from itertools import combinations

from .groebner import GroebnerError, Ideal, intersect
from .hilbert import hilbert_of_quotient, zp_add, zp_shift, zp_trim
from .modules import FreeModule, PolyMatrix, TaggedModule, submodule_colon, syzygy_matrix
from .ring import Polynomial, RingContext, RingError, total


class BettiTable:
    """Graded Betti numbers beta_{i,j} keyed by (homological index, total degree)."""

    def __init__(self, entries: dict):
        self.entries = {k: v for k, v in entries.items() if v}

    @staticmethod
    def from_twist_lists(twist_lists: list[list]) -> "BettiTable":
        entries: dict = {}
        for i, twists in enumerate(twist_lists):
            for t in twists:
                key = (i, total(t))
                entries[key] = entries.get(key, 0) + 1
        return BettiTable(entries)

    def beta(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def projective_dimension(self) -> int:
        return max((i for (i, _) in self.entries), default=0)

    def max_row(self) -> int:
        """The Castelnuovo-Mumford regularity: the largest row index j - i
        of a nonzero beta_{i,j}, 0 for an empty table."""
        return max((j - i for (i, j) in self.entries), default=0)

    def alternating_sum(self) -> tuple:
        """Sum of (-1)^i beta_{i,j} t^j, the Hilbert numerator over (1-t)^n."""
        out: tuple = ()
        for (i, j), b in self.entries.items():
            out = zp_add(out, zp_shift(((-1) ** i * b,), j))
        return zp_trim(out)

    def display(self) -> str:
        """Table with column i, row j - i, zero entries shown as --."""
        pd = self.projective_dimension()
        lines = []
        header = ["    "] + [f"{i:>4}" for i in range(pd + 1)]
        lines.append("".join(header))
        for r in range(self.max_row() + 1):
            cells = [f"{r:>4}"]
            for i in range(pd + 1):
                b = self.beta(i, i + r)
                cells.append(f"{b:>4}" if b else "  --")
            lines.append("".join(cells))
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {f"{i},{j}": b for (i, j), b in sorted(self.entries.items())}

    def __eq__(self, other):
        if isinstance(other, BettiTable):
            return self.entries == other.entries
        if isinstance(other, dict):
            return self.entries == {k: v for k, v in other.items() if v}
        return NotImplemented

    def __repr__(self):
        return f"BettiTable({self.entries})"


class FreeComplex:
    """A chain of free-module maps; maps[i] sends modules[i+1] into modules[i]."""

    def __init__(self, modules: list[FreeModule], maps: list[PolyMatrix], check: bool = True):
        self.modules = modules
        self.maps = maps
        self.ring = modules[0].ring
        if check:
            self.validate()

    @property
    def length(self) -> int:
        return len(self.maps)

    def validate(self):
        if len(self.modules) != len(self.maps) + 1:
            raise RingError("complex shape mismatch")
        for i, d in enumerate(self.maps):
            if d.target.twists != self.modules[i].twists or d.source.twists != self.modules[i + 1].twists:
                raise RingError(f"differential {i + 1} does not match its modules")
        for i in range(len(self.maps) - 1):
            if not self.maps[i].compose(self.maps[i + 1]).is_zero():
                raise RingError(f"d_{i + 1} o d_{i + 2} != 0")

    def is_minimal(self) -> bool:
        return all(
            not d.entries[r][c] or not d.entries[r][c].is_constant()
            for d in self.maps
            for r in range(d.nrows)
            for c in range(d.ncols)
        )

    def betti(self) -> BettiTable:
        return BettiTable.from_twist_lists([list(m.twists) for m in self.modules])

    def ranks(self) -> list[int]:
        return [m.rank for m in self.modules]

    def __repr__(self):
        return f"FreeComplex(ranks={self.ranks()})"


def _prune_units(modules: list[list], maps: list[list[list]], ring: RingContext):
    """Destructively split off trivial S -> S summands until none remain.

    modules: mutable twist lists; maps: mutable entry grids.
    """
    K = ring.field
    changed = True
    while changed:
        changed = False
        for i, grid in enumerate(maps):
            nrows, ncols = len(modules[i]), len(modules[i + 1])
            unit = None
            for r in range(nrows):
                for c in range(ncols):
                    f = grid[r][c]
                    if f and f.is_constant():
                        unit = (r, c)
                        break
                if unit:
                    break
            if not unit:
                continue
            r, c = unit
            u = grid[r][c].constant_term()
            uinv = K.inv(u)
            # clear row r with column operations (adjust rows of the next map)
            for j in range(ncols):
                if j != c and grid[r][j]:
                    f = grid[r][j].scale(uinv)
                    for s in range(nrows):
                        grid[s][j] = grid[s][j] - grid[s][c] * f
                    if i + 1 < len(maps):
                        nxt = maps[i + 1]
                        for t in range(len(modules[i + 2])):
                            nxt[c][t] = nxt[c][t] + f * nxt[j][t]
            # clear column c with row operations (adjust columns of the previous map)
            for s in range(nrows):
                if s != r and grid[s][c]:
                    g = grid[s][c].scale(uinv)
                    for j in range(ncols):
                        grid[s][j] = grid[s][j] - grid[r][j] * g
                    if i > 0:
                        prv = maps[i - 1]
                        for t in range(len(modules[i - 1])):
                            prv[t][r] = prv[t][r] + prv[t][s] * g
            # delete generator c of F_{i+1} and generator r of F_i
            del modules[i + 1][c]
            for row in grid:
                del row[c]
            if i + 1 < len(maps):
                del maps[i + 1][c]
            del modules[i][r]
            del grid[r]
            if i > 0:
                for row in maps[i - 1]:
                    del row[r]
            changed = True
            break


def minimalize_complex(cx: FreeComplex) -> FreeComplex:
    """Minimal complex homotopy-equivalent to cx (prunes constant entries).

    The result is validated (d o d = 0), whether or not cx was.  A complex
    that is already minimal keeps its maps, and so their packed columns."""
    if cx.is_minimal() and cx.modules[-1].rank:
        return FreeComplex(list(cx.modules), list(cx.maps))
    modules = [list(m.twists) for m in cx.modules]
    maps = [[row[:] for row in d.entries] for d in cx.maps]
    _prune_units(modules, maps, cx.ring)
    while maps and not modules[-1]:
        maps.pop()
        modules.pop()
    mods = [FreeModule(cx.ring, tw) for tw in modules]
    out_maps = [
        PolyMatrix(mods[i], mods[i + 1], maps[i], check=False) for i in range(len(maps))
    ]
    return FreeComplex(mods, out_maps)


def minimal_resolution(I: Ideal, max_steps: int | None = None) -> tuple[FreeComplex, BettiTable]:
    """Minimal graded free resolution of S/I with its Betti table, from
    degrevlex syzygies; the table does not depend on the order."""
    ring = I.ring
    if not I.is_homogeneous():
        raise GroebnerError("minimal resolutions need homogeneous input")
    F0 = FreeModule(ring, [ring.zero_deg])
    if I.is_zero():
        cx = FreeComplex([F0], [])
        return cx, cx.betti()
    maps = [PolyMatrix(F0, FreeModule(ring, [g.degree() for g in I.gens]), [list(I.gens)])]
    # each level starts from the packed columns the previous one kept
    for _ in range(ring.n + 1 if max_steps is None else max_steps):
        S = syzygy_matrix(maps[-1])
        if S.ncols == 0:
            break
        maps.append(S)
    maps[-1]._module = None  # no level above consumes the module of the last
    modules = [maps[0].target] + [d.source for d in maps]
    # minimalize_complex validates d o d = 0 on the pruned complex, once
    cx = minimalize_complex(FreeComplex(modules, maps, check=False))
    if not cx.is_minimal():
        raise GroebnerError("resolution failed to minimalize")
    return cx, cx.betti()


# ---------------------------------------------------------------------------
# chain maps and cones


def shift_complex(cx: FreeComplex, d) -> FreeComplex:
    """Twist every free module by the degree d (entries unchanged)."""
    mods = [m.shifted(tuple(d)) for m in cx.modules]
    maps = [
        PolyMatrix(mods[i], mods[i + 1], cx.maps[i].entries, check=False)
        for i in range(cx.length)
    ]
    return FreeComplex(mods, maps, check=False)


def lift_chain_map(L0: PolyMatrix, top: FreeComplex, bottom: FreeComplex) -> list[PolyMatrix]:
    """Lift L0: top_0 -> bottom_0 to a chain map; returns [L0, L1, ...].

    Each lift solves bottom.d_i * L_i = L_{i-1} * top.d_i: L_i is the X of
    TaggedModule(bottom.d_i).reduce(L_{i-1} * top.d_i).  An unsolvable step
    raises GroebnerError naming the index and the first failing column.
    """
    if L0.target.twists != bottom.modules[0].twists or L0.source.twists != top.modules[0].twists:
        raise RingError("augmentation map does not match the complexes")
    ring = top.ring
    L = [L0]
    for i in range(1, top.length + 1):
        need = L[i - 1].compose(top.maps[i - 1])
        if i > bottom.length:
            if not need.is_zero():
                raise GroebnerError(f"chain map cannot be lifted at index {i}: target complex ended")
            L.append(PolyMatrix.zero(FreeModule(ring, []), top.modules[i]))
            continue
        R, X = TaggedModule(bottom.maps[i - 1]).reduce(need)
        for c in range(R.ncols):
            if any(row[c] for row in R.entries):
                raise GroebnerError(f"chain map cannot be lifted at index {i}, column {c}")
        L.append(X)
    return L


def mapping_cone(L: list[PolyMatrix], top: FreeComplex, bottom: FreeComplex) -> FreeComplex:
    """Cone of the chain map L: resolves the cokernel of the augmented map
    when L lifts an injection of cyclic modules."""
    ring = top.ring
    n = max(top.length + 1, bottom.length)
    modules = []
    maps = []
    zero_mod = FreeModule(ring, [])

    def bot_mod(i):
        return bottom.modules[i] if i <= bottom.length else zero_mod

    def top_mod(i):
        return top.modules[i] if 0 <= i <= top.length else zero_mod

    for i in range(n + 1):
        modules.append(bot_mod(i).concat(top_mod(i - 1)))
    for i in range(1, n + 1):
        tgt, src = modules[i - 1], modules[i]
        ent = [[ring.zero() for _ in range(src.rank)] for _ in range(tgt.rank)]
        bt, bs = bot_mod(i - 1).rank, bot_mod(i).rank
        if i <= bottom.length:
            bd = bottom.maps[i - 1]
            for r in range(bd.nrows):
                for c in range(bd.ncols):
                    ent[r][c] = bd.entries[r][c]
        if i - 1 <= len(L) - 1 and top_mod(i - 1).rank:
            Li = L[i - 1]
            for r in range(Li.nrows):
                for c in range(Li.ncols):
                    ent[r][bs + c] = Li.entries[r][c]
        if 1 <= i - 1 <= top.length:
            td = top.maps[i - 2]
            for r in range(td.nrows):
                for c in range(td.ncols):
                    ent[bt + r][bs + c] = -td.entries[r][c]
        maps.append(PolyMatrix(tgt, src, ent))
    cx = FreeComplex(modules, maps)
    return cx


# ---------------------------------------------------------------------------
# acyclicity via expected ranks and heights of minor ideals


def _det(ring: RingContext, grid, rows, cols) -> Polynomial:
    if len(rows) == 1:
        return grid[rows[0]][cols[0]]
    out = ring.zero()
    r0 = rows[0]
    rest = rows[1:]
    for k, c in enumerate(cols):
        f = grid[r0][c]
        if not f:
            continue
        sub = _det(ring, grid, rest, cols[:k] + cols[k + 1:])
        term = f * sub
        out = out + (term if k % 2 == 0 else -term)
    return out


def minors_ideal(M: PolyMatrix, size: int) -> Ideal:
    """Ideal of size x size minors; the unit ideal convention for size 0."""
    ring = M.ring
    if size == 0:
        return Ideal([ring.one()], ring)
    gens = []
    for rows in combinations(range(M.nrows), size):
        for cols in combinations(range(M.ncols), size):
            d = _det(ring, M.entries, list(rows), list(cols))
            if d:
                gens.append(d)
    return Ideal(gens, ring)


def matrix_rank(M: PolyMatrix) -> int:
    r = min(M.nrows, M.ncols)
    while r > 0:
        if not minors_ideal(M, r).is_zero():
            return r
        r -= 1
    return 0


def buchsbaum_eisenbud_check(cx: FreeComplex) -> tuple[bool, dict]:
    """Exactness test for a finite free complex F_len -> ... -> F_0.

    Checks rank(d_i) == r_i := sum_{j >= i} (-1)^{j-i} rank F_j and
    hgt I_{r_i}(d_i) >= i for every i >= 1.
    """
    ranks = cx.ranks()
    n = cx.length
    report = {"steps": []}
    ok = True
    for i in range(1, n + 1):
        r_i = 0
        for j in range(i, n + 1):
            r_i += (-1) ** (j - i) * ranks[j]
        if r_i < 0:
            raise GroebnerError(f"negative expected rank r_{i} = {r_i}")
        d = cx.maps[i - 1]
        actual = matrix_rank(d)
        if r_i == 0:
            step_ok = actual == 0
            ht = None
        else:
            mi = minors_ideal(d, r_i)
            if mi.is_zero():
                step_ok = False
                ht = 0
            else:
                ht = hilbert_of_quotient(mi).codim if not any(
                    g.is_constant() for g in mi.gens
                ) else cx.ring.n + 1
                step_ok = actual == r_i and ht >= i
        report["steps"].append(
            {"i": i, "expected_rank": r_i, "rank": actual, "minor_height": ht, "ok": step_ok}
        )
        ok = ok and step_ok
    report["ok"] = ok
    return ok, report


# ---------------------------------------------------------------------------
# annihilators of Ext modules


def ann_ext(I: Ideal, i: int, resolution: FreeComplex | None = None) -> Ideal:
    """Annihilator of Ext^i_S(S/I, S), computed from a minimal free resolution."""
    ring = I.ring
    if resolution is None:
        resolution, _ = minimal_resolution(I)
    cx = resolution
    if i < 0 or i > cx.length:
        if i > ring.n:
            return Ideal([ring.one()], ring)
        raise GroebnerError(f"Ext index {i} outside the resolved range 0..{cx.length}")
    # cohomology of the transposed complex at position i
    if i < cx.length:
        T_next = cx.maps[i].transpose()  # F_i^* -> F_{i+1}^*
        Kmat = syzygy_matrix(T_next)
    else:
        Kmat = PolyMatrix.identity(cx.modules[i].dual())
    if Kmat.ncols == 0:
        return Ideal([ring.one()], ring)
    if i >= 1:
        T_prev = cx.maps[i - 1].transpose()  # F_{i-1}^* -> F_i^*
        B, b_degs = T_prev.entries, list(T_prev.source.twists)
    else:
        B, b_degs = [[]] * Kmat.nrows, []
    # elements of ker not already in the image give the actual conditions:
    # a column k of Kmat gives the colon ideal of W = [k | T_prev], and the
    # annihilator is the intersection of those that are proper
    parts = []
    for c in range(Kmat.ncols):
        W = PolyMatrix(
            Kmat.target,
            FreeModule(ring, [Kmat.source.twists[c]] + b_degs),
            [[k_row[c]] + b_row for k_row, b_row in zip(Kmat.entries, B)],
        )
        part = submodule_colon(W)
        if not any(g.is_constant() for g in part.gens):
            parts.append(part)
    return reduce(intersect, parts) if parts else Ideal([ring.one()], ring)
