"""The benchmark's workloads: inputs made from a seed, one item at a time.

An item is one curve (census workloads) or one baseline call (sp_baselines).
The library is driven only through its public per-curve and per-baseline
functions; there is no census function to call yet.  Nothing here imports
the library at module level: :func:`setup` does, so that its cost is part of
the measured set-up time of a fresh interpreter.
"""
from __future__ import annotations

import random
from fractions import Fraction

SAMPLE_SIZE = 1000                  # curves per strata_g3_sampled pass
EXACT_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
EXACT_SP_ORDER_LIMIT = 50_000       # |Sp_2g(Z/l)| exact mode may enumerate here
MC_CASES = ((2, 3, 400), (2, 5, 400), (3, 3, 150))   # (g, l, samples)
CHARPOLY_CASE = (2, 3, 400)
MC_SEED = 7                         # fixed, so interval checks are reproducible
# exact fixed-vector proportions, computed by BFS over Sp_4(Z/3)
KNOWN_EXACT = {(2, 3, 1): Fraction(231, 640), (2, 3, 2): Fraction(7, 16)}


class Context:
    """What set-up hands to the item loop."""

    def __init__(self, name, lib, items, field=None, genus=None):
        self.name, self.lib = name, lib
        self.items, self.field, self.genus = items, field, genus


def import_library():
    from strataforge import curves, errors, ffield, prank, symplectic, weil
    return {"ffield": ffield, "curves": curves, "prank": prank, "weil": weil,
            "symplectic": symplectic, "errors": errors}


def setup(name: str, seed: int, lib: dict) -> Context:
    """Build the fields and their tables, then make the item list from the seed.

    Raises SystemExit before any item runs if the configuration exceeds a cap.
    """
    rng = random.Random(seed)
    if name == "sp_baselines":
        return Context(name, lib, _sp_items(rng, lib))
    ffield, curves = lib["ffield"], lib["curves"]
    p, g, degree = (3, 3, 7) if name == "census_g3_full" else (7, 3, 7)
    if p**g > curves.POINTCOUNT_FIELD_CAP:
        raise SystemExit(f"refused: |F_{p}^{g}| exceeds POINTCOUNT_FIELD_CAP")
    base = ffield.field_new(p)
    for k in range(1, g + 1):
        ext = ffield.field_new(p, k)
        ext.chi_table
        base.embedding_into(ext)
    if name == "census_g3_full":
        items = [f.coeffs for f in ffield.enumerate_monic(base, degree, squarefree_only=True)]
        rng.shuffle(items)
    else:
        items = []
        while len(items) < SAMPLE_SIZE:
            coeffs = [rng.randrange(p) for _ in range(degree)] + [1]
            if ffield.poly_squarefree(base, coeffs):
                items.append(tuple(coeffs))
    return Context(name, lib, items, base, g)


def _sp_items(rng, lib):
    limit_check = lib["symplectic"].sp_order
    groups = []
    for l in EXACT_PRIMES:
        if limit_check(1, l) > EXACT_SP_ORDER_LIMIT:
            raise SystemExit(f"refused: |Sp_2(Z/{l})| exceeds {EXACT_SP_ORDER_LIMIT}")
        groups.append([("exact", 1, l, 1), ("exact", 1, l, l - 1)])
    for g, l, n in MC_CASES:
        groups.append([("montecarlo", g, l, 1, n), ("montecarlo", g, l, rng.randrange(2, l), n)])
    g, l, n = CHARPOLY_CASE
    groups.append([("charpoly", g, l, rng.randrange(1, l), n)])
    # The seed picks the Monte Carlo multipliers only: the cost of an exact
    # m != 1 call depends on m.  A fixed order keeps the points where cyclic
    # GC runs (the enumerated groups stay cached) the same, and keeps both
    # cosets of one group adjacent, as a user's script would.
    return [item for group in groups for item in group]


def item_errors(lib):
    errors = lib["errors"]
    return (errors.ConsistencyError, errors.BudgetExceededError, ValueError)


def describe(ctx: Context, item) -> dict:
    """Enough to reproduce one item from the log alone."""
    if ctx.name == "sp_baselines":
        return dict(zip(("mode", "g", "l", "m", "n"), item), mc_seed=MC_SEED)
    return {"field": repr(ctx.field), "f": list(item)}


# ---------------------------------------------------------------------------
# running and checking one item


def run_item(ctx: Context, item):
    lib = ctx.lib
    if ctx.name == "sp_baselines":
        sym = lib["symplectic"]
        mode, g, l, m, *rest = item
        if mode == "charpoly":
            return sym.coset_charpoly_distribution(g, l, m, mode="montecarlo",
                                                   n=rest[0], seed=MC_SEED)
        if mode == "exact":
            return sym.fixed_vector_proportion(g, l, m, mode="exact")
        return sym.fixed_vector_proportion(g, l, m, mode="montecarlo", n=rest[0], seed=MC_SEED)
    ffield, curves, prank, weil = lib["ffield"], lib["curves"], lib["prank"], lib["weil"]
    field = ctx.field
    curve = curves.curve_new(field, ffield.FqPoly(field, item))
    L = curves.l_polynomial(curve)
    polygon = prank.newton_polygon(L, field.p, field.n)
    rec = {"L": L.coeffs, "J": L(1), "p_rank": prank.p_rank(curve),
           "slope0": prank.slope_zero_length(polygon), "np_class": prank.classify(polygon),
           "np": str(polygon.as_triples())}
    if ctx.name == "census_g3_full":
        rec["split"] = weil.splitting_class_g3(L)[0]
        rec["simple"] = weil.absolutely_simple(L)
    return rec


def check_item(ctx: Context, item, rec) -> list[str]:
    """Output checks on one item; each returned string is one failed check."""
    if ctx.name != "sp_baselines":
        bad = []
        if rec["p_rank"] != rec["slope0"]:
            bad.append(f"p-rank routes disagree: Hasse-Witt {rec['p_rank']}, "
                       f"slope-0 length {rec['slope0']}")
        if not rec["J"] > 0 or rec["J"] != sum(rec["L"]):
            bad.append(f"#J = {rec['J']} is not L(1) > 0")
        return bad
    mode, g, l, m, *_ = item
    if mode == "exact":
        closed = Fraction(l, l * l - 1) if m == 1 else Fraction(1, l - 1)
        return [] if rec == closed else [f"exact proportion {rec} != closed form {closed}"]
    if mode == "montecarlo":
        bad = []
        if not 0 <= rec.ci_low <= rec.estimate <= rec.ci_high <= 1:
            bad.append(f"malformed interval {rec}")
        exact = KNOWN_EXACT.get((g, l, m))
        if exact is not None and not rec.ci_low <= exact <= rec.ci_high:
            bad.append(f"interval [{rec.ci_low}, {rec.ci_high}] misses exact {exact}")
        return bad
    bad = []
    if sum(rec.values()) != 1:
        bad.append(f"charpoly distribution sums to {sum(rec.values())}")
    for c in rec:
        # GSp charpolys of multiplier m satisfy c_j = m^(g-j) c_(2g-j) mod l
        if len(c) != 2 * g + 1 or c[-1] != 1 or any(
                c[j] != c[2 * g - j] * pow(m, g - j, l) % l for j in range(2 * g + 1)):
            bad.append(f"charpoly {c} is not a multiplier-{m} GSp charpoly")
    return bad


def summarize(ctx: Context, recs: list) -> tuple[dict, dict]:
    """(invariants pinned by the reference, workload properties) of one pass."""
    if ctx.name == "sp_baselines":
        return {}, {}
    done = [r for r in recs if r is not None]
    strata, np_class, np = {}, {}, {}
    for r in done:
        for table, key in ((strata, f"f{r['p_rank']}"), (np_class, r["np_class"]), (np, r["np"])):
            table[key] = table.get(key, 0) + 1
    distinct, n = len({r["L"] for r in done}), max(len(done), 1)
    pinned = {"curves": len(done), "distinct_L": distinct, "strata": strata,
              "np_class": np_class, "np": np}
    props = {"distinct_L_share": distinct / n}
    for f in range(ctx.genus + 1):
        props[f"stratum_share.f{f}"] = strata.get(f"f{f}", 0) / n
    if ctx.name == "census_g3_full":
        props["weil.splitting_class_g3.undetermined_ratio"] = sum(
            1 for r in done if r["split"] == "undetermined") / n
        props["weil.absolutely_simple.true_share"] = sum(1 for r in done if r["simple"]) / n
    return pinned, props


# ---------------------------------------------------------------------------
# tracing: wrap each public function at the name its caller looks up


def install_tracing(tracer, lib):
    import strataforge
    ffield, curves, prank, weil, sym = (lib[k] for k in
                                        ("ffield", "curves", "prank", "weil", "symplectic"))
    tracer.span([ffield, curves, strataforge], "field_new", "ffield.field_new")
    tracer.span([ffield, curves], "poly_squarefree", "ffield.poly_squarefree")
    tracer.span([prank], "poly_mul", "ffield.poly_mul")
    for op in ("add", "sub", "mul", "inv", "pow", "chi"):
        tracer.count(ffield.FieldDescriptor, op, "ffield.scalar_ops")
    tracer.span([curves], "curve_new", "curves.curve_new")
    tracer.span([curves], "l_polynomial", "curves.l_polynomial",
                key=lambda args, L: L.coeffs)
    tracer.span([curves], "point_count", "curves.point_count")
    tracer.span([prank], "p_rank", "prank.p_rank")
    tracer.span([prank], "newton_polygon", "prank.newton_polygon")
    tracer.span([weil], "splitting_class_g3", "weil.splitting_class_g3")
    tracer.span([weil], "absolutely_simple", "weil.absolutely_simple",
                key=lambda args, _: args[0].coeffs)
    tracer.span([weil], "power_charpoly", "weil.power_charpoly")
    tracer.span([sym], "fixed_vector_proportion",
                lambda *a, mode="exact", **k: f"symplectic.fixed_vector_proportion.{mode}")
    tracer.span([sym], "coset_charpoly_distribution", "symplectic.coset_charpoly_distribution")
    tracer.span([sym], "det_mod", "symplectic.det_mod")
    tracer.count(sym, "mat_mul", "symplectic.mat_mul")
