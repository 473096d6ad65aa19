"""Call-tree tracing of echlab's layers from outside the program.

install() wraps every public function of each layer module, the ExactReal
constructors and NullLattice.contains, and rebinds each wrapper under every
echlab namespace that holds the original, so calls between modules and
within a module go through it. Calls fold into a tree held in memory (one
node per call path, with calls and total seconds); self time is a node's
total minus its children's totals. per_layer() derives the benchmark's
per-layer metrics from the tree.
"""

from __future__ import annotations

from time import perf_counter

LAYERS = ("cli", "census", "exactreal", "indices", "lefschetz", "intlinalg",
          "orbits", "presets_io", "stheta")


class Node:
    __slots__ = ("name", "calls", "total", "children")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.total = 0.0
        self.children: dict[str, Node] = {}

    def self_time(self) -> float:
        return self.total - sum(c.total for c in self.children.values())

    def to_json(self) -> dict:
        return {"name": self.name, "calls": self.calls, "total_s": self.total,
                "self_s": self.self_time(),
                "children": [c.to_json() for c in self.children.values()]}


class Tracer:
    def __init__(self):
        self.root = Node("root")
        self.stack = [self.root]
        self.counters: dict[str, int] = {}

    def wrap(self, name: str, fn, post=None):
        stack = self.stack
        counters = self.counters

        def traced(*args, **kwargs):
            parent = stack[-1]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = Node(name)
            stack.append(node)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                node.total += perf_counter() - start
                node.calls += 1
                stack.pop()
            if post is not None:
                post(result, counters)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, echlab) -> None:
        modules = {layer: getattr(echlab, layer) for layer in LAYERS}
        originals: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (attr.startswith("_") or isinstance(value, type) or not callable(value)
                        or getattr(value, "__module__", None) != module.__name__):
                    continue
                originals[id(value)] = self.wrap(f"{layer}.{attr}", value, _POST.get(attr))
        # rebind under every echlab namespace that imported the same object
        for module in [echlab, *modules.values()]:
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        real = echlab.exactreal.ExactReal
        for attr in ("from_quadratic", "from_rational"):
            fn = getattr(real, attr)
            setattr(real, attr, staticmethod(self.wrap(f"exactreal.ExactReal.{attr}", fn)))
        lattice = echlab.orbits.NullLattice
        lattice.contains = self.wrap("orbits.NullLattice.contains", lattice.contains,
                                     _count_accepted)

    def tree(self) -> dict:
        return self.root.to_json()


def _count_entries(result, counters):
    counters["census.entries"] = counters.get("census.entries", 0) + len(result.entries)


def _count_quotients(result, counters):
    counters["exactreal.cf_quotients"] = (
        counters.get("exactreal.cf_quotients", 0) + len(result.quotients))


def _count_accepted(result, counters):
    if result:
        counters["orbits.accepted"] = counters.get("orbits.accepted", 0) + 1


_POST = {"enumerate_generators": _count_entries, "continued_fraction": _count_quotients}


def _walk(node: Node, ancestors: tuple[str, ...] = ()):
    yield node, ancestors
    for child in node.children.values():
        yield from _walk(child, ancestors + (node.name,))


def per_layer(tracer: Tracer, output_bytes: int) -> dict[str, float]:
    """The per-layer metrics: calls and self milliseconds per function summed
    over every call path, plus counts taken at layer boundaries."""
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    total_ms: dict[str, float] = {}
    box_points = ceil_evals = 0
    presets_ms = 0.0
    for node, ancestors in _walk(tracer.root):
        calls[node.name] = calls.get(node.name, 0) + node.calls
        self_ms[node.name] = self_ms.get(node.name, 0.0) + 1000 * node.self_time()
        if node.name not in ancestors:  # outermost call of a recursion only
            total_ms[node.name] = total_ms.get(node.name, 0.0) + 1000 * node.total
        if node.name.startswith("presets_io.") and not any(a.startswith("presets_io.") for a in ancestors):
            presets_ms += 1000 * node.total
        if node.name == "orbits.NullLattice.contains" and ancestors[-1:] == ("census.enumerate_generators",):
            box_points += node.calls
        if node.name == "exactreal.ceil_mult" and any(a.startswith("stheta.") for a in ancestors):
            ceil_evals += node.calls

    def c(name):
        return calls.get(name, 0)

    def s(*names):
        return sum(self_ms.get(n, 0.0) for n in names)

    def layer_self(prefix):
        return sum(v for k, v in self_ms.items() if k.startswith(prefix + "."))

    def ratio(a, b):
        return a / b if b else 0.0

    counters = tracer.counters
    entries = counters.get("census.entries", 0)
    index_calls = c("indices.ech_index") + c("indices.j0_index")
    index_ms = total_ms.get("indices.ech_index", 0.0) + total_ms.get("indices.j0_index", 0.0)
    stheta_scan = [k for k in self_ms if k.startswith("stheta.") and k != "stheta.semiconvergents_above"]
    zeta = ("lefschetz.zeta_identity_check", "lefschetz.zeta_solve",
            "lefschetz.lefschetz_number", "lefschetz.char_reciprocal")
    return {
        "cli.self_ms": layer_self("cli"),
        "cli.output_bytes": output_bytes,
        "presets_io.load_ms": presets_ms,
        "census.enumerate_generators.calls": c("census.enumerate_generators"),
        "census.enumerate_generators.self_ms": s("census.enumerate_generators"),
        "census.box_points": box_points,
        "census.entries": entries,
        "census.entries_per_box_point": ratio(entries, box_points),
        "census.triangle_lattice_count.calls": c("census.triangle_lattice_count"),
        "census.triangle_lattice_count.self_ms": s("census.triangle_lattice_count"),
        "census.growth_exponent.self_ms": s("census.growth_exponent"),
        "orbits.lattice_contains.calls": c("orbits.NullLattice.contains"),
        "orbits.lattice_contains.self_ms": s("orbits.NullLattice.contains"),
        "orbits.lattice_accept_ratio": ratio(counters.get("orbits.accepted", 0),
                                             c("orbits.NullLattice.contains")),
        "orbits.nullhomologous_lattice.calls": c("orbits.nullhomologous_lattice"),
        "orbits.nullhomologous_lattice.self_ms": s("orbits.nullhomologous_lattice"),
        "indices.ech_index.calls": c("indices.ech_index"),
        "indices.ech_index.self_ms": s("indices.ech_index"),
        "indices.j0_index.calls": c("indices.j0_index"),
        "indices.j0_index.self_ms": s("indices.j0_index"),
        "indices.us_per_index": 1000 * ratio(index_ms, index_calls),
        "indices.index_envelope.self_ms": s("indices.index_envelope"),
        "indices.qbar.self_ms": s("indices.qbar"),
        "indices.qbar_quadrant_positive.self_ms": s("indices.qbar_quadrant_positive"),
        "exactreal.floor_mult.calls": c("exactreal.floor_mult"),
        "exactreal.floor_mult.self_ms": s("exactreal.floor_mult"),
        "exactreal.constructions": c("exactreal.ExactReal.from_quadratic") + c("exactreal.ExactReal.from_rational"),
        "exactreal.construct.self_ms": s("exactreal.ExactReal.from_quadratic", "exactreal.ExactReal.from_rational"),
        "exactreal.continued_fraction.calls": c("exactreal.continued_fraction"),
        "exactreal.cf_quotients": counters.get("exactreal.cf_quotients", 0),
        "exactreal.floor_radical_sum.calls": c("exactreal.floor_radical_sum"),
        "exactreal.floor_radical_sum.self_ms": s("exactreal.floor_radical_sum"),
        "stheta.ceil_evals": ceil_evals,
        "stheta.scan.self_ms": s(*stheta_scan),
        "stheta.semiconvergents_above.self_ms": s("stheta.semiconvergents_above"),
        "lefschetz.torus_periodic_points.calls": c("lefschetz.torus_periodic_points"),
        "lefschetz.torus_periodic_points.self_ms": s("lefschetz.torus_periodic_points"),
        "lefschetz.zeta.self_ms": s(*zeta),
        "intlinalg.mat_mul.calls": c("intlinalg.mat_mul"),
        "intlinalg.mat_mul.self_ms": s("intlinalg.mat_mul"),
        "intlinalg.mat_pow.calls": c("intlinalg.mat_pow"),
        "intlinalg.smith_normal_form.calls": c("intlinalg.smith_normal_form"),
    }
