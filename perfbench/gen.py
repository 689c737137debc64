"""Seeded inputs and their expected results, in plain Python.

Every input is written in the text formats autodiss reads (``.tm``,
``.aut``, ``.wiring``), and every expected value comes from a small
reference here: a dict-tape machine, a module-stepping BFS, counting
rules over transition tables.  Nothing in this file imports autodiss.

A job list is a sequence of rounds.  Each round holds one job of every
size class of its workload in seeded order, so any whole number of
rounds carries the same mix of sizes whatever the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import random

ASSET_DIR = os.path.join("src", "autodiss", "assets")

# Size caps, chosen so that no job can get near the memory of a shared
# box (product 2^9 states is ~305 MB, Bennett is O(steps^2) in memory).
MAX_TM_STEPS = 1500  # Bennett history length
MAX_PRODUCT_TRANSITIONS = 2**16  # states x |alphabet| of product_many
MAX_PRODUCT_STATES = 256
MAX_WIRE_TRANSITIONS = 2**12  # tuple states x free symbols of wire

# Size classes of one round.  Sizes repeat so that, pooled over whole
# rounds, the median job falls inside a block of same-size jobs (ranks
# 30-70 %) and the 90th percentile inside the block of the largest
# (ranks 80-100 %), never on a boundary between two sizes.
#
# tm_history: (tape width, target steps) of the halting sweepers, then
# step budgets of the never-halting counter.  Width and steps vary
# independently.
TM_CLASSES = [(8, 150), (40, 150), (16, 450), (16, 450), (16, 450), (16, 450),
              (40, 800), (24, 1200), (24, 1200)]
COUNTER_BUDGETS = [1500, 3000]
# modular_product: product transitions (states x inputs) lie within
# [floor, 1.2 floor].
PRODUCT_CLASSES = [4096, 8192, 16384, 16384, 16384, 16384, 16384, 24576, 32768, 32768]
# tour_ensemble: tour state counts, then (states, horizon) of ensembles.
TOUR_CLASSES = [80, 100, 120, 170, 170, 170, 170, 170, 300, 300]
ENSEMBLE_CLASSES = [(1800, 40), (2400, 40)]

def _read_asset(root: str, name: str) -> str:
    with open(os.path.join(root, ASSET_DIR, name), encoding="utf-8") as fh:
        return fh.read()


def _directives(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].split()
        if line:
            yield line


# ---------------------------------------------------------------- machines


def tm_table(text: str) -> dict:
    """Rule table, blank, initial and halting set of ``.tm`` text."""
    spec = {"rules": {}, "halting": set()}
    for tok in _directives(text):
        if tok[0] == "rule":
            spec["rules"][(tok[1], tok[2])] = (tok[3], tok[4], tok[5])
        elif tok[0] in ("blank", "initial"):
            spec[tok[0]] = tok[1]
        elif tok[0] == "halting":
            spec["halting"].update(tok[1:])
        elif tok[0] == "tape":
            spec["tape"] = tok[1:]
    return spec


def tm_reference(spec: dict, max_steps: int) -> dict:
    """Run a machine on a dict tape; also charge the modular head + cell
    bits per step (log2 of the distinct successor controls, plus one
    cell write of log2 |tape|)."""
    rules, blank = spec["rules"], spec["blank"]
    succ: dict[str, set] = {}
    for (q, _), (q2, _, _) in rules.items():
        succ.setdefault(q, set()).add(q2)
    cell_bits = math.log2(len(spec["tape"]))
    cells: dict[int, str] = {}
    head, state, steps, bits = 0, spec["initial"], 0, 0.0
    while state not in spec["halting"] and steps < max_steps:
        bits += math.log2(len(succ[state])) + cell_bits
        state, write, move = rules[(state, cells.get(head, blank))]
        if write == blank:
            cells.pop(head, None)
        else:
            cells[head] = write
        head += {"L": -1, "R": 1, "N": 0}[move]
        steps += 1
    halted = state in spec["halting"]
    result = []
    if cells:
        lo, hi = min(cells), max(cells)
        result = [cells.get(i, blank) for i in range(lo, hi + 1)]
    indeg: dict[str, int] = {}
    for q, targets in succ.items():
        for t in targets:
            indeg[t] = indeg.get(t, 0) + 1
    return {
        "halted": halted,
        "steps": steps,
        "result": result if halted else None,
        "cells": sorted(cells.items()),
        "bits": bits,
        "has_convergence": any(d >= 2 for d in indeg.values()),
    }


def sweeper_text(rng: random.Random, name: str, width: int, sweeps: int) -> str:
    """A halting machine that writes ``width`` seeded cells and then
    sweeps the written window ``sweeps`` times, each sweep seeded to
    keep or swap the symbols a and b.  Steps: width + sweeps*(width+1)."""
    symbols = ["a", "b", "c"]
    pattern = [rng.choice(symbols) for _ in range(width)]
    writers = [f"w{i}" for i in range(width)]
    sweepers = [f"s{k}" for k in range(sweeps)]
    rules = []
    for i, q in enumerate(writers):
        nxt = writers[i + 1] if i + 1 < width else sweepers[0]
        rules.append((q, "_", nxt, pattern[i], "R" if i + 1 < width else "N"))
    for k, q in enumerate(sweepers):
        move, back = ("L", "R") if k % 2 == 0 else ("R", "L")
        swap = rng.random() < 0.5
        for x in symbols:
            y = {"a": "b", "b": "a"}.get(x, x) if swap else x
            rules.append((q, x, q, y, move))
        rules.append((q, "_", sweepers[k + 1] if k + 1 < sweeps else "halt", "_", back))
    rng.shuffle(rules)
    lines = [f"tm {name}", "blank _", "tape _ a b c",
             "states " + " ".join(writers + sweepers + ["halt"]),
             "initial w0", "halting halt"]
    lines += ["rule " + " ".join(r) for r in rules]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- automata


def aut_table(text: str) -> dict:
    """States, inputs, initial, transitions and arrow probabilities of
    ``.aut`` text."""
    spec = {"states": [], "inputs": [], "initial": None, "output": {},
            "trans": {}, "prob": {}}
    for tok in _directives(text):
        key = tok[0]
        if key in ("states", "inputs"):
            spec[key] += tok[1:]
        elif key == "initial":
            spec["initial"] = tok[1]
        elif key == "output":
            spec["output"][tok[1]] = tok[2]
        elif key == "trans":
            spec["trans"][(tok[1], tok[2])] = tok[3]
        elif key == "prob":
            spec["prob"][(tok[1], tok[2])] = float(tok[3])
    return spec


def aut_text(name: str, spec: dict) -> str:
    lines = [f"automaton {name}", "inputs " + " ".join(spec["inputs"]),
             "outputs " + " ".join(spec["output"][q] for q in spec["states"]),
             "states " + " ".join(spec["states"])]
    if spec["initial"] is not None:
        lines.append(f"initial {spec['initial']}")
    lines += [f"output {q} {spec['output'][q]}" for q in spec["states"]]
    lines += [f"trans {q} {s} {t}" for (q, s), t in spec["trans"].items()]
    lines += [f"prob {q} {s} {p!r}" for (q, s), p in spec["prob"].items()]
    return "\n".join(lines) + "\n"


def arrows(spec: dict) -> dict:
    """Merged arrows: (source, target) -> sorted labels."""
    out: dict[tuple[str, str], list[str]] = {}
    for (q, s), t in spec["trans"].items():
        out.setdefault((q, t), []).append(s)
    return {k: sorted(v) for k, v in out.items()}


def choice_bits(spec: dict) -> dict:
    """Per-state choice information under the file's input model: the
    ``prob`` weights of an arrow's labels when the state has any, else
    uniform over its merged arrows."""
    weights: dict[str, list[float]] = {q: [] for q in spec["states"]}
    for (q, _), labels in arrows(spec).items():
        weights[q].append(sum(spec["prob"].get((q, s), 0.0) for s in labels))
    bits = {}
    for q, ws in weights.items():
        if not any(ws):
            ws = [1.0] * len(ws)
        total = sum(ws)
        bits[q] = -sum(w / total * math.log2(w / total) for w in ws if w > 0)
    return bits


def random_module(rng: random.Random, nq: int, ns: int) -> dict:
    """A module of ``nq`` states and ``ns`` inputs with random partial
    transitions; half of them carry a non-uniform input model."""
    states = [str(i) for i in range(nq)]
    spec = {"states": states, "inputs": [f"x{j}" for j in range(ns)],
            "initial": "0", "output": {q: f"R{q}" for q in states},
            "trans": {}, "prob": {}}
    for q in states:
        for s in spec["inputs"]:
            if rng.random() < 0.85:
                spec["trans"][(q, s)] = rng.choice(states)
    if rng.random() < 0.5:
        by_source: dict[str, dict[str, str]] = {}
        for (q, t), labels in arrows(spec).items():
            by_source.setdefault(q, {})[t] = labels[0]
        two = [q for q, outs in by_source.items() if len(outs) >= 2]
        if two:
            q = rng.choice(two)
            labels = list(by_source[q].values())
            weights = [0.5] + [0.5 / (len(labels) - 1)] * (len(labels) - 1)
            if len(labels) == 2:
                weights = [0.25, 0.75]
            for s, p in zip(labels, weights):
                spec["prob"][(q, s)] = p
    return spec


def strongly_connected(rng: random.Random, n: int, symbols: int = 3) -> dict:
    """A random automaton that a Hamiltonian cycle keeps strongly
    connected; other symbols go to random states with probability 0.7."""
    states = [f"s{i}" for i in range(n)]
    inputs = [str(j) for j in range(symbols)]
    order = states[:]
    rng.shuffle(order)
    trans = {}
    for q in states:
        for s in inputs:
            if rng.random() < 0.7:
                trans[(q, s)] = rng.choice(states)
    for i, q in enumerate(order):
        trans[(q, rng.choice(inputs))] = order[(i + 1) % n]
    return {"states": states, "inputs": inputs, "initial": order[0],
            "output": {q: "o" + q[1:] for q in states}, "trans": trans, "prob": {}}


# ---------------------------------------------------------------- wirings


def chain_wiring(rng: random.Random, mods: list[tuple[str, dict]], free: set):
    """Ring ``m0 -> m1 -> ... -> m0``, cut before each module named in
    ``free``, which stays undriven.  Returns the wiring directives after
    the header and the drivers used by the reference."""
    names = [n for n, _ in mods]
    specs = dict(mods)
    lines, drivers = [], {}
    for i, dst in enumerate(names):
        if dst in free:
            continue
        src = names[i - 1]  # m0 is fed by the last module
        emitted = [specs[src]["output"][q] for q in specs[src]["states"]]
        mapping = {r: rng.choice(specs[dst]["inputs"]) for r in emitted}
        drivers[dst] = (src, mapping)
        lines.append(f"connect {src} {dst} "
                     + " ".join(f"{r}={s}" for r, s in mapping.items()))
    for n in names:
        lines.append(f"initial {n} {specs[n]['initial']}")
    return lines, drivers


def wire_reference(mods: list[tuple[str, dict]], drivers: dict):
    """BFS over tuple states, stepping each module's table directly."""
    names = [n for n, _ in mods]
    specs = dict(mods)
    free = [n for n in names if n not in drivers]
    symbol_tuples = list(itertools.product(*(specs[n]["inputs"] for n in free)))

    def name(parts):
        return "(" + ",".join(parts) + ")"

    start = tuple(specs[n]["initial"] for n in names)
    seen, order, trans = {start}, [start], {}
    for cur in order:  # order grows while we walk it
        state = dict(zip(names, cur))
        for syms in symbol_tuples:
            given = dict(zip(free, syms))
            nxt = []
            for n in names:
                if n in drivers:
                    src, mapping = drivers[n]
                    s = mapping[specs[src]["output"][state[src]]]
                else:
                    s = given[n]
                t = specs[n]["trans"].get((state[n], s))
                if t is None:
                    break
                nxt.append(t)
            else:
                nxt = tuple(nxt)
                trans[(name(cur), "|".join(syms) if free else "ck")] = name(nxt)
                if nxt not in seen:
                    seen.add(nxt)
                    order.append(nxt)
    inputs = ["|".join(s) for s in symbol_tuples] if free else ["ck"]
    return [name(s) for s in order], trans, inputs


# ---------------------------------------------------------------- references
#
# Expected values too large to keep for a whole job list are derived
# from a job's own files just before it runs, outside the timed region.


def product_reference(texts: list[str]) -> dict:
    """Product counts are products of module counts; the choice bits of
    a product state are the sum of its modules' bits, or 0 where some
    module has no way out."""
    specs = [aut_table(t) for t in texts]
    bits = [choice_bits(s) for s in specs]
    sources = [{q for q, _ in s["trans"]} for s in specs]
    product_bits = {}
    for parts in itertools.product(*(s["states"] for s in specs)):
        live = all(q in src for src, q in zip(sources, parts))
        product_bits["(" + ",".join(parts) + ")"] = (
            sum(b[q] for b, q in zip(bits, parts)) if live else 0.0)
    return {"states": math.prod(len(s["states"]) for s in specs),
            "arrows": math.prod(len(arrows(s)) for s in specs), "bits": product_bits}


def tour_reference(text: str) -> dict:
    """Transition table, outputs, start, arrow count and the uniform
    charge log2(out-degree) of each state."""
    spec = aut_table(text)
    merged = arrows(spec)
    outdeg: dict[str, int] = {}
    for q, _ in merged:
        outdeg[q] = outdeg.get(q, 0) + 1
    return {"trans": spec["trans"], "output": spec["output"], "start": spec["initial"],
            "arrows": len(merged), "log2_outdeg": {q: math.log2(d) for q, d in outdeg.items()}}


# ---------------------------------------------------------------- job lists


class JobList:
    """Generated files plus job specs; files are written by the caller."""

    def __init__(self):
        self.files: dict[str, str] = {}
        self.jobs: list[dict] = []

    def add_file(self, name: str, text: str) -> str:
        self.files[name] = text
        return name

    def checksum(self) -> str:
        h = hashlib.sha256()
        for job in self.jobs:
            h.update(repr(sorted(job.items())).encode())
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name].encode() + b"\0")
        return h.hexdigest()


def _tm_round(rng, root, out: JobList, r: int) -> list[dict]:
    jobs = []
    for c, (width, target) in enumerate(TM_CLASSES):
        sweeps = max(1, round((target - width) / (width + 1)))
        text = sweeper_text(rng, f"sweep_{r}_{c}", width, sweeps)
        ref = tm_reference(tm_table(text), MAX_TM_STEPS + 1)
        assert ref["halted"] and ref["steps"] <= MAX_TM_STEPS, ref["steps"]
        jobs.append({"kind": "tm", "file": out.add_file(f"sweep_{r}_{c}.tm", text),
                     "budget": ref["steps"] + 8, "halts": True, "expected": ref})
    counter = _read_asset(root, "bincounter.tm")
    table = tm_table(counter)
    for budget in COUNTER_BUDGETS:
        budget += rng.randrange(-50, 50)
        jobs.append({"kind": "tm", "file": out.add_file("bincounter.tm", counter),
                     "budget": budget, "halts": False,
                     "expected": tm_reference(table, budget)})
    return jobs


def _product_round(rng, root, out: JobList, r: int) -> list[dict]:
    bundled = {n: aut_table(_read_asset(root, n + ".aut"))
               for n in ("tff", "onebit", "counter2")}
    jobs = []
    for c, floor in enumerate(PRODUCT_CLASSES):
        # The shape of a job (module sizes, free modules) depends on its
        # class only, so that every seed and every round do the same
        # amount of work; the seed draws the modules' contents and wiring.
        shape = random.Random(f"product-shape:{c}")
        while True:
            slots, states, trans = [], 1, 1
            while states * trans < floor:
                slot = shape.choice([(2, 2), (2, 1), (2, 3), (3, 2), (4, 2)])
                slots.append(slot)
                states *= slot[0]
                trans *= slot[1]
            if (len(slots) >= 2 and states <= MAX_PRODUCT_STATES
                    and states * trans <= min(1.2 * floor, MAX_PRODUCT_TRANSITIONS)):
                break
        mods = []
        for i, (nq, ns) in enumerate(slots):
            if (nq, ns) == (2, 2) and rng.random() < 0.5:
                kind = rng.choice(["tff", "onebit"])
                mods.append((f"m{i}", kind, bundled[kind]))
            elif (nq, ns) == (2, 1):
                mods.append((f"m{i}", "counter2", bundled["counter2"]))
            else:
                mods.append((f"m{i}", "rand", random_module(rng, nq, ns)))
        files = []
        for inst, kind, spec in mods:
            fname = f"mod_{r}_{c}_{inst}.aut"
            files.append(out.add_file(fname, aut_text(f"{kind}{inst}", spec)))
        named = [(inst, spec) for inst, _, spec in mods]
        while True:
            free = set(shape.sample([n for n, _ in named], shape.randint(0, 2)))
            if states * math.prod(len(s["inputs"]) for n, s in named
                                  if n in free) <= MAX_WIRE_TRANSITIONS:
                break
        lines, drivers = chain_wiring(rng, named, free)
        wname = f"chain_{r}_{c}"
        wtext = "\n".join([f"wiring {wname}"]
                          + [f"module {inst} {f}" for (inst, _, _), f in zip(mods, files)]
                          + lines) + "\n"
        reached, wtrans, inputs = wire_reference(named, drivers)
        ref_spec = {"states": [f"r{i}" for i in range(len(reached))], "inputs": inputs,
                    "initial": "r0", "output": {f"r{i}": f"o{i}" for i in range(len(reached))},
                    "trans": {}, "prob": {}}
        rename = {q: f"r{i}" for i, q in enumerate(reached)}
        for (q, s), t in wtrans.items():
            ref_spec["trans"][(rename[q], s)] = rename[t]
        jobs.append({
            "kind": "product", "modules": files,
            "wiring": out.add_file(wname + ".wiring", wtext),
            "spec": out.add_file(wname + "_spec.aut", aut_text(wname + "_spec", ref_spec)),
            "size": math.prod(len(arrows(s)) for _, s in named),
            "expected": {"reached": sorted(reached),
                         "wire_trans": sorted([q, s, t] for (q, s), t in wtrans.items())},
        })
    return jobs


def _tour_round(rng, root, out: JobList, r: int) -> list[dict]:
    jobs = []
    for c, n in enumerate(TOUR_CLASSES):
        spec = strongly_connected(rng, n)
        fname = out.add_file(f"tour_{r}_{c}.aut", aut_text(f"tour_{r}_{c}", spec))
        merged = arrows(spec)
        src, tgt = rng.choice(sorted(merged))
        wrong = rng.choice([q for q in spec["states"] if q != tgt])
        jobs.append({"kind": "tour", "file": fname, "size": len(merged),
                     "redirect": [src, merged[(src, tgt)][0], wrong], "expected": {}})
    for c, (n, horizon) in enumerate(ENSEMBLE_CLASSES):
        spec = strongly_connected(rng, n)
        fname = out.add_file(f"ens_{r}_{c}.aut", aut_text(f"ens_{r}_{c}", spec))
        jobs.append({"kind": "ensemble", "file": fname, "horizon": horizon,
                     "size": n * horizon, "expected": {"states": n}})
    return jobs


# Commands of the CLI; each round runs all 13, on a bundled asset or a
# small generated file chosen by the seed.
CLI_COMMANDS = ["analyze", "run", "product", "wire", "reach", "equiv", "test",
                "dot", "tm_run", "tm_head", "tm_dissip", "tm_linear", "tm_bennett"]


def _cli_round(rng, root, out: JobList, r: int) -> list[dict]:
    def A(name):  # a bundled asset, relative to the checkout
        return os.path.join(ASSET_DIR, name)

    def wd(name):  # a generated file; the worker resolves the prefix
        return os.path.join("@work", name)

    small = strongly_connected(rng, rng.randint(6, 12))
    small_aut = out.add_file(f"small_{r}.aut", aut_text(f"small_{r}", small))
    renamed = dict(small, states=[], output={}, trans={})
    ren = {q: f"t{i}" for i, q in enumerate(small["states"])}
    renamed["states"] = [ren[q] for q in small["states"]]
    renamed["initial"] = ren[small["initial"]]
    renamed["output"] = {ren[q]: o for q, o in small["output"].items()}
    renamed["trans"] = {(ren[q], s): ren[t] for (q, s), t in small["trans"].items()}
    twin = out.add_file(f"twin_{r}.aut", aut_text(f"twin_{r}", renamed))
    mods = [(f"m{i}", random_module(rng, rng.randint(2, 4), rng.randint(2, 3)))
            for i in range(2)]
    mod_files = [out.add_file(f"cmod_{r}_{i}.aut", aut_text(f"cmod{i}", s))
                 for i, (_, s) in enumerate(mods)]
    lines, drivers = chain_wiring(rng, mods, {"m0"} if rng.random() < 0.5 else set())
    wiring = out.add_file(f"cchain_{r}.wiring", "\n".join(
        [f"wiring cchain_{r}"] + [f"module {n} {f}" for (n, _), f in zip(mods, mod_files)]
        + lines) + "\n")
    sweep = sweeper_text(rng, f"csweep_{r}", rng.randint(3, 6), rng.randint(2, 4))
    sweep_ref = tm_reference(tm_table(sweep), 10_000)
    sweep_file = out.add_file(f"csweep_{r}.tm", sweep)
    word, q, run_bits = [], small["initial"], 0.0
    outdeg = {}
    for (src, _) in arrows(small):
        outdeg[src] = outdeg.get(src, 0) + 1
    for _ in range(12):
        s = rng.choice([s for s in small["inputs"] if (q, s) in small["trans"]])
        word.append(s)
        run_bits += math.log2(outdeg[q])
        q = small["trans"][(q, s)]
    use_asset = {c: rng.random() < 0.5 for c in CLI_COMMANDS}

    def pick(cmd, asset_args, asset_expect, gen_args, gen_expect):
        args, expect = ((asset_args, asset_expect) if use_asset[cmd]
                        else (gen_args, gen_expect))
        return {"kind": "cli", "command": cmd, "args": args, "expected": expect}

    nsmall = len(small["states"])
    mod_states = math.prod(len(s["states"]) for _, s in mods)
    jobs = [
        pick("analyze", ["analyze", A("lossy.aut")], {"state_count": 8, "arrow_count": 10},
             ["analyze", wd(small_aut)], {"state_count": nsmall,
                                          "arrow_count": len(arrows(small))}),
        pick("run", ["run", A("lossy.aut"), "--word", "0100001010"], {"total_bits": 7.0},
             ["run", wd(small_aut), "--word", " ".join(word)], {"total_bits": run_bits}),
        pick("product", ["product", A("tff.aut"), A("onebit.aut")],
             {"state_count": 4, "arrow_count": 16},
             ["product", wd(mod_files[0]), wd(mod_files[1])],
             {"state_count": mod_states,
              "arrow_count": math.prod(len(arrows(s)) for _, s in mods)}),
        pick("wire", ["wire", A("counter4_tff.wiring")], {"state_count": 4},
             ["wire", wd(wiring)],
             {"modules": ["m0", "m1"], "initial": "(" + ",".join(s["initial"] for _, s in mods) + ")"}),
        pick("reach", ["reach", A("counter4.aut")], {"state_count": 4},
             ["reach", wd(small_aut)], {"state_count": nsmall}),
        pick("equiv", ["equiv", A("counter2.aut"), A("counter2.aut")], {"equivalent": True},
             ["equiv", wd(small_aut), wd(twin)], {"equivalent": True}),
        pick("test", ["test", A("counter4.aut")], {"length": 4, "covered": 4},
             ["test", wd(small_aut)], {"covered": len(arrows(small))}),
        pick("dot", ["dot", A("lossy.aut")], {"digraph": "lossy"},
             ["dot", wd(small_aut)], {"digraph": f"small_{r}"}),
        pick("tm_run", ["tm", "run", A("bb2.tm")], {"steps": 6, "halted": True},
             ["tm", "run", wd(sweep_file)], {"steps": sweep_ref["steps"], "halted": True}),
        pick("tm_head", ["tm", "head", A("bb2.tm")], {"control_states": 3},
             ["tm", "head", A("bincounter.tm")], {"control_states": 2}),
        pick("tm_dissip", ["tm", "dissip", A("bb2.tm")], {"steps": 6},
             ["tm", "dissip", A("bincounter.tm"), "--max-steps", "60"], {"steps": 60}),
        pick("tm_linear", ["tm", "linear", A("bb2.tm")], {"state_count": 7, "reversible": True},
             ["tm", "linear", wd(sweep_file)], {"state_count": sweep_ref["steps"] + 1}),
        pick("tm_bennett", ["tm", "bennett", A("bb2.tm")],
             {"total_steps": 16, "history_empty": True, "input_restored": True},
             ["tm", "bennett", wd(sweep_file)],
             {"total_steps": 2 * sweep_ref["steps"] + len(sweep_ref["result"]),
              "history_empty": True, "input_restored": True}),
    ]
    return jobs


JOBS_PER_ROUND = {"tm_history": len(TM_CLASSES) + len(COUNTER_BUDGETS),
                  "modular_product": len(PRODUCT_CLASSES),
                  "tour_ensemble": len(TOUR_CLASSES) + len(ENSEMBLE_CLASSES),
                  "cli_oneshot": len(CLI_COMMANDS)}
ROUNDS = {"tm_history": _tm_round, "modular_product": _product_round,
          "tour_ensemble": _tour_round, "cli_oneshot": _cli_round}


def generate(workload: str, seed: int, rounds: int, root: str) -> JobList:
    """``rounds`` rounds of ``workload`` jobs; the same seed gives the
    same files and specs."""
    rng = random.Random(f"{workload}:{seed}")
    out = JobList()
    for r in range(rounds):
        jobs = ROUNDS[workload](rng, root, out, r)
        rng.shuffle(jobs)
        for job in jobs:
            job["round"] = r
        out.jobs += jobs
    return out
