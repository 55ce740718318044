"""Profiling-driven task assignment for 1..n_max devices.

Planning walks four stages:

1. The validated graph is folded into atomic layer groups: elementwise
   glue (act/norm/pool/softmax and sinks) fuses onto its producer, flow
   stacking fuses onto the recording source, and the pyramid pair plus
   their joining concat form one group.
2. ``find_min_load_tasks`` chain-merges groups along single-consumer
   paths while the resident footprint fits device memory, producing the
   smallest task set that runs without mid-stream weight reloads.
3. For fewer devices than tasks, ``_pack`` packs tasks into
   contiguous buckets, choosing the packing with the least per-inference
   reload time; over-memory buckets cycle through resident subsets and
   pay their load time every inference.
4. For more devices than tasks, candidate transforms are applied
   greedily: replicating a stateless task (round-robin data parallelism)
   or sharding a dense layer's output rows across two devices (the
   shards recombine exactly, so accuracy is untouched).  Each step takes
   the candidate with the best predicted throughput improvement per
   added device; ties go to the slowest stage, then fewer devices, then
   earliest position.

Throughput is predicted with a synchronous-pipeline bound: one over the
slowest stage time, inbound communication included.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field, asdict, replace
from typing import Iterable, Optional

from edgeflock import model_ir as ir
from edgeflock import costs
from edgeflock.costs import DeviceProfile, CommModel, comm_latency, BYTES_PER_VALUE

# Dense-layer shards must clear this relative throughput gain to be
# worth fragmenting weights over; replication is accepted at any
# non-negative gain since replicas keep the model whole.
MIN_SPLIT_GAIN = 0.02

MAX_EXHAUSTIVE_TASKS = 12


class PlanError(ValueError):
    """Unsatisfiable memory constraints or invalid planner input."""


@dataclass(frozen=True)
class ModelSplitInfo:
    origin: str                 # sharded fc layer
    terminal: str               # value name consumers assemble (post-glue)
    index: int
    count: int
    rows: tuple[int, int]       # output rows [lo, hi) of this shard


@dataclass(frozen=True)
class DataReplicaInfo:
    group: str                  # replica group id
    index: int
    count: int


@dataclass(frozen=True)
class Task:
    """A contiguous layer group bound to one device."""

    task_id: str
    device: int
    layers: tuple[str, ...]
    split: Optional[ModelSplitInfo] = None
    replica: Optional[DataReplicaInfo] = None
    resident_groups: tuple[tuple[str, ...], ...] = ()
    window_specs: tuple[tuple[str, int], ...] = ()

    @property
    def reloads(self) -> bool:
        return len(self.resident_groups) > 1


@dataclass(frozen=True)
class Edge:
    producer_device: int
    consumer_device: int
    layer: str                  # transported value (a layer or shard terminal)


@dataclass
class Predicted:
    ips: float
    t_forward_seconds: float
    stage_seconds: dict[int, float] = field(default_factory=dict)
    load_seconds: dict[int, float] = field(default_factory=dict)
    reload_seconds_per_inference: float = 0.0


@dataclass
class Assignment:
    device_count: int
    tasks: dict[int, Task]                  # device -> task; absent = idle spare
    edges: list[Edge]
    predicted: Predicted
    notes: list[str] = field(default_factory=list)


@dataclass
class AssignmentSet:
    graph: ir.ModelGraph
    device: DeviceProfile
    comm: CommModel
    overhead_factor: float
    assignments: dict[int, Assignment]

    def for_devices(self, n: int) -> Assignment:
        if n not in self.assignments:
            raise PlanError(f"the plan covers {sorted(self.assignments)} devices, not {n}")
        return self.assignments[n]

    def to_json(self) -> str:
        doc = {
            "model": json.loads(self.graph.to_json()),
            "device": asdict(self.device),
            "comm": asdict(self.comm),
            "overhead_factor": self.overhead_factor,
            "assignments": {
                str(n): {
                    "device_count": a.device_count,
                    "notes": a.notes,
                    "predicted": asdict(a.predicted),
                    "edges": [asdict(e) for e in a.edges],
                    "tasks": [asdict(t) for t in a.tasks.values()],
                }
                for n, a in sorted(self.assignments.items())
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "AssignmentSet":
        doc = json.loads(text)
        graph = ir.ModelGraph.from_json(json.dumps(doc["model"]))
        device = costs.device_from_dict(doc["device"])
        comm = CommModel(**doc["comm"])
        assignments = {}
        for key, entry in doc["assignments"].items():
            tasks = {}
            for t in entry["tasks"]:
                split = ModelSplitInfo(**{**t["split"], "rows": tuple(t["split"]["rows"])}) if t["split"] else None
                replica = DataReplicaInfo(**t["replica"]) if t["replica"] else None
                task = Task(
                    task_id=t["task_id"],
                    device=t["device"],
                    layers=tuple(t["layers"]),
                    split=split,
                    replica=replica,
                    resident_groups=tuple(tuple(g) for g in t["resident_groups"]),
                    window_specs=tuple((w[0], w[1]) for w in t["window_specs"]),
                )
                tasks[task.device] = task
            pred = entry["predicted"]
            predicted = Predicted(
                ips=pred["ips"],
                t_forward_seconds=pred["t_forward_seconds"],
                stage_seconds={int(k): v for k, v in pred["stage_seconds"].items()},
                load_seconds={int(k): v for k, v in pred["load_seconds"].items()},
                reload_seconds_per_inference=pred["reload_seconds_per_inference"],
            )
            assignments[int(key)] = Assignment(
                device_count=entry["device_count"],
                tasks=tasks,
                edges=[Edge(**e) for e in entry["edges"]],
                predicted=predicted,
                notes=list(entry.get("notes", [])),
            )
        return AssignmentSet(graph, device, comm, doc["overhead_factor"], assignments)


# -- stage 1: atomic groups ----------------------------------------------


def model_to_layers(graph: ir.ModelGraph) -> list[list[str]]:
    """Fold the graph into topologically ordered atomic layer groups."""
    group_of: dict[str, int] = {}
    groups: list[list[str]] = []

    def new_group(name) -> int:
        groups.append([name])
        group_of[name] = len(groups) - 1
        return group_of[name]

    def join(name, gid):
        groups[gid].append(name)
        group_of[name] = gid

    for name in graph.topo_order:
        spec = graph.layer(name)
        if spec.kind == ir.SOURCE:
            new_group(name)
        elif spec.kind == ir.FLOWSTACK:
            gid = group_of[spec.inputs[0]]
            if any(graph.layer(m).kind == ir.SOURCE for m in groups[gid]):
                join(name, gid)  # flow is computed on the recording device
            else:
                new_group(name)
        elif spec.kind in ir.GLUE_KINDS or spec.kind == ir.SINK:
            join(name, group_of[spec.inputs[0]])
        elif spec.kind == ir.CONCAT:
            in_gids = sorted({group_of[i] for i in spec.inputs})
            if all(any(graph.layer(m).kind == ir.PYRAMID for m in groups[g]) for g in in_gids):
                keep = in_gids[0]
                for g in in_gids[1:]:
                    for m in groups[g]:
                        group_of[m] = keep
                    groups[keep].extend(groups[g])
                    groups[g] = []
                join(name, keep)
            else:
                new_group(name)
        else:
            new_group(name)

    return [g for g in groups if g]


def _group_graph(graph: ir.ModelGraph, groups: list[list[str]]):
    gid_of = {name: i for i, g in enumerate(groups) for name in g}
    preds: dict[int, set[int]] = {i: set() for i in range(len(groups))}
    succs: dict[int, set[int]] = {i: set() for i in range(len(groups))}
    for i, g in enumerate(groups):
        for name in g:
            for inp in graph.layer(name).inputs:
                j = gid_of[inp]
                if j != i:
                    preds[i].add(j)
                    succs[j].add(i)
    return preds, succs


# -- stage 2: minimum task set --------------------------------------------


def find_min_load_tasks(graph: ir.ModelGraph, groups: list[list[str]],
                        mem_bytes: int, overhead_factor: float = 2.0) -> list[list[str]]:
    """Merge groups along single-consumer chains while memory allows.

    Returns the resulting task list (each a list of layer names) in
    topological order.  Raises PlanError when a single atomic group
    exceeds the memory budget.
    """
    terms = [costs.memory_terms(graph, g) for g in groups]
    for g, (weights, peak) in zip(groups, terms):
        need = costs.resident_bytes(weights, peak, overhead_factor)
        if need > mem_bytes:
            raise PlanError(
                f"atomic group {g[0]!r} needs {need} bytes, exceeding device memory {mem_bytes}"
            )
    preds, succs = _group_graph(graph, groups)
    assigned: set[int] = set()
    tasks: list[list[str]] = []
    for i in range(len(groups)):
        if i in assigned:
            continue
        member_gids = {i}
        layers = list(groups[i])
        weights, peak = terms[i]
        assigned.add(i)
        tail = i
        while True:
            nxt = succs[tail]
            if len(nxt) != 1:
                break
            (c,) = nxt
            if c in assigned or not preds[c] <= member_gids:
                break
            merged = (weights + terms[c][0], max(peak, terms[c][1]))
            if costs.resident_bytes(*merged, overhead_factor) > mem_bytes:
                break
            weights, peak = merged
            layers.extend(groups[c])
            member_gids.add(c)
            assigned.add(c)
            tail = c
        tasks.append(layers)
    return tasks


# -- working representation for stages 3 and 4 ----------------------------


@dataclass(frozen=True)
class _Work:
    """Planning view of one pipeline stage.

    A value, like the tuple of works that makes a state, so that the
    costs below can be memoised on the works and states they depend on.
    The hash is computed once, as states are hashed on every lookup.
    """

    layers: tuple[str, ...]
    order: int
    split: Optional[ModelSplitInfo] = None
    replicas: int = 1
    resident_groups: tuple[tuple[str, ...], ...] = ()
    reload_seconds: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.layers, self.order, self.split, self.replicas,
                                                self.resident_groups, self.reload_seconds)))

    def __hash__(self):
        return self._hash

    def stateless(self, graph: ir.ModelGraph) -> bool:
        return all(graph.layer(n).kind not in ir.WINDOWED_KINDS for n in self.layers)


class _Costs:
    """The fixed inputs of one planning call and its memo tables.

    Each table maps a key to a pure function of that key and of the
    fixed inputs, so a hit returns the very float that the first
    evaluation computed, and the plan cannot depend on what was
    memoised.  Every call makes its own instance and drops it on
    return.
    """

    def __init__(self, graph: ir.ModelGraph, device: DeviceProfile, comm: CommModel,
                 tasks: tuple[tuple[str, ...], ...], mem_bytes: int, overhead_factor: float):
        self.graph = graph
        self.device = device
        self.comm = comm
        self.tasks = tasks                  # stage-2 tasks, which bucket spans index
        self.task_memory = tuple(costs.memory_terms(graph, t) for t in tasks)
        self.mem_bytes = mem_bytes
        self.overhead_factor = overhead_factor
        self.price: dict[tuple, costs.TaskPrice] = {}
        self.reads: dict[tuple, dict[str, int]] = {}
        self.stage: dict[tuple, tuple[float, tuple[tuple[str, int], ...]]] = {}
        self.bucket: dict[tuple[int, int], _Work] = {}
        self.scored: dict[tuple[_Work, ...], _Scored] = {}
        self.candidates: dict[tuple[_Work, ...], list[Candidate]] = {}


def _splits(state: tuple[_Work, ...]) -> tuple[ModelSplitInfo, ...]:
    return tuple(w.split for w in state if w.split is not None)


def _price(c: _Costs, work: _Work) -> costs.TaskPrice:
    """The work's ``costs.price_task``, as a worker running it prices it."""
    groups = work.resident_groups or (work.layers,)
    key = (groups, work.split)
    price = c.price.get(key)
    if price is None:
        part = (work.split.origin, *work.split.rows) if work.split else None
        price = c.price[key] = costs.price_task(c.graph, groups, c.device, part)
    return price


def _reads(c: _Costs, work: _Work) -> dict[str, int]:
    """Each value the work reads from another stage, with its full
    payload bytes, in first-read order.  A shard reads its own terminal
    too, as its consumers assemble it from every shard."""
    key = (work.layers, work.split)
    reads = c.reads.get(key)
    if reads is None:
        graph = c.graph
        owned = set(work.layers)
        reads = c.reads[key] = {}
        for n in work.layers:
            for inp in graph.layer(n).inputs:
                if inp in owned and not (work.split and inp == work.split.terminal):
                    continue
                if inp not in reads:
                    reads[inp] = graph.shapes[inp].size * BYTES_PER_VALUE
    return reads


def _stage(c: _Costs, work: _Work, splits: tuple[ModelSplitInfo, ...]
           ) -> tuple[float, tuple[tuple[str, int], ...]]:
    """Per-item seconds of one device of this stage, and its inbound
    edges as (value name, payload bytes).

    ``splits`` holds the shard info of every sharded stage in the
    state.  Only the shards whose terminal the work reads change its
    edges, so the memo is keyed on those; replicas change neither value.
    """
    reads = _reads(c, work)
    shards = tuple(s for s in splits if s.terminal in reads) if splits else ()
    key = (work.layers, work.split, work.resident_groups, work.reload_seconds, shards)
    hit = c.stage.get(key)
    if hit is None:
        by_terminal: dict[str, list[ModelSplitInfo]] = {}
        for s in shards:
            by_terminal.setdefault(s.terminal, []).append(s)
        edges: list[tuple[str, int]] = []
        for name, nbytes in reads.items():
            parts = by_terminal.get(name)
            if parts:
                for p in sorted(parts, key=lambda s: s.index):
                    if work.split is not None and p == work.split:
                        continue  # own shard is local
                    lo, hi = p.rows
                    edges.append((name, (hi - lo) * BYTES_PER_VALUE))
            else:
                edges.append((name, nbytes))
        t = _price(c, work).compute_seconds() + work.reload_seconds
        for _, nbytes in edges:
            t += comm_latency(nbytes, c.comm)
        hit = c.stage[key] = (t, tuple(edges))
    return hit


class _Scored:
    """One state's stage seconds and inbound edges, priced once.

    ``effective`` divides each stage by its replicas; the pipeline bound
    is one over its maximum.  ``t_forward``, the critical-path latency,
    is computed on first use, as most split trials never need it.
    """

    def __init__(self, c: _Costs, state: tuple[_Work, ...]):
        splits = _splits(state)
        priced = [_stage(c, w, splits) for w in state]
        self.state = state
        self.stages = tuple(t for t, _ in priced)
        self.inbound = tuple(edges for _, edges in priced)
        self.effective = tuple(t / w.replicas for t, w in zip(self.stages, state))
        self.bottleneck = max(self.effective)

    @functools.cached_property
    def t_forward(self) -> float:
        produced = {}
        for i, w in enumerate(self.state):
            for n in w.layers:
                produced.setdefault(n, i)
            if w.split is not None:
                produced[w.split.terminal] = i
        longest: dict[int, float] = {}
        for i, stage in enumerate(self.stages):  # state holds topological stage order
            best_in = 0.0
            for name, _ in self.inbound[i]:
                j = produced.get(name)
                if j is not None and j != i and j in longest:
                    best_in = max(best_in, longest[j])
            longest[i] = best_in + stage
        return max(longest.values())


def _score(c: _Costs, state: tuple[_Work, ...]) -> _Scored:
    scored = c.scored.get(state)
    if scored is None:
        scored = c.scored[state] = _Scored(c, state)
    return scored


# -- stage 3: fewer devices than tasks ------------------------------------


def _compositions(n_items: int, n_buckets: int):
    for cuts in itertools.combinations(range(1, n_items), n_buckets - 1):
        bounds = (0,) + cuts + (n_items,)
        yield [(bounds[i], bounds[i + 1]) for i in range(n_buckets)]


def _bucketize(c: _Costs, span: tuple[int, int]) -> _Work:
    """Build one bucket work item from c.tasks[span[0]:span[1]]."""
    work = c.bucket.get(span)
    if work is not None:
        return work
    members = c.tasks[span[0]:span[1]]
    terms = c.task_memory[span[0]:span[1]]
    layers = tuple(n for t in members for n in t)

    def fits(weights, peak):
        return costs.resident_bytes(weights, peak, c.overhead_factor) <= c.mem_bytes

    if fits(sum(w for w, _ in terms), max(p for _, p in terms)):
        work = _Work(layers=layers, order=span[0], resident_groups=(layers,))
    else:
        # Reloading bucket: pack member tasks into consecutive resident
        # subsets, each fitting memory; every inference pays each
        # subset's load time.
        subsets: list[tuple[str, ...]] = []
        cur: tuple[str, ...] = ()
        cur_weights = cur_peak = 0
        for t, (weights, peak) in zip(members, terms):
            if cur and not fits(cur_weights + weights, max(cur_peak, peak)):
                subsets.append(cur)
                cur, cur_weights, cur_peak = t, weights, peak
            else:
                cur += t
                cur_weights, cur_peak = cur_weights + weights, max(cur_peak, peak)
        if cur:
            subsets.append(cur)
        work = _Work(layers=layers, order=span[0], resident_groups=tuple(subsets))
        work = replace(work, reload_seconds=sum(_price(c, work).load_seconds))
    c.bucket[span] = work
    return work


def _pack(c: _Costs, n: int) -> tuple[_Work, ...]:
    """Pack the |c.tasks| > n stage-2 tasks into n contiguous buckets.

    Exhaustive over contiguous compositions up to MAX_EXHAUSTIVE_TASKS
    tasks, else greedy pairwise merging; the objective minimizes total
    per-inference reload seconds, then the bottleneck stage, then the
    sum of stage seconds (not the critical path: on a branching graph
    the two differ).
    """

    def evaluate(spans):
        works = tuple(_bucketize(c, s) for s in spans)
        reload_total = sum(w.reload_seconds for w in works)
        stages = [_stage(c, w, ())[0] for w in works]
        return (reload_total, max(stages), sum(stages)), works

    if len(c.tasks) <= MAX_EXHAUSTIVE_TASKS:
        return min(map(evaluate, _compositions(len(c.tasks), n)), key=lambda m: m[0])[1]
    spans = [(i, i + 1) for i in range(len(c.tasks))]
    while len(spans) > n:
        candidates = []
        for i in range(len(spans) - 1):
            merged = spans[:i] + [(spans[i][0], spans[i + 1][1])] + spans[i + 2:]
            key, works = evaluate(merged)
            candidates.append((key, merged, works))
        _key, spans, works = min(candidates, key=lambda m: m[0])
    return works


# -- stage 4: more devices than tasks --------------------------------------


@dataclass
class Candidate:
    kind: str                   # "data_replica" | "model_split"
    target: int                 # index into state
    extra_devices: int
    delta_ips_per_device: float
    t_forward_new: float
    target_stage: float
    order: int
    trial: Optional[tuple[_Work, ...]] = field(default=None, repr=False, compare=False)


def split_fc_rows(out_size: int, k: int) -> list[tuple[int, int]]:
    """Row ranges of a balanced k-way output shard: parts differ by at
    most one row, and earlier parts take the extra rows."""
    if k < 1 or k > out_size:
        raise PlanError(f"cannot split {out_size} outputs {k} ways")
    base, extra = divmod(out_size, k)
    rows = []
    lo = 0
    for p in range(k):
        hi = lo + base + (p < extra)
        rows.append((lo, hi))
        lo = hi
    return rows


def _with_replica(state: tuple[_Work, ...], idx: int) -> tuple[_Work, ...]:
    """The state with one more round-robin replica of state[idx]."""
    work = replace(state[idx], replicas=state[idx].replicas + 1)
    return state[:idx] + (work,) + state[idx + 1:]


def _apply_model_split(graph: ir.ModelGraph, state: tuple[_Work, ...], idx: int, fc: str,
                       k: int = 2) -> Optional[tuple[_Work, ...]]:
    """Shard ``fc`` of state[idx], an unsplit stage with one replica, k
    ways; returns the new state, or None when fc has fewer than k rows.

    The shard tasks own the fc plus its elementwise glue; upstream
    layers stay behind as a prefix stage and any downstream remainder
    rides with the last shard (assembling its input from all shards).
    """
    work = state[idx]
    owned = set(work.layers)
    local = costs.row_local_layers(graph, owned, fc)
    terminal = local[-1]
    part_set = set(local)
    ancestors = set()
    frontier = [i for i in graph.layer(fc).inputs]
    while frontier:
        a = frontier.pop()
        if a in owned and a not in ancestors:
            ancestors.add(a)
            frontier.extend(graph.layer(a).inputs)
    suffix = tuple(n for n in work.layers if n not in part_set and n not in ancestors)
    prefix = tuple(n for n in work.layers if n in ancestors)
    out_size = graph.shapes[fc].size
    if out_size < k:
        return None
    rows = split_fc_rows(out_size, k)

    new_state = [w for i, w in enumerate(state) if i != idx]
    insert_at = idx
    if prefix:
        new_state.insert(insert_at, _Work(layers=prefix, order=work.order))
        insert_at += 1
    for p in range(k):
        layers = (*local, *(suffix if p == k - 1 else ()))
        info = ModelSplitInfo(origin=fc, terminal=terminal, index=p, count=k, rows=rows[p])
        new_state.insert(insert_at, _Work(layers=layers, order=work.order, split=info))
        insert_at += 1
    return tuple(new_state)


def _bottleneck_elsewhere(c: _Costs, state: tuple[_Work, ...], scored: _Scored, idx: int) -> bool:
    """Whether a stage that neither is nor reads state[idx] sets the
    bottleneck.  A split of state[idx] re-prices only itself and its
    readers, so it then cannot lower the bottleneck: its relative gain
    is at most zero, short of the positive MIN_SPLIT_GAIN."""
    owned = set(state[idx].layers)
    return any(e == scored.bottleneck and owned.isdisjoint(_reads(c, state[j]))
               for j, e in enumerate(scored.effective) if j != idx)


def model_vs_data(c: _Costs, state: tuple[_Work, ...], idx: int) -> list[Candidate]:
    """Candidate parallelizations of one stage with their predicted merit."""
    graph = c.graph
    work = state[idx]
    scored = _score(c, state)
    old_bneck = scored.bottleneck
    old_eff = scored.effective[idx]
    out: list[Candidate] = []

    # Replication duplicates a whole task round-robin; shard tasks are
    # excluded (each shard must see every tag to recombine).  A replica
    # changes only its own stage's effective seconds, and neither stage
    # seconds nor edges, so t_forward stays the state's own.
    if work.stateless(graph) and work.split is None:
        effective = list(scored.effective)
        effective[idx] = scored.stages[idx] / (work.replicas + 1)
        new_bneck = max(effective)
        delta = (1.0 / new_bneck - 1.0 / old_bneck)
        out.append(Candidate(
            kind="data_replica", target=idx, extra_devices=1,
            delta_ips_per_device=delta, t_forward_new=scored.t_forward,
            target_stage=old_eff, order=work.order,
        ))

    fcs = [n for n in work.layers if graph.layer(n).kind == ir.FC]
    if fcs and work.split is None and work.replicas == 1 \
            and not _bottleneck_elsewhere(c, state, scored, idx):
        for fc in fcs:
            trial = _apply_model_split(graph, state, idx, fc, k=2)
            if trial is None:
                continue
            extra = len(trial) - len(state)
            trial_scored = _score(c, trial)
            new_bneck = trial_scored.bottleneck
            rel = (old_bneck - new_bneck) / old_bneck
            if rel < MIN_SPLIT_GAIN:
                continue
            out.append(Candidate(
                kind="model_split", target=idx, extra_devices=extra,
                delta_ips_per_device=(1.0 / new_bneck - 1.0 / old_bneck) / extra,
                t_forward_new=trial_scored.t_forward, target_stage=old_eff, order=work.order,
                trial=trial,
            ))
    return out


def _candidates(c: _Costs, state: tuple[_Work, ...]) -> list[Candidate]:
    """Every stage's candidates, scored once per state.

    No candidate depends on the device budget (``choose_best`` filters
    on it), so the greedy for n + 1 devices reuses each state that the
    greedy for n scored.
    """
    cands = c.candidates.get(state)
    if cands is None:
        cands = c.candidates[state] = [cand for i in range(len(state))
                                       for cand in model_vs_data(c, state, i)]
    return cands


def choose_best(candidates: list[Candidate], budget: int) -> Optional[Candidate]:
    """Pick the best feasible candidate.

    Ranking: predicted IPS improvement per added device first; equal
    gains prefer the lower resulting end-to-end latency (throughput up,
    latency kept in range), then the slowest target stage (load
    balancing), then fewer added devices, then earliest pipeline
    position.
    """
    feasible = [c for c in candidates
                if c.extra_devices <= budget
                and (c.kind != "data_replica" or c.delta_ips_per_device >= 0)]
    if not feasible:
        return None
    return min(feasible, key=lambda c: (-c.delta_ips_per_device, c.t_forward_new,
                                        -c.target_stage, c.extra_devices, c.order))


# -- assembly ---------------------------------------------------------------


def _window_specs(graph: ir.ModelGraph, layers: Iterable[str]) -> tuple[tuple[str, int], ...]:
    specs = []
    for n in layers:
        spec = graph.layer(n)
        if spec.kind in ir.WINDOWED_KINDS:
            specs.append((spec.inputs[0], spec.window))
    return tuple(specs)


def _materialize(c: _Costs, state: tuple[_Work, ...], n: int, notes: list[str]) -> Assignment:
    graph = c.graph
    scored = _score(c, state)
    tasks: dict[int, Task] = {}
    dev = 0
    work_devices: dict[int, list[int]] = {}
    for i, w in enumerate(state):
        ids = []
        split = w.split
        resident_groups = w.resident_groups or (w.layers,)
        window_specs = _window_specs(graph, w.layers)
        for r in range(w.replicas):
            replica = DataReplicaInfo(group=f"g{i}", index=r, count=w.replicas) if w.replicas > 1 else None
            tid = f"t{i}" + (f".p{split.index}" if split else "") + (f".r{r}" if w.replicas > 1 else "")
            tasks[dev] = Task(
                task_id=tid, device=dev, layers=w.layers, split=split,
                replica=replica, resident_groups=resident_groups, window_specs=window_specs,
            )
            ids.append(dev)
            dev += 1
        work_devices[i] = ids

    # Edges: for each stage, every inbound boundary value from every
    # producing device (all shards, all replicas).
    produced_by: dict[str, list[int]] = {}
    for i, w in enumerate(state):
        for name in w.layers:
            produced_by.setdefault(name, [])
            produced_by[name].extend(work_devices[i])
    edges: list[Edge] = []
    seen = set()
    for i, inbound in enumerate(scored.inbound):
        for name, _ in inbound:
            for src in sorted(set(produced_by.get(name, []))):
                for dst in work_devices[i]:
                    if src != dst and (src, dst, name) not in seen:
                        seen.add((src, dst, name))
                        edges.append(Edge(src, dst, name))

    stage_map = {}
    load_map = {}
    for i, w in enumerate(state):
        load = sum(_price(c, w).load_seconds)
        for d in work_devices[i]:
            stage_map[d] = scored.stages[i]
            load_map[d] = load
    reload_total = sum(w.reload_seconds for w in state)
    predicted = Predicted(ips=1.0 / scored.bottleneck, t_forward_seconds=scored.t_forward,
                          stage_seconds=stage_map, load_seconds=load_map,
                          reload_seconds_per_inference=reload_total)
    return Assignment(device_count=n, tasks=tasks, edges=edges, predicted=predicted,
                      notes=list(notes))


def task_assign(graph: ir.ModelGraph, n_max: int,
                comm: Optional[CommModel] = None,
                device: Optional[DeviceProfile] = None,
                overhead_factor: float = 2.0) -> AssignmentSet:
    """Plan assignments for every device count 1..n_max.

    Each pure cost is computed once per call and memoised in a
    ``_Costs`` that the call drops on return.
    """
    if n_max < 1:
        raise PlanError("n_max must be >= 1")
    comm = comm or CommModel()
    device = device or DeviceProfile()
    groups = model_to_layers(graph)
    base = tuple(tuple(t) for t in
                 find_min_load_tasks(graph, groups, device.mem_bytes, overhead_factor))
    c = _Costs(graph, device, comm, base, device.mem_bytes, overhead_factor)
    whole = tuple(_Work(layers=t, order=i, resident_groups=(t,)) for i, t in enumerate(base))

    assignments = {}
    for n in range(1, n_max + 1):
        notes: list[str] = []
        state = whole
        if len(base) > n:
            state = _pack(c, n)
            if any(len(w.resident_groups) > 1 for w in state):
                notes.append(
                    "reload cycling required at full accuracy; a reduced dense "
                    "variant (see build_model dense_scale) would avoid it"
                )
        used = len(state)
        while used < n:
            budget = n - used
            pick = choose_best(_candidates(c, state), budget)
            if pick is None:
                notes.append(f"no beneficial split for {n - used} remaining device(s); left idle")
                break
            if pick.kind == "data_replica":
                state = _with_replica(state, pick.target)
            else:
                state = pick.trial
            used = sum(w.replicas for w in state)
        assignments[n] = _materialize(c, state, n, notes)
    return AssignmentSet(graph, device, comm, overhead_factor, assignments)


def render_plan(aset: AssignmentSet, n_values: Optional[Iterable[int]] = None) -> str:
    """Human-readable per-device architecture table."""
    lines = []
    for n in sorted(n_values or aset.assignments):
        a = aset.assignments[n]
        lines.append(f"=== {n} device(s): predicted {a.predicted.ips:.3f} inf/s, "
                     f"t_forward {a.predicted.t_forward_seconds:.3f} s ===")
        for d in range(a.device_count):
            task = a.tasks.get(d)
            if task is None:
                lines.append(f"  device {d:2d}: (idle spare)")
                continue
            mode = ""
            if task.split:
                lo, hi = task.split.rows
                mode = f"  [shard {task.split.index + 1}/{task.split.count} of {task.split.origin}: rows {lo}:{hi}]"
            if task.replica:
                mode += f"  [replica {task.replica.index + 1}/{task.replica.count}]"
            if task.reloads:
                mode += f"  [reloads {len(task.resident_groups)} groups/inference]"
            lines.append(f"  device {d:2d}: {', '.join(task.layers)}{mode}")
        for note in a.notes:
            lines.append(f"  note: {note}")
    return "\n".join(lines)
