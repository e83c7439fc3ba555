"""Fault-scenario generators: adversarial FAIL programs from a seed.

The paper's six listings probe six hand-picked fault patterns; this
module *generates* them.  Every generator family turns a seeded
``random.Random`` into a :class:`FaultPlan` — a small, shrinkable IR of
injection steps — and :func:`render_plan` compiles any plan into a
complete two-daemon FAIL scenario (a master adversary ``XADV`` plus a
per-machine daemon ``XNODE``) through the construction API of
:mod:`repro.fail.build`.  The rendered *source text* is the scenario's
canonical form: it feeds the ordinary compile → interpret pipeline and
the trial cache key, and the pretty-printer round-trip property
guarantees it parses back to the same program.

Plan steps
----------

:class:`TimedKill`
    At absolute time ``at``, order ``crash`` to machine ``target``.
:class:`RekillRace`
    Wait until a previously-killed machine reports its recovery
    relaunch, then immediately kill ``target`` — the restart-then-
    rekill race of Figs. 8/9.
:class:`KillReporter`
    Wait for a recovery report and kill *whichever machine sent it*
    (``FAIL_SENDER``) — the fault-during-recovery pattern.
:class:`TimedPartition`
    At absolute time ``at``, cut a machine group (and optionally
    service nodes) off the network fabric — the partition-class fault
    no paper scenario expresses.  Isolation accumulates, so a
    neighborhood cut in one step stays internally connected.
:class:`Heal`
    ``after`` seconds later, restore every cut link.  ``after == 0``
    folds the heal into the partition's own transition, which lands
    *before* the severance notification (one network latency) — the
    failure detector never fires, probing the false-suspicion race.

Steps execute strictly in sequence: a timed kill arms its timer only
after the previous step's acknowledgement (``ok`` — fault injected —
or ``no`` — nothing ran there, a no-op fault), exactly how the paper's
masters chain injections.  Partition/heal steps need no ack — the
master executes them locally and moves on.

Families (``FAMILIES``)
-----------------------

``random_schedule``
    2–``MAX_FAULTS`` kills at random times/targets — the baseline sweep.
``burst``
    One batch of back-to-back kills at a single instant (Fig. 7's
    regime, with randomized batch size, time and victims).
``targeted``
    Correlated kills: either always rank 0's machine, or the machines
    whose ranks share home Channel Memory 0 (the ``rank %
    n_channel_memories`` neighborhood, which also concentrates load on
    one checkpoint-server pairing).
``rekill_race``
    Kill, await the victim's recovery relaunch, kill again.
``fault_during_recovery``
    Kill, then kill the first machine that reports a recovery wave.
``partition_storm``
    Timed partitions isolating CM/checkpoint-server neighborhoods
    (the machines of the ranks homed on one Channel Memory, a single
    machine, or a checkpoint-server service node), healed before or
    after the socket-closure failure detector fires — or never.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.fail import build as fb

#: generated daemon names (bound via TrialSetup.master_daemon / node_daemon)
MASTER = "XADV"
NODE_DAEMON = "XNODE"

#: absolute-time window for timed kills (integer seconds)
WINDOW = (10, 80)
#: most kills any one scenario may plan
MAX_FAULTS = 4


@dataclass(frozen=True)
class TimedKill:
    at: int              # absolute injection time, integer seconds
    target: int          # machine index in the G1 group


@dataclass(frozen=True)
class RekillRace:
    target: int


@dataclass(frozen=True)
class KillReporter:
    pass


@dataclass(frozen=True)
class TimedPartition:
    at: int                        # absolute injection time, seconds
    targets: Tuple[int, ...]       # machine indices isolated together
    #: service-node names isolated with them (e.g. ``("svc2",)``)
    services: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Heal:
    after: int                     # seconds after the previous step


Step = Union[TimedKill, RekillRace, KillReporter, TimedPartition, Heal]
FaultPlan = Tuple[Step, ...]


def kill_steps(plan: FaultPlan) -> List[Step]:
    """The process-killing steps of a plan."""
    return [s for s in plan
            if isinstance(s, (TimedKill, RekillRace, KillReporter))]


def partition_steps(plan: FaultPlan) -> List["TimedPartition"]:
    return [s for s in plan if isinstance(s, TimedPartition)]


def has_unhealed_partition(plan: FaultPlan) -> bool:
    """Does any partition survive to the end of the plan?

    Each :class:`Heal` restores *every* cut, so only partitions after
    the last heal stay active.  A surviving cut of *any* kind can
    legitimately block the run: a compute cut stops the application
    itself, and a service cut (e.g. a checkpoint server) strands any
    recovery that must fetch state across the dead link.
    """
    unhealed = False
    for step in plan:
        if isinstance(step, TimedPartition):
            unhealed = True
        elif isinstance(step, Heal):
            unhealed = False
    return unhealed


def plan_digest(plan: FaultPlan, n_machines: int) -> str:
    """Short stable digest of a plan (guided-scenario and corpus ids)."""
    text = f"{n_machines}|" + "|".join(map(repr, plan))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def plan_to_doc(plan: FaultPlan) -> List[Dict[str, object]]:
    """JSON-safe document form of a plan (corpus persistence)."""
    doc: List[Dict[str, object]] = []
    for step in plan:
        if isinstance(step, TimedKill):
            doc.append({"step": "kill", "at": step.at,
                        "target": step.target})
        elif isinstance(step, RekillRace):
            doc.append({"step": "rekill", "target": step.target})
        elif isinstance(step, KillReporter):
            doc.append({"step": "kill_reporter"})
        elif isinstance(step, TimedPartition):
            doc.append({"step": "partition", "at": step.at,
                        "targets": list(step.targets),
                        "services": list(step.services)})
        elif isinstance(step, Heal):
            doc.append({"step": "heal", "after": step.after})
        else:  # pragma: no cover - Step union is closed
            raise TypeError(f"unknown plan step {step!r}")
    return doc


def plan_from_doc(doc: Sequence[Dict[str, object]]) -> FaultPlan:
    """Inverse of :func:`plan_to_doc`."""
    steps: List[Step] = []
    for entry in doc:
        kind = entry["step"]
        if kind == "kill":
            steps.append(TimedKill(at=int(entry["at"]),
                                   target=int(entry["target"])))
        elif kind == "rekill":
            steps.append(RekillRace(target=int(entry["target"])))
        elif kind == "kill_reporter":
            steps.append(KillReporter())
        elif kind == "partition":
            steps.append(TimedPartition(
                at=int(entry["at"]),
                targets=tuple(int(t) for t in entry["targets"]),
                services=tuple(str(s) for s in entry["services"])))
        elif kind == "heal":
            steps.append(Heal(after=int(entry["after"])))
        else:
            raise ValueError(f"unknown plan-step kind {kind!r}")
    return tuple(steps)


# ---------------------------------------------------------------------------
# plan -> FAIL source
# ---------------------------------------------------------------------------

def _node_daemon():
    """The generated per-machine daemon.

    Like Fig. 4's ``ADV2`` (control the local process, ack crash
    orders) plus one extension: a machine that was *killed* reports its
    recovery relaunch to the master (``waveok``), which is what the
    reactive plan steps synchronize on.  Exactly one report per kill,
    for every protocol — single-rank restarts reload only the victim.
    """
    P1 = fb.computer("P1")
    return fb.daemon(
        NODE_DAEMON,
        fb.node(
            1,
            fb.when(fb.ONLOAD, fb.CONTINUE, fb.goto(2)),
            fb.when(fb.on_msg("crash"), fb.send("no", P1), fb.goto(1)),
        ),
        fb.node(
            2,
            fb.when(fb.ONEXIT, fb.goto(1)),
            fb.when(fb.ONERROR, fb.goto(1)),
            fb.when(fb.ONLOAD, fb.CONTINUE, fb.goto(2)),
            fb.when(fb.on_msg("crash"), fb.send("ok", P1), fb.HALT,
                    fb.goto(3)),
        ),
        fb.node(
            3,
            fb.when(fb.ONLOAD, fb.send("waveok", P1), fb.CONTINUE,
                    fb.goto(2)),
            fb.when(fb.on_msg("crash"), fb.send("no", P1), fb.goto(3)),
        ),
    )


def _master_daemon(plan: FaultPlan):
    """Compile a plan into the sequential master adversary.

    Kill steps chain through the node daemons' ``ok``/``no`` acks;
    partition and heal steps execute locally at the master and advance
    directly.  A :class:`Heal` with ``after == 0`` immediately after a
    partition folds into the *same* transition: the heal lands before
    the severance notification (one network latency), so the failure
    detector never observes the cut.
    """
    nodes = []
    cursor = 0
    next_id = 1
    i = 0
    while i < len(plan):
        step = plan[i]
        if isinstance(step, (TimedPartition, Heal)):
            trigger_id, after_id = next_id, next_id + 1
            if isinstance(step, TimedPartition):
                delta = max(0, step.at - cursor)
                cursor = max(cursor, step.at)
                actions = [fb.partition(fb.group("G1", t))
                           for t in step.targets]
                actions += [fb.partition(fb.computer(svc))
                            for svc in step.services]
                if i + 1 < len(plan) and isinstance(plan[i + 1], Heal) \
                        and plan[i + 1].after == 0:
                    actions.append(fb.HEAL)   # heal-before-detection race
                    i += 1
            else:
                delta = max(0, step.after)
                cursor += delta
                actions = [fb.HEAL]
            nodes.append(fb.node(
                trigger_id,
                fb.when(fb.TIMER, *actions, fb.goto(after_id)),
                timers=[fb.timer(delta)],
            ))
            next_id = after_id
            i += 1
            continue
        trigger_id, ack_id, after_id = next_id, next_id + 1, next_id + 2
        if isinstance(step, TimedKill):
            delta = max(0, step.at - cursor)
            cursor = max(cursor, step.at)
            nodes.append(fb.node(
                trigger_id,
                fb.when(fb.TIMER, fb.crash(fb.group("G1", step.target)),
                        fb.goto(ack_id)),
                timers=[fb.timer(delta)],
            ))
        elif isinstance(step, RekillRace):
            nodes.append(fb.node(
                trigger_id,
                fb.when(fb.on_msg("waveok"),
                        fb.crash(fb.group("G1", step.target)),
                        fb.goto(ack_id)),
            ))
        elif isinstance(step, KillReporter):
            nodes.append(fb.node(
                trigger_id,
                fb.when(fb.on_msg("waveok"), fb.crash(fb.SENDER),
                        fb.goto(ack_id)),
            ))
        else:  # pragma: no cover - plan construction precludes this
            raise TypeError(f"unknown plan step {step!r}")
        nodes.append(fb.node(
            ack_id,
            fb.when(fb.on_msg("ok"), fb.goto(after_id)),
            fb.when(fb.on_msg("no"), fb.goto(after_id)),
        ))
        next_id = after_id
        i += 1
    nodes.append(fb.node(next_id))       # terminal: injection done
    return fb.daemon(MASTER, *nodes)


def render_plan(plan: FaultPlan) -> str:
    """Plan → canonical FAIL source (master + node daemon)."""
    return fb.render(fb.program(_master_daemon(plan), _node_daemon()))


# ---------------------------------------------------------------------------
# generator families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorContext:
    """Shared envelope every family draws inside."""

    n_machines: int
    #: machines that actually host MPI ranks (``n_procs``); targets are
    #: biased here — a kill on an idle spare is a no-op fault.  0 means
    #: "all machines are fair game".
    n_busy: int = 0
    #: CM-neighborhood stride (``n_channel_memories`` of the v1 config)
    cm_stride: int = 2
    #: deployed checkpoint servers (svc2..): partition targets
    n_ckpt_servers: int = 2

    def pick_time(self, rng: random.Random) -> int:
        return rng.randint(*WINDOW)

    def pick_target(self, rng: random.Random) -> int:
        busy = self.n_busy or self.n_machines
        if busy < self.n_machines and rng.random() < 0.125:
            return rng.randrange(self.n_machines)   # occasional spare:
            # exercises the negative-ack path without wasting the trial
        return rng.randrange(busy)


def _gen_random_schedule(rng, ctx) -> Tuple[FaultPlan, str]:
    k = rng.randint(2, MAX_FAULTS)
    times = sorted(ctx.pick_time(rng) for _ in range(k))
    plan = tuple(TimedKill(at=t, target=ctx.pick_target(rng))
                 for t in times)
    return plan, f"{k} kills at random times"


def _gen_burst(rng, ctx) -> Tuple[FaultPlan, str]:
    k = rng.randint(2, MAX_FAULTS)
    at = ctx.pick_time(rng)
    pool = range(ctx.n_busy or ctx.n_machines)
    victims = rng.sample(pool, min(k, len(pool)))
    plan = tuple(TimedKill(at=at, target=v) for v in victims)
    return plan, f"burst of {len(victims)} simultaneous kills at t={at}"


def _gen_targeted(rng, ctx) -> Tuple[FaultPlan, str]:
    k = rng.randint(2, MAX_FAULTS)
    start = ctx.pick_time(rng)
    period = rng.randint(15, 40)
    if rng.random() < 0.5:
        targets = [0] * k                  # always rank 0's machine
        label = "rank 0"
    else:
        # machines of the ranks homed on CM 0: rank % stride == 0
        pool = list(range(0, ctx.n_busy or ctx.n_machines,
                          max(1, ctx.cm_stride)))
        targets = [pool[i % len(pool)] for i in range(k)]
        label = "CM-0 neighborhood"
    plan = tuple(TimedKill(at=start + i * period, target=t)
                 for i, t in enumerate(targets))
    return plan, f"{k} correlated kills on {label} every {period}s"


def _gen_rekill_race(rng, ctx) -> Tuple[FaultPlan, str]:
    first = ctx.pick_target(rng)
    plan: List[Step] = [TimedKill(at=ctx.pick_time(rng), target=first)]
    for _ in range(rng.randint(1, MAX_FAULTS - 1)):
        plan.append(RekillRace(
            target=first if rng.random() < 0.5 else ctx.pick_target(rng)))
    return tuple(plan), f"kill then re-kill on recovery ({len(plan)} steps)"


def _gen_fault_during_recovery(rng, ctx) -> Tuple[FaultPlan, str]:
    plan: List[Step] = [TimedKill(at=ctx.pick_time(rng),
                                  target=ctx.pick_target(rng))]
    for _ in range(rng.randint(1, MAX_FAULTS - 1)):
        plan.append(KillReporter())
    return tuple(plan), f"kill the recovering machine ({len(plan)} steps)"


def _gen_partition_storm(rng, ctx) -> Tuple[FaultPlan, str]:
    """Timed partitions isolating CM/checkpoint-server neighborhoods,
    healed before or after the failure-detection race — or never."""
    busy = ctx.n_busy or ctx.n_machines
    stride = max(1, ctx.cm_stride)
    steps: List[Step] = []
    parts: List[str] = []
    at = ctx.pick_time(rng)
    for _ in range(rng.randint(1, 2)):
        mode = rng.random()
        if mode < 0.4:
            cm = rng.randrange(stride)
            targets = tuple(range(cm, busy, stride)) or (0,)
            services: Tuple[str, ...] = ()
            what = f"CM-{cm} neighborhood"
        elif mode < 0.75:
            targets = (rng.randrange(busy),)
            services = ()
            what = f"machine {targets[0]}"
        else:
            from repro.mpichv.shardmap import ckpt_server_node
            targets = ()
            services = (ckpt_server_node(
                rng.randrange(max(1, ctx.n_ckpt_servers))),)
            what = f"ckpt server {services[0]}"
        steps.append(TimedPartition(at=at, targets=targets,
                                    services=services))
        if rng.random() < 0.85:
            heal_after = 0 if rng.random() < 0.35 else rng.randint(2, 30)
            steps.append(Heal(after=heal_after))
            timing = ("before detection" if heal_after == 0
                      else f"after {heal_after}s")
            parts.append(f"{what} healed {timing}")
        else:
            parts.append(f"{what} never healed")
        at += rng.randint(15, 40)
    if rng.random() < 0.4:
        # storm finale: a real death amid the partition churn — the
        # detector now faces true and false suspicions in one run
        victim = rng.randrange(busy)
        steps.append(TimedKill(at=at, target=victim))
        parts.append(f"then kill machine {victim} at t={at}")
    return tuple(steps), "partition " + "; ".join(parts)


#: family name -> (rng, ctx) -> (plan, description); sorted-name order
#: is the canonical iteration order everywhere in the subsystem
FAMILIES: Dict[str, Callable] = {
    "burst": _gen_burst,
    "fault_during_recovery": _gen_fault_during_recovery,
    "partition_storm": _gen_partition_storm,
    "random_schedule": _gen_random_schedule,
    "rekill_race": _gen_rekill_race,
    "targeted": _gen_targeted,
}


@dataclass(frozen=True)
class GeneratedScenario:
    """One generated adversary, ready to hand to a :class:`TrialSetup`."""

    family: str
    index: int
    plan: Optional[FaultPlan]    # None for a replayed .fail file
    n_machines: int
    source: str                  # rendered FAIL text
    description: str

    @property
    def scenario_id(self) -> str:
        return f"{self.family}[{self.index}]"


def generate(family: str, index: int, seed: int,
             ctx: GeneratorContext) -> GeneratedScenario:
    """Deterministically generate the ``index``-th scenario of a family.

    The family's random stream is seeded from ``(seed, family, index)``
    only — string seeding, hash-stable across processes — so a campaign
    seed pins every scenario byte-for-byte.
    """
    fn = FAMILIES.get(family)
    if fn is None:
        raise ValueError(f"unknown generator family {family!r}; "
                         f"known: {sorted(FAMILIES)}")
    rng = random.Random(f"explore-gen:{seed}:{family}:{index}")
    plan, description = fn(rng, ctx)
    return GeneratedScenario(
        family=family, index=index, plan=plan,
        n_machines=ctx.n_machines, source=render_plan(plan),
        description=description)


def generate_suite(families: Sequence[str], per_family: int, seed: int,
                   ctx: GeneratorContext) -> List[GeneratedScenario]:
    """``per_family`` scenarios for each family, in canonical order."""
    return [generate(family, i, seed, ctx)
            for family in sorted(families)
            for i in range(per_family)]
