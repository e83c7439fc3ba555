"""Plan mutations: the greybox half of coverage-guided exploration.

The seeded generator families (:mod:`repro.explore.generators`) sample
from hand-designed fault patterns; once their coverage saturates, the
guided campaign (:func:`repro.explore.campaign.run_guided`) keeps the
search moving by *mutating* corpus plans that previously lit up novel
coverage — the AFL recipe applied to the fault-plan IR instead of a
byte buffer.

Every operator is a pure function ``(plan, rng, ctx) -> plan-or-None``
(None = not applicable to this plan) drawn from :data:`MUTATORS`:

``shift_time``
    Jitter one timed step's injection instant — moves a kill across
    the checkpoint-wave boundary or a partition across the
    failure-detection race.
``retarget``
    Re-aim one step at another machine, biased toward the busy set and
    the CM-0 neighborhood (``rank % cm_stride == 0``) that the
    targeted family identified as load-bearing.
``heal_race``
    Snap a partition's heal to ``after=0`` — the heal-before-detection
    race — or give a never-healed partition a late heal.  This is the
    operator that walks a plan *out* of the unhealed-partition excuse
    region, where every oracle politely looks away.
``splice``
    Insert a short chunk of a donor plan (another corpus entry or a
    fresh seeded plan): partition churn + a real kill in one schedule
    is exactly the mixed true/false-suspicion regime no single family
    generates on its own.
``add_kill`` / ``drop_step`` / ``duplicate_kill``
    Grow, shrink, or burst-ify the schedule.
``grid_snap``
    Round every injection time to a coarse grid — collapses
    near-coincident steps into genuinely simultaneous ones.

:func:`mutate` composes one or two operators and guarantees the result
passes :func:`valid_plan` (renderable, reactive steps have a kill to
react to, heals have a partition to heal) and differs from the input.
Everything is driven by the caller's ``random.Random``, so the guided
campaign's determinism contract extends through mutation: same seed ⇒
same mutant sequence.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.explore.generators import (MAX_FAULTS, WINDOW, FaultPlan,
                                      GeneratorContext, Heal, KillReporter,
                                      RekillRace, Step, TimedKill,
                                      TimedPartition, kill_steps)

#: schedule-size ceilings: mutation may grow a plan past the seeded
#: families' ``MAX_FAULTS``, but not without bound
MAX_STEPS = 12
EXTRA_FAULTS = 2


def valid_plan(plan: FaultPlan, ctx: GeneratorContext) -> bool:
    """Is this plan renderable and sensible for ``ctx``'s deployment?

    Reactive steps (:class:`RekillRace`, :class:`KillReporter`) block
    on a recovery report, so they need an earlier :class:`TimedKill`
    to ever fire; a :class:`Heal` needs an earlier partition.  Targets
    must exist, times must be non-negative integers inside a bounded
    horizon.
    """
    if not 1 <= len(plan) <= MAX_STEPS:
        return False
    if len(kill_steps(plan)) > MAX_FAULTS + EXTRA_FAULTS:
        return False
    horizon = WINDOW[1] + 120
    saw_kill = saw_partition = False
    for step in plan:
        if isinstance(step, TimedKill):
            if not (0 <= step.at <= horizon
                    and 0 <= step.target < ctx.n_machines):
                return False
            saw_kill = True
        elif isinstance(step, (RekillRace, KillReporter)):
            if not saw_kill:
                return False
            if isinstance(step, RekillRace) \
                    and not 0 <= step.target < ctx.n_machines:
                return False
        elif isinstance(step, TimedPartition):
            if not 0 <= step.at <= horizon:
                return False
            if not step.targets and not step.services:
                return False
            if any(not 0 <= t < ctx.n_machines for t in step.targets):
                return False
            saw_partition = True
        elif isinstance(step, Heal):
            if not saw_partition or step.after < 0:
                return False
        else:  # pragma: no cover - Step union is closed
            return False
    return True


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def _timed_indices(plan: FaultPlan) -> List[int]:
    return [i for i, s in enumerate(plan)
            if isinstance(s, (TimedKill, TimedPartition))]


def _replace_at(plan: FaultPlan, i: int, step: Step) -> FaultPlan:
    return plan[:i] + (step,) + plan[i + 1:]


def _shift_time(plan: FaultPlan, rng: random.Random,
                ctx: GeneratorContext) -> Optional[FaultPlan]:
    candidates = _timed_indices(plan)
    if not candidates:
        return None
    i = rng.choice(candidates)
    step = plan[i]
    delta = rng.choice((-20, -10, -5, -2, 2, 5, 10, 20))
    at = min(max(0, step.at + delta), WINDOW[1] + 60)
    if isinstance(step, TimedKill):
        return _replace_at(plan, i, TimedKill(at=at, target=step.target))
    return _replace_at(plan, i, TimedPartition(
        at=at, targets=step.targets, services=step.services))


def _retarget(plan: FaultPlan, rng: random.Random,
              ctx: GeneratorContext) -> Optional[FaultPlan]:
    candidates = [i for i, s in enumerate(plan)
                  if isinstance(s, (TimedKill, RekillRace, TimedPartition))]
    if not candidates:
        return None
    i = rng.choice(candidates)
    step = plan[i]
    busy = ctx.n_busy or ctx.n_machines
    if isinstance(step, TimedPartition):
        # re-aim the cut at another neighborhood / machine
        stride = max(1, ctx.cm_stride)
        if rng.random() < 0.5:
            cm = rng.randrange(stride)
            targets: Tuple[int, ...] = tuple(range(cm, busy, stride)) or (0,)
        else:
            targets = (rng.randrange(busy),)
        return _replace_at(plan, i, TimedPartition(
            at=step.at, targets=targets, services=step.services))
    if rng.random() < 0.35:        # CM-0 neighborhood bias
        pool = list(range(0, busy, max(1, ctx.cm_stride)))
        target = rng.choice(pool)
    else:
        target = ctx.pick_target(rng)
    if isinstance(step, TimedKill):
        return _replace_at(plan, i, TimedKill(at=step.at, target=target))
    return _replace_at(plan, i, RekillRace(target=target))


def _heal_race(plan: FaultPlan, rng: random.Random,
               ctx: GeneratorContext) -> Optional[FaultPlan]:
    heals = [i for i, s in enumerate(plan) if isinstance(s, Heal)]
    if heals:
        i = rng.choice(heals)
        step = plan[i]
        after = 0 if step.after > 0 else rng.randint(2, 30)
        return _replace_at(plan, i, Heal(after=after))
    parts = [i for i, s in enumerate(plan)
             if isinstance(s, TimedPartition)]
    if not parts:
        return None
    i = rng.choice(parts)          # never-healed cut -> heal it
    after = 0 if rng.random() < 0.5 else rng.randint(2, 30)
    return plan[:i + 1] + (Heal(after=after),) + plan[i + 1:]


def _splice(plan: FaultPlan, rng: random.Random, ctx: GeneratorContext,
            donors: Sequence[FaultPlan] = ()) -> Optional[FaultPlan]:
    if not donors:
        return None
    donor = donors[rng.randrange(len(donors))]
    if not donor:
        return None
    start = rng.randrange(len(donor))
    chunk = donor[start:start + rng.randint(1, 2)]
    pos = rng.randint(0, len(plan))
    return plan[:pos] + chunk + plan[pos:]


def _add_kill(plan: FaultPlan, rng: random.Random,
              ctx: GeneratorContext) -> Optional[FaultPlan]:
    step = TimedKill(at=ctx.pick_time(rng), target=ctx.pick_target(rng))
    # append mostly: a finale kill after partition churn is the move
    # that pairs true and false suspicions in one schedule
    pos = len(plan) if rng.random() < 0.7 else rng.randint(0, len(plan))
    return plan[:pos] + (step,) + plan[pos:]


def _drop_step(plan: FaultPlan, rng: random.Random,
               ctx: GeneratorContext) -> Optional[FaultPlan]:
    if len(plan) <= 1:
        return None
    i = rng.randrange(len(plan))
    return plan[:i] + plan[i + 1:]


def _duplicate_kill(plan: FaultPlan, rng: random.Random,
                    ctx: GeneratorContext) -> Optional[FaultPlan]:
    kills = [i for i, s in enumerate(plan) if isinstance(s, TimedKill)]
    if not kills:
        return None
    i = rng.choice(kills)
    step = plan[i]
    if rng.random() < 0.5:         # same-instant twin: a 2-burst
        twin = TimedKill(at=step.at, target=ctx.pick_target(rng))
    else:
        twin = TimedKill(at=min(step.at + rng.randint(1, 15),
                                WINDOW[1] + 60),
                         target=step.target)
    return plan[:i + 1] + (twin,) + plan[i + 1:]


def _grid_snap(plan: FaultPlan, rng: random.Random,
               ctx: GeneratorContext) -> Optional[FaultPlan]:
    grid = rng.choice((5, 10, 30))
    out: List[Step] = []
    for step in plan:
        if isinstance(step, TimedKill):
            out.append(TimedKill(at=max(grid, (step.at // grid) * grid),
                                 target=step.target))
        elif isinstance(step, TimedPartition):
            out.append(TimedPartition(
                at=max(grid, (step.at // grid) * grid),
                targets=step.targets, services=step.services))
        else:
            out.append(step)
    return tuple(out)


#: operator registry, canonical order (name -> operator); splice takes
#: the donor pool as an extra argument and is dispatched specially
MUTATORS: Dict[str, Callable] = {
    "add_kill": _add_kill,
    "drop_step": _drop_step,
    "duplicate_kill": _duplicate_kill,
    "grid_snap": _grid_snap,
    "heal_race": _heal_race,
    "retarget": _retarget,
    "shift_time": _shift_time,
    "splice": _splice,
}

_ATTEMPTS = 12


def mutate(plan: FaultPlan, rng: random.Random, ctx: GeneratorContext,
           donors: Sequence[FaultPlan] = ()) -> FaultPlan:
    """One mutant of ``plan``: valid, and different from the input.

    Applies one operator (sometimes two, stacked) chosen from
    :data:`MUTATORS`; inapplicable or invalidating choices are retried.
    Falls back to appending a kill — always valid — so the function
    totalizes: every call returns a usable plan.
    """
    names = sorted(MUTATORS)
    for _ in range(_ATTEMPTS):
        candidate: Optional[FaultPlan] = plan
        for _ in range(1 if rng.random() < 0.7 else 2):
            name = rng.choice(names)
            op = MUTATORS[name]
            if name == "splice":
                candidate = op(candidate, rng, ctx, donors)
            else:
                candidate = op(candidate, rng, ctx)
            if candidate is None:
                break
        if candidate is not None and candidate != plan \
                and valid_plan(candidate, ctx):
            return candidate
    fallback = _add_kill(plan, rng, ctx)
    if fallback is not None and valid_plan(fallback, ctx):
        return fallback
    return plan
