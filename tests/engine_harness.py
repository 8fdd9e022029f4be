"""Test helpers that drive engine parts by hand.

``drive`` ticks a standalone memory controller cycle by cycle.  A MEM
request completes through ``pop_completed``; a PIM op is complete
as issued (``tick`` returns it, stamped with its completion cycle), so
the helpers here hold issued PIM ops until that cycle to report
completions in the order they land.
"""

from collections import deque


def drained(ctl, cycle):
    """Nothing queued and nothing in flight at ``cycle``."""
    return (
        not ctl.mem_queue
        and not ctl.pim_queue
        and not ctl.channel.mem_in_flight()
        and ctl.pim_exec.can_issue(cycle)
    )


def drive(ctl, max_cycles=100_000):
    """Tick until all queued work completes.

    Returns the completed requests in landing order and the cycle the
    controller drained at.
    """
    completed = []
    landing = deque()
    for cycle in range(max_cycles):
        completed.extend(ctl.pop_completed(cycle))
        while landing and landing[0].cycle_completed <= cycle:
            completed.append(landing.popleft())
        issued = ctl.tick(cycle)
        if issued is not None and issued.is_pim:
            landing.append(issued)
        if drained(ctl, cycle):
            ctl.finalize(cycle)
            return completed, cycle
    raise AssertionError("controller did not drain")


def pop_next(buffer):
    """Pop the head a ``VCBuffer``'s round-robin prefers (None if empty),
    the way the crossbar pops a granted head."""
    for lane in buffer.order:
        if lane._items:
            return buffer.pop(lane)
    return None
