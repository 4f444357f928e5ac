"""One-heap event engine: the oracle for :class:`repro.sim.engine.Simulator`.

Every event, the re-arm of a stepping handle included, is one
``(time, seq)`` entry on one binary heap.  A cancelled entry leaves when it
reaches the top, or when carcasses outnumber pending events past
:data:`~repro.sim.engine.COMPACTION_FLOOR`.  The engine's heap and its lane
must fire exactly what this fires, and count the same depth and
compactions.  Arguments are not validated: the programs pass valid ones.
"""

from heapq import heapify, heappop, heappush

from repro.sim.engine import COMPACTION_FLOOR, EventHandle


class OneHeapSimulator:
    def __init__(self, start_time=0.0):
        self.now = float(start_time)
        self.heap = []
        self.seq = self.pending_count = self.events_fired = self.compactions = 0
        self.stopped = False

    @property
    def heap_depth(self):
        return len(self.heap)

    def _push(self, time, callback, args, name="", stepping=False):
        handle = EventHandle(0.0, 0, callback, tuple(args), name, self, stepping)
        return self._again(handle, float(time))

    def _again(self, handle, time):
        handle.time, handle.seq, handle._fired = time, self.seq, False
        heappush(self.heap, (time, self.seq, handle))
        self.seq += 1
        self.pending_count += 1
        return handle

    # The public methods call no other public method: a test wraps them.
    def schedule(self, delay, callback, *args, name="", stepping=False):
        return self._push(self.now + delay, callback, args, name, stepping)

    def schedule_at(self, time, callback, *args, name=""):
        return self._push(time, callback, args, name)

    def schedule_many(self, entries):
        return [self._push(time, callback, *rest) for time, callback, *rest in entries]

    def _note_cancel(self):
        self.pending_count -= 1
        depth = len(self.heap)
        if depth >= COMPACTION_FLOOR and depth - self.pending_count > self.pending_count:
            self.heap[:] = [entry for entry in self.heap if not entry[2]._cancelled]
            heapify(self.heap)
            self.compactions += 1

    def stop(self):
        self.stopped = True

    def run(self, until=None, max_events=None):
        self.stopped, fired = False, 0
        while not self.stopped:
            while self.heap and self.heap[0][2]._cancelled:
                heappop(self.heap)
            if not self.heap or (until is not None and self.heap[0][0] > until):
                break
            if fired == max_events:
                break
            time, _, handle = heappop(self.heap)
            self.now, handle._fired = time, True
            self.pending_count -= 1
            self.events_fired += 1
            fired += 1
            delay = handle.callback(*handle.args)
            if handle._stepping and delay is not None:
                self._again(handle, time + delay)
        if until is not None and self.now < until and not self.stopped:
            self.now = until
        return self.now
