"""A deliberately naive reference interpreter for differential testing.

Implements the kernel's contract — generator processes, one-shot
events, timeouts, (time, priority, seq) FIFO ordering, wait-on-finished
resume via an URGENT immediate event — with the dumbest possible
scheduler: an unsorted list re-sorted on every pop.  No heaps, no
``__slots__``, no inlining, no lazy values.  If the optimized kernel in
``repro.sim`` and this interpreter ever disagree on execution order or
values, the optimization broke semantics.
"""


class RefEvent:
    def __init__(self, env):
        self.env = env
        self.callbacks = []  # None once processed
        self.ok = None  # None = untriggered
        self.value = None

    @property
    def triggered(self):
        return self.ok is not None

    @property
    def processed(self):
        return self.callbacks is None

    def succeed(self, value=None):
        assert self.ok is None, "already triggered"
        self.ok, self.value = True, value
        self.env.schedule(self)
        return self


class RefTimeout(RefEvent):
    def __init__(self, env, delay, value=None):
        super().__init__(env)
        self.ok, self.value = True, value
        env.schedule(self, delay=delay)


class RefProcess(RefEvent):
    def __init__(self, env, generator):
        super().__init__(env)
        self.generator = generator
        bootstrap = RefEvent(env)
        bootstrap.ok = True
        bootstrap.callbacks.append(self.resume)
        env.schedule(bootstrap)

    def resume(self, event):
        try:
            target = self.generator.send(event.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if target.callbacks is not None:
            target.callbacks.append(self.resume)
        else:  # waiting on an already-finished event: immediate URGENT resume
            immediate = RefEvent(self.env)
            immediate.ok, immediate.value = target.ok, target.value
            immediate.callbacks.append(self.resume)
            self.env.schedule(immediate, priority=0)


class RefEnvironment:
    """Sorted-list scheduler: correct, quadratic, obviously so."""

    def __init__(self):
        self.now = 0.0
        self.queue = []  # (time, priority, seq, event), kept unsorted
        self.seq = 0
        self.events_processed = 0

    def schedule(self, event, delay=0.0, priority=1):
        self.seq += 1
        self.queue.append((self.now + delay, priority, self.seq, event))

    def event(self):
        return RefEvent(self)

    def timeout(self, delay, value=None):
        return RefTimeout(self, delay, value)

    def process(self, generator, name=None):
        return RefProcess(self, generator)

    def run(self, until=None):
        while self.queue:
            self.queue.sort(key=lambda entry: entry[:3])
            when, _priority, _seq, event = self.queue.pop(0)
            if until is not None and when > until:
                self.queue.append((when, _priority, _seq, event))
                self.now = until
                return
            self.now = when
            self.events_processed += 1
            callbacks = event.callbacks
            event.callbacks = None
            for callback in callbacks:
                callback(event)
        if until is not None:
            self.now = until
