"""Prime search and Miller-Rabin rounds for groupparams, loaded only when it needs them.

Nearly all the time of a 2048-bit generation or validation goes to
Miller-Rabin rounds on p, about 40 ms each: 64 to accept p, 64 more to
validate it, and one for each of the hundreds of candidates that
survive trial division but are composite.  The rounds are independent,
so moduli of _POOL_MIN_BITS or more take them on a pool of worker
processes, one per CPU, opened inside generate_params or
is_probable_prime (which validate_params calls) and killed before the
call returns or raises.  A worker is a fresh interpreter (python -S)
that imports this module and answers pickled (n, witness) rounds over a
pipe: it starts in about 0.1 s, is smaller than a CLI process, and
never imports the caller's main module.  Below the crossover, or on one
CPU, the same code runs the rounds with the builtin map.  The crossover
was measured on two cores: a round takes about 5 ms at 1024 bits, 11
ms at 1280, 18 ms at 1536 and 40 ms at 2048, and the pool lost at 768
bits and won or tied from 1024 bits up.

The pool changes no result: the verdicts and the rng stream stay those
of testing the candidates one round at a time.  Every witness is drawn
from the caller's rng in serial order, and the rng state is saved after
each draw.  The search draws the first witness of the next few
candidates, one per worker, and tests them together; the first that
passes (candidate j) rewinds rng to the state after its draw, which is
where the serial test of the failed candidates before it leaves it.
Then j draws its other 63 witnesses, tested together; if round i fails,
rng rewinds to the state after draw i, where the serial test stops.
The attempt budget is spent per candidate in the same order, and its
GenerationTimeout is raised only once the candidates before it are
settled, so it is raised at the same attempt.  validate_params draws
its witnesses from a local rng seeded with n, so there only the
verdict counts, and it is still that every round passes.
"""

from __future__ import annotations

import os
import random
import sys
from contextlib import contextmanager
from functools import partial

from .errors import GenerationTimeout
from .groupparams import _TRIAL_LIMIT, _trial_division
from .modmath import sample_uniform

_MR_ROUNDS = 64
# Moduli of at least this many bits take their rounds on a process pool (see above).
_POOL_MIN_BITS = 1024


def _passes(task: tuple[int, int | None]) -> bool:
    """One Miller-Rabin round of (n, a): False when witness a shows n composite.

    A None witness stands for an n that trial division proved prime.
    Pool workers run it (see _serve).
    """
    n, a = task
    if a is None:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _serve() -> None:
    """A pool worker: answer each pickled round read from stdin with its pickled outcome."""
    import pickle

    # buffered even under python -u, so that every answer is written whole
    stdin, stdout = open(0, "rb", closefd=False), open(1, "wb", closefd=False)
    while True:
        try:
            task = pickle.load(stdin)
        except EOFError:
            return
        pickle.dump(_passes(task), stdout)
        stdout.flush()


class _Pool:
    """Fresh interpreters, one per worker, each running _serve over a pair of pipes."""

    def __init__(self, workers: int):
        import pickle
        import subprocess

        self.pickle = pickle
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code = f"import sys; sys.path.insert(0, {root!r}); from dvsig.primes import _serve; _serve()"
        self.procs = [subprocess.Popen([sys.executable, "-S", "-c", code], stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE) for _ in range(workers)]
        self.unanswered = [0] * workers  # rounds sent to each worker

    def _send(self, w: int, task) -> None:
        self.pickle.dump(task, self.procs[w].stdin)
        self.procs[w].stdin.flush()
        self.unanswered[w] += 1

    def _receive(self, w: int) -> bool:
        self.unanswered[w] -= 1
        try:
            return self.pickle.load(self.procs[w].stdout)
        except EOFError:
            raise RuntimeError(f"Miller-Rabin worker exited with status {self.procs[w].poll()}")

    def rounds(self, tasks):
        """The outcome of _passes on each task, lazily and in order: task i runs on worker
        i % workers, and each worker holds one task at a time."""
        for w, unanswered in enumerate(self.unanswered):  # from a map abandoned early
            for _ in range(unanswered):
                self._receive(w)
        tasks, workers = iter(tasks), len(self.procs)
        for w, task in zip(range(workers), tasks):
            self._send(w, task)
        i = 0
        while self.unanswered[i % workers]:
            w = i % workers
            outcome = self._receive(w)
            task = next(tasks, None)
            if task is not None:
                self._send(w, task)
            yield outcome
            i += 1

    def close(self) -> None:
        for proc in self.procs:
            proc.kill()
            proc.wait()
            proc.stdin.close()
            proc.stdout.close()


@contextmanager
def _rounds_map(bits: int):
    """(rounds, workers): rounds maps (n, witness) tasks to their _passes outcomes, lazily.

    The builtin map below _POOL_MIN_BITS or on one CPU; otherwise a _Pool
    with one worker per CPU, killed when the block exits.
    """
    workers = _cpus()
    if bits < _POOL_MIN_BITS or workers < 2:
        yield partial(map, _passes), 1
        return
    pool = _Pool(workers)
    try:
        yield pool.rounds, workers
    finally:
        pool.close()


def _draw(rng: random.Random, moduli: list[int]) -> tuple[list, list]:
    """One witness per modulus, uniform in [2, n-2], and the rng state after each draw.

    A modulus below _TRIAL_LIMIT**2 draws nothing and gets None.
    """
    witnesses, states = [], []
    for n in moduli:
        small = n < _TRIAL_LIMIT * _TRIAL_LIMIT
        witnesses.append(None if small else 2 + sample_uniform(n - 3, False, rng))
        states.append(rng.getstate())
    return witnesses, states


def _first(rounds, moduli: list[int], witnesses: list, verdict: bool) -> int | None:
    """Index of the first round whose outcome is verdict, or None."""
    outcomes = rounds(zip(moduli, witnesses))
    return next((i for i, passed in enumerate(outcomes) if passed is verdict), None)


def _first_prime(candidates, rng: random.Random, rounds, batch: int) -> int | None:
    """The first prime among candidates, or None once they run out; rounds is a map
    from _rounds_map.

    Serially, each candidate that trial division leaves open draws one
    witness from rng per Miller-Rabin round until a round fails or all
    _MR_ROUNDS pass.  Here the next `batch` open candidates draw their
    first witness each and take their first round together; the first
    that passes rewinds rng to the state after its own draw, draws its
    other witnesses, and those rounds run together; the first of them
    that fails rewinds rng to the state after its draw.  So rng ends where
    the serial test leaves it, provided that candidates draw nothing from
    rng when batch > 1.  GenerationTimeout raised by candidates is raised
    here once the candidates drawn before it are settled.
    """
    candidates = iter(candidates)
    pending, stop = [], None
    while True:
        try:
            while stop is None and len(pending) < batch:
                n = next(candidates)
                if _trial_division(n) is not False:
                    pending.append(n)
        except (StopIteration, GenerationTimeout) as exc:
            stop = exc
        if not pending:
            if isinstance(stop, GenerationTimeout):
                raise stop
            return None
        witnesses, states = _draw(rng, pending)
        j = _first(rounds, pending, witnesses, True)
        if j is None:
            pending = []
            continue
        n = pending[j]
        del pending[:j + 1]
        rng.setstate(states[j])
        if witnesses[j] is None:
            return n
        witnesses, states = _draw(rng, [n] * (_MR_ROUNDS - 1))
        i = _first(rounds, [n] * (_MR_ROUNDS - 1), witnesses, False)
        if i is None:
            return n
        rng.setstate(states[i])


def miller_rabin(n: int, rng: random.Random) -> bool:
    """Whether n passes every round, for an n that trial division leaves open."""
    with _rounds_map(n.bit_length()) as (rounds, _):
        return _first_prime([n], rng, rounds, 1) is not None


class _Budget:
    def __init__(self, attempts: int):
        self.remaining = attempts

    def spend(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise GenerationTimeout("no prime pair found within the attempt budget")


def _spending(candidates, budget: _Budget):
    """The candidates, spending one attempt of the budget on each."""
    for n in candidates:
        budget.spend()
        yield n


def _random_odd(bits: int, rng: random.Random):
    while True:
        yield rng.getrandbits(bits) | (1 << (bits - 1)) | 1


def prime_pair(q_bits: int, p_bits: int, rng: random.Random, max_attempts: int) -> tuple[int, int]:
    """(q, p): a q_bits-bit prime q and a p_bits-bit prime p = 2kq + 1."""
    budget = _Budget(max_attempts)
    with _rounds_map(p_bits) as (rounds, workers):
        q_rounds = rounds if q_bits >= _POOL_MIN_BITS else partial(map, _passes)
        while True:
            q = _first_prime(_spending(_random_odd(q_bits, rng), budget), rng, q_rounds, 1)
            two_q = 2 * q
            k_min = ((1 << (p_bits - 1)) - 1) // two_q + 1
            k_max = ((1 << p_bits) - 2) // two_q
            if k_max < k_min:
                continue
            span = k_max - k_min + 1
            start = sample_uniform(span, False, rng) if span > 1 else 0
            # p = 2kq + 1 for k from k_min + start up to k_max, then from k_min
            ks = (k_min + (start + i) % span for i in range(span))
            p = _first_prime(_spending((two_q * k + 1 for k in ks), budget), rng, rounds, workers)
            if p is not None:
                return q, p
