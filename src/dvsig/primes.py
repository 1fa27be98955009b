"""Prime search and Miller-Rabin rounds for groupparams, loaded only when it needs them.

Nearly all the time of a 2048-bit generation or validation goes to
Miller-Rabin rounds on p, about 40 ms each: 64 to accept p, 64 more to
validate it, and one for each composite candidate that survives trial
division.  The rounds are independent, so moduli of _POOL_MIN_BITS or
more take them on a pool of worker processes, one per CPU, opened
inside generate_params or is_probable_prime (which validate_params
calls) and killed before the call returns or raises.  A worker is a
fresh interpreter, python -S, running the file of module mrround as a
script: it imports no dvsig module, answers marshalled (n, witness)
rounds over a pipe with mrround.passes, the function the builtin map
runs too, and starts in about the time of a bare interpreter (18 ms
against 119 ms for one that imports the package, on two cores).
Below the crossover, or on one CPU, the same code runs the rounds with
the builtin map.  The crossover was measured on two cores: a round
takes about 5 ms at 1024 bits, 11 ms at 1280, 18 ms at 1536 and 40 ms
at 2048, and the pool lost at 768 bits and won or tied from 1024 bits
up.

From the same crossover up, the candidates p = 2kq + 1 are sieved
(Brandt & Damgard, CRYPTO '92; HAC 4.4) by the primes f between
_TRIAL_LIMIT and _SIEVE_LIMIT = 2**18: one inverse of 2q modulo each f
gives the k at which f divides p, so a window of _WINDOW consecutive k
costs one step per prime.  About a third of the composite candidates
that survive trial division have such a factor f, and their first
round is settled in this process, modulo f: if f divides n, every
power of a modulo n reduces to the same power modulo f, and 1 and n-1
reduce to 1 and f-1, so a round that passes modulo n passes modulo f.
A round that fails modulo f therefore fails modulo n, and that
candidate never reaches a worker; one that passes modulo f is run in
full.  The sieve, about 55 ms of primes, inverses and a first window,
is built inside prime_pair and dropped when it returns; below the
crossover it would cost more than it saves.

None of this changes a result: the verdicts and the rng stream stay
those of testing the candidates one round at a time.  Every witness is
drawn from the caller's rng in serial order, and the rng state is
saved after each draw.  The search draws the first witness of the
next candidates until `workers` of them are not settled modulo a
factor, and tests those together; the first that passes (candidate j)
rewinds rng to the state after its draw, which is where the serial
test of the failed candidates before it leaves it.  Then j draws its
other 63 witnesses, tested together; if round i fails, rng rewinds to
the state after draw i, where the serial test stops.  The attempt
budget is spent per candidate in the same order, and its
GenerationTimeout is raised only once the candidates before it are
settled, so it is raised at the same attempt.  validate_params draws
its witnesses from a local rng seeded with n, so there only the
verdict counts, and it is still that every round passes.
"""

from __future__ import annotations

import marshal
import os
import random
import sys
from array import array
from contextlib import contextmanager
from functools import partial
from itertools import chain

from . import mrround
from .errors import GenerationTimeout
from .groupparams import _SMALL_PRIMES, _TRIAL_LIMIT, _sieve, _trial_division
from .modmath import sample_uniform
from .mrround import passes

_MR_ROUNDS = 64
# Moduli of at least this many bits take their rounds on a process pool,
# and candidates for p of at least this many bits are sieved (see above).
_POOL_MIN_BITS = 1024
_SIEVE_LIMIT = 1 << 18
# Below every sieved prime, so that each marks at most one k of a window.
_WINDOW = 2048


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class _Pool:
    """Fresh interpreters, one per worker, each running mrround.serve over a pair of pipes."""

    def __init__(self, workers: int):
        import subprocess

        self.procs = []
        try:
            for _ in range(workers):
                self.procs.append(subprocess.Popen([sys.executable, "-S", mrround.__file__],
                                                   stdin=subprocess.PIPE, stdout=subprocess.PIPE))
        except OSError:  # a worker that could not start: stop those that did
            self.close()
            raise
        self.unanswered = [0] * workers  # rounds sent to each worker

    def _send(self, w: int, task) -> None:
        marshal.dump(task, self.procs[w].stdin)
        self.procs[w].stdin.flush()
        self.unanswered[w] += 1

    def _receive(self, w: int) -> bool:
        self.unanswered[w] -= 1
        try:
            return marshal.load(self.procs[w].stdout)
        except EOFError:
            raise RuntimeError(f"Miller-Rabin worker exited with status {self.procs[w].poll()}")

    def rounds(self, tasks):
        """The outcome of passes on each task, lazily and in order: task i runs on worker
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
    """(rounds, workers): rounds maps (n, witness) tasks to their passes outcomes, lazily.

    The builtin map below _POOL_MIN_BITS or on one CPU; otherwise a _Pool
    with one worker per CPU, killed when the block exits.
    """
    workers = _cpus()
    if bits < _POOL_MIN_BITS or workers < 2:
        yield partial(map, passes), 1
        return
    pool = _Pool(workers)
    try:
        yield pool.rounds, workers
    finally:
        pool.close()


def _witness(rng: random.Random, n: int) -> int | None:
    """A witness uniform in [2, n-2]; None, drawing nothing, below _TRIAL_LIMIT**2."""
    return None if n < _TRIAL_LIMIT * _TRIAL_LIMIT else 2 + sample_uniform(n - 3, False, rng)


def _first(rounds, tasks: list, verdict: bool) -> int | None:
    """Index of the first task whose outcome is verdict, or None."""
    return next((i for i, passed in enumerate(rounds(tasks)) if passed is verdict), None)


def _all_pass(rounds, rng: random.Random, n: int, count: int) -> bool:
    """Whether count rounds of n pass, their witnesses drawn first and the rounds run
    together; a failing round rewinds rng to the state after its draw, where the serial
    test stops."""
    witnesses, states = [], []
    for _ in range(count):
        witnesses.append(_witness(rng, n))
        states.append(rng.getstate())
    i = _first(rounds, [(n, a) for a in witnesses], False)
    if i is not None:
        rng.setstate(states[i])
    return i is None


def _settled(task: tuple[int, int | None], factor: int) -> bool:
    """Whether the round of task = (n, a) fails modulo factor, a prime factor of n (0: none
    known), which settles it without a round modulo n; see passes."""
    return factor != 0 and not passes(task, factor)


def _first_prime(candidates, rng: random.Random, rounds, batch: int,
                 factors: dict[int, int] | None = None) -> int | None:
    """The first prime among candidates, or None once they run out; rounds is a map
    from _rounds_map.

    Serially, each candidate that trial division leaves open draws one
    witness from rng per Miller-Rabin round until a round fails or all
    _MR_ROUNDS pass.  Here the open candidates draw their first witness
    in turn, until `batch` of them are not settled in this process
    (factors maps a candidate to a prime factor above _TRIAL_LIMIT, if
    one is known, and a first round that fails modulo it is settled);
    those take their first round together.  The first that passes
    rewinds rng to the state after its own draw, draws its other
    witnesses, and those rounds run together; the first of them that
    fails rewinds rng to the state after its draw.  So rng ends where the
    serial test leaves it, provided that candidates draw nothing from rng
    when batch > 1.  GenerationTimeout raised by candidates is raised here
    once the candidates drawn before it are settled.
    """
    candidates = iter(candidates)
    pending, stop = [], None  # open candidates (n, factor or 0) not yet settled, in order
    while True:
        drawn, undecided = 0, []  # undecided: (candidates drawn so far, task, rng state)
        while len(undecided) < batch:
            if drawn == len(pending):
                if stop is not None:
                    break
                try:
                    n = next(candidates)
                except (StopIteration, GenerationTimeout) as exc:
                    stop = exc
                    break
                factor = factors.pop(n, 0) if factors else 0
                if _trial_division(n) is not False:
                    pending.append((n, factor))
                continue
            n, factor = pending[drawn]
            task = (n, _witness(rng, n))
            drawn += 1
            if _settled(task, factor):
                continue
            undecided.append((drawn, task, rng.getstate()))
        if not drawn:
            if isinstance(stop, GenerationTimeout):
                raise stop
            return None
        j = _first(rounds, [task for _, task, _ in undecided], True)
        if j is None:
            del pending[:drawn]
            continue
        through, (n, a), state = undecided[j]
        del pending[:through]
        rng.setstate(state)
        if a is None or _all_pass(rounds, rng, n, _MR_ROUNDS - 1):
            return n


def miller_rabin(n: int, rng: random.Random) -> bool:
    """Whether n passes every round, for an n that trial division leaves open."""
    with _rounds_map(n.bit_length()) as (rounds, _):
        return _all_pass(rounds, rng, n, _MR_ROUNDS)


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


def _sieved(two_q: int, first: int, count: int, primes: array, roots: array, factors: dict):
    """p = two_q*k + 1 for k from first to first + count - 1, lazily, in windows of _WINDOW k.

    primes[i] divides p exactly when k = roots[i] mod primes[i].  Before
    a p with such a factor is yielded, factors[p] is set to the least one,
    as primes are in decreasing order.
    """
    offsets = array("l", [(root - first) % f for f, root in zip(primes, roots)])
    for start in range(0, count, _WINDOW):
        size = min(_WINDOW, count - start)
        least = array("l", [0]) * size
        for f, offset in zip(primes, offsets):
            i = (offset - start) % f
            if i < size:
                least[i] = f
        p = two_q * (first + start) + 1
        for f in least:
            if f:
                factors[p] = f
            yield p
            p += two_q


def prime_pair(q_bits: int, p_bits: int, rng: random.Random, max_attempts: int) -> tuple[int, int]:
    """(q, p): a q_bits-bit prime q and a p_bits-bit prime p = 2kq + 1."""
    budget = _Budget(max_attempts)
    with _rounds_map(p_bits) as (rounds, workers):
        primes = array("l")
        if p_bits >= _POOL_MIN_BITS:
            primes.extend(_sieve(_SIEVE_LIMIT))
            del primes[:len(_SMALL_PRIMES)]
            primes.reverse()
        q_rounds = rounds if q_bits >= _POOL_MIN_BITS else partial(map, passes)
        while True:
            q = _first_prime(_spending(_random_odd(q_bits, rng), budget), rng, q_rounds, 1)
            two_q = 2 * q
            k_min = ((1 << (p_bits - 1)) - 1) // two_q + 1
            k_max = ((1 << p_bits) - 2) // two_q
            if k_max < k_min:
                continue
            span = k_max - k_min + 1
            start = sample_uniform(span, False, rng) if span > 1 else 0
            # q is prime, so q is the one sieved prime without an inverse of 2q
            divisors = array("l", [f for f in primes if f != q])
            roots = array("l", [pow(-two_q, -1, f) for f in divisors])
            factors = {}
            # p = 2kq + 1 for k from k_min + start up to k_max, then from k_min
            ps = chain(_sieved(two_q, k_min + start, span - start, divisors, roots, factors),
                       _sieved(two_q, k_min, start, divisors, roots, factors))
            p = _first_prime(_spending(ps, budget), rng, rounds, workers, factors)
            if p is not None:
                return q, p
