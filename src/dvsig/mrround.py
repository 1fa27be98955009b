"""One Miller-Rabin round, and the loop that answers rounds in a pool worker of module primes.

A worker is a fresh interpreter, python -S, running this file as a
script.  So this file imports nothing but builtin modules: the worker
starts without the dvsig package, in about the time of a bare
interpreter.
"""

import marshal


def passes(task: tuple[int, int | None], modulus: int | None = None) -> bool:
    """One Miller-Rabin round of (n, a): False when witness a shows n composite.

    A None witness stands for an n that trial division proved prime.
    With n - 1 = 2**s * d, d odd, the round passes when a**d is 1 or one
    of a**(2**i * d), i < s, is -1.  Given a modulus m dividing n, the
    same test is made modulo m: a round that passes modulo n passes
    modulo every divisor of n, so False modulo m means False modulo n.
    """
    n, a = task
    if a is None:
        return True
    m = n if modulus is None else modulus
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, m)
    if x in (1, m - 1):
        return True
    for _ in range(s - 1):
        x = x * x % m
        if x == m - 1:
            return True
    return False


def serve() -> None:
    """Answer each marshalled (n, a) read from stdin with its marshalled outcome, until EOF."""
    # buffered even under python -u, so that every answer is written whole
    stdin, stdout = open(0, "rb", closefd=False), open(1, "wb", closefd=False)
    while True:
        try:
            task = marshal.load(stdin)
        except EOFError:
            return
        marshal.dump(passes(task), stdout)
        stdout.flush()


if __name__ == "__main__":
    serve()
