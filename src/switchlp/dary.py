"""Fixed-length d-ary strings and the address-set combinatorics built on them.

Terminal addresses in a d-ary switching network with n stages are strings of
n digits over {0..d-1}.  Almost everything downstream (routing, blocking
predicates, bound formulas) reduces to longest-common-prefix/suffix counts on
these strings and to cardinalities of a few derived address families.
"""

from fractions import Fraction
from functools import lru_cache
import itertools


class DaryString:
    """Immutable string of `length` digits base `base`, most significant first."""

    __slots__ = ("base", "digits")

    def __init__(self, base, digits):
        digits = tuple(digits)
        if base < 2:
            raise ValueError("base must be >= 2")
        for dig in digits:
            if not (0 <= dig < base):
                raise ValueError("digit %r out of range for base %d" % (dig, base))
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "digits", digits)

    def __setattr__(self, name, value):
        raise AttributeError("DaryString is immutable")

    @classmethod
    def parse(cls, text, base):
        return cls(base, [int(ch, base) for ch in text])

    @classmethod
    def from_value(cls, value, base, length):
        if not (0 <= value < base ** length):
            raise ValueError("value %d out of range" % value)
        digs = []
        for _ in range(length):
            digs.append(value % base)
            value //= base
        return cls(base, reversed(digs))

    def value(self):
        v = 0
        for dig in self.digits:
            v = v * self.base + dig
        return v

    def __len__(self):
        return len(self.digits)

    def __getitem__(self, idx):
        return self.digits[idx]

    def prefix(self, length):
        return DaryString(self.base, self.digits[:length])

    def suffix(self, length):
        if length == 0:
            return DaryString(self.base, ())
        return DaryString(self.base, self.digits[-length:])

    def __eq__(self, other):
        return (isinstance(other, DaryString)
                and self.base == other.base and self.digits == other.digits)

    def __hash__(self):
        return hash((self.base, self.digits))

    def __lt__(self, other):
        _check_compat(self, other)
        return self.digits < other.digits

    def __le__(self, other):
        _check_compat(self, other)
        return self.digits <= other.digits

    def __str__(self):
        if self.base <= 10:
            return "".join(str(d) for d in self.digits)
        return ".".join(str(d) for d in self.digits)

    def __repr__(self):
        return "DaryString(base=%d, %r)" % (self.base, str(self))


def _check_compat(u, v):
    if u.base != v.base:
        raise ValueError("base mismatch: %d vs %d" % (u.base, v.base))
    if len(u) != len(v):
        raise ValueError("length mismatch: %d vs %d" % (len(u), len(v)))


def lcp(u, v):
    """Length of the longest common prefix of two equal-length strings."""
    _check_compat(u, v)
    k = 0
    for a, b in zip(u.digits, v.digits):
        if a != b:
            break
        k += 1
    return k


def lcs(u, v):
    """Length of the longest common suffix of two equal-length strings."""
    _check_compat(u, v)
    k = 0
    for a, b in zip(reversed(u.digits), reversed(v.digits)):
        if a != b:
            break
        k += 1
    return k


def all_strings(base, length):
    """All base**length strings of the given shape, lexicographic order."""
    for digs in itertools.product(range(base), repeat=length):
        yield DaryString(base, digs)


def window_index(v, t):
    """Index of the size-d^t output window containing v.

    Windows partition the outputs by their (n-t)-digit prefix; window w holds
    the outputs whose prefix has value w.
    """
    n = len(v)
    if not (0 <= t <= n):
        raise ValueError("window exponent t=%d out of range for n=%d" % (t, n))
    return v.prefix(n - t).value()


def window_outputs(base, n, t, w):
    """The d^t outputs making up window w, ascending."""
    if not (0 <= w < base ** (n - t)):
        raise ValueError("window index %d out of range" % w)
    head = DaryString.from_value(w, base, n - t)
    for tail in itertools.product(range(base), repeat=t):
        yield DaryString(base, head.digits + tail)


class AddressSets:
    """Input and output address families around one multicast request (a, B).

    For an input a, the inputs u whose (n-1)-prefix shares a suffix of length
    exactly i with a's (n-1)-prefix form A_i (u = a excluded; i(a) is
    undefined and reported as None).  For an output set B inside one window,
    the outputs v whose (n-1)-prefix shares a prefix of length exactly j with
    some member of B form B_j; j(v) is the largest such j.  Windows other
    than B's own window get an index j(w) the same way, via their common
    prefix with B's window.

    Indices are computed from digits when asked and counts in closed form,
    so nothing here enumerates addresses.
    """

    def __init__(self, a, B, t):
        B = frozenset(B)
        if not B:
            raise ValueError("B must be nonempty")
        self.a, self.B, self.t = a, B, t
        self.d, self.n = d, n = a.base, len(a)
        if not (0 <= t <= n):
            raise ValueError("t=%d out of range for n=%d" % (t, n))
        if len(B) > d ** t:
            raise ValueError("window cannot hold %d outputs" % len(B))
        for b in B:
            _check_compat(a, b)
        windows = {window_index(b, t) for b in B}
        if len(windows) != 1:
            raise ValueError("B spans multiple windows: %s" % sorted(windows))
        (self.home_window,) = windows
        self._home_head = next(iter(B)).digits[:n - t]
        # distinct q-digit prefixes of B for q = n-t .. n-1: the home-window
        # outputs with j(v) >= q are exactly those extending one of them
        self._heads = [len({b.digits[:q] for b in B}) for q in range(n - t, n)]

    def i_of(self, u):
        """Suffix index of input u, or None for u == a."""
        if u == self.a:
            return None
        _check_compat(self.a, u)
        return _lcp_raw(reversed(self.a.digits[:-1]), reversed(u.digits[:-1]))

    def j_of_output(self, v):
        """Prefix index of home-window output v, or None for v in B."""
        _check_compat(self.a, v)
        if v.digits[:self.n - self.t] != self._home_head:
            raise ValueError("%s is not in the home window" % v)
        if v in self.B:
            return None
        return max(_lcp_raw(v.digits[:-1], b.digits[:-1]) for b in self.B)

    def j_of_window(self, w):
        """Prefix index of foreign window w, or None for the home window."""
        if w == self.home_window:
            return None
        head = DaryString.from_value(w, self.d, self.n - self.t)
        return _lcp_raw(head.digits, self._home_head)

    def a_count(self, i):
        return a_count_formula(self.d, self.n, i)

    def window_count(self, j):
        """Number of foreign windows with index j."""
        if 0 <= j <= self.n - self.t - 1:
            return window_count_formula(self.d, self.n, self.t, j)
        return 0

    def output_count(self, j):
        """Number of home-window outputs outside B with index j."""
        return self.union_b_tail(j) - self.union_b_tail(j + 1)

    def union_b_tail(self, q):
        """|{v in home window, v not in B : j(v) >= q}|."""
        n, t = self.n, self.t
        q = max(q, n - t)
        if q >= n:
            return 0
        return self._heads[q - (n - t)] * self.d ** (n - q) - len(self.B)

    def b_count(self, j):
        """|B_j|: non-B outputs whose prefix index is exactly j.  For
        j <= n-t-1 these are whole foreign windows; above that they live
        inside the home window."""
        if j <= self.n - self.t - 1:
            return self.window_count(j) * self.d ** self.t
        return self.output_count(j)


def _lcp_raw(xs, ys):
    k = 0
    for a, b in zip(xs, ys):
        if a != b:
            break
        k += 1
    return k


def a_count_formula(d, n, i):
    """Closed form for |A_i|: d^(n-i) - d^(n-1-i), clipped at i = n-1."""
    if not (0 <= i <= n - 1):
        raise ValueError("i out of range")
    if i == n - 1:
        return d - 1
    return d ** (n - i) - d ** (n - 1 - i)


def window_count_formula(d, n, t, j):
    """Closed form for the number of foreign windows with index j <= n-t-1."""
    if not (0 <= j <= n - t - 1):
        raise ValueError("j out of range")
    if j == n - t - 1:
        return d - 1
    return d ** (n - j - t) - d ** (n - 1 - j - t)


@lru_cache(maxsize=4096)
def canonical_sets(d, n, t, k):
    """AddressSets for the canonical request: a = 0^n, B = the k smallest
    outputs of window 0.  This is the worst-case shape the bound formulas
    are stated for, so the certificate grid runs on it."""
    if not (1 <= k <= d ** t):
        raise ValueError("k=%d out of range for window size %d" % (k, d ** t))
    a = DaryString(d, (0,) * n)
    B = list(itertools.islice(window_outputs(d, n, t, 0), k))
    return AddressSets(a, B, t)


def frac_pow(d, e):
    """d**e as an exact rational, allowing negative exponents."""
    if e >= 0:
        return Fraction(d ** e)
    return Fraction(1, d ** (-e))
