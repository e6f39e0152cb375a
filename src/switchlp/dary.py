"""d-ary addresses and the address-set combinatorics built on them.

Terminal addresses in a d-ary switching network with n stages are strings of
n digits over {0..d-1}, most significant first, held as the ints they
denote.  Almost everything downstream (routing, blocking predicates, bound
formulas) reduces to longest-common-prefix/suffix counts on these digits,
which are integer arithmetic on the values, and to cardinalities of a few
derived address families.  Trace text becomes an address through
`parse_address`.
"""

from fractions import Fraction
from functools import lru_cache
from operator import index, sub

from .events import check_sizes


class lazy:
    """A read-once attribute: the method runs on first read and `setattr`
    stores its value, which later reads find first (reading `__dict__`
    would make the instance's attributes a slower dict).  Unlike
    `functools.cached_property` in Python 3.11, it takes no lock."""

    def __init__(self, fn):
        self.fn, self.__doc__ = fn, fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        setattr(obj, self.name, value := self.fn(obj))
        return value


class DaryString(int):
    """The address its base-`base` digits denote, as an int subclass.

    The library takes plain ints; only the benchmark harness under `bench/`
    still builds addresses this way, and the class goes when it stops.
    """

    def __new__(cls, base, digits):
        return super().__new__(cls, _value(base, digits))

    @classmethod
    def from_value(cls, value, base, length):
        return super().__new__(cls, check_address(base, length, value))


def _value(base, digits):
    """The int the digits denote, most significant first; ValueError
    unless each is an int in [0, base)."""
    if base < 2:
        raise ValueError("base must be >= 2")
    value = 0
    for dig in digits:
        if type(dig) is not int or not 0 <= dig < base:
            raise ValueError("digit %r is not an integer in [0, %d)"
                             % (dig, base))
        value = value * base + dig
    return value


def parse_address(text, d, n):
    """The n-digit base-d address `text` as an int.  Digits are ASCII:
    one character each ("a1", d <= 36) or decimals joined by dots ("10.1",
    any d, the only form above 36)."""
    dotted = "." in text or d > 36
    parts = text.split(".") if dotted and text else text
    try:
        if not text.isascii() or dotted and not all(map(str.isdigit, parts)):
            raise ValueError("not %s digits"
                             % ("dotted decimal" if dotted else "ASCII"))
        value = _value(d, [int(p, 10 if dotted else d) for p in parts])
    except ValueError as exc:
        raise ValueError("cannot read address %r in base %d: %s"
                         % (text, d, exc)) from None
    if len(parts) != n:
        raise ValueError("address %r has %d digits, want %d"
                         % (text, len(parts), n))
    return value


def check_address(d, n, v):
    """v as a plain int; raise ValueError unless it is an n-digit base-d
    address value: an integer other than a bool, in [0, d^n)."""
    try:
        if isinstance(v, bool):
            raise TypeError
        x = index(v)
    except TypeError:
        raise ValueError("address %r is not an integer" % (v,)) from None
    if x < 0 or x >= d ** n:
        raise ValueError("address %s out of range for d=%d, n=%d" % (v, d, n))
    return x


def check_request(d, n, x, outputs, size=None):
    """(x, the outputs as B, B's members ascending); ValueError unless the
    outputs are a nonempty collection, x and they are addresses, and where
    `size` is given they lie in one window of that many outputs.  A step-1
    `range` is B, read by its ends; any other collection becomes a
    frozenset, and is refused with the same message."""
    if isinstance(outputs, range) and outputs.step == 1:
        B = ints = outputs
    else:
        try:
            B = frozenset(outputs)
        except TypeError:
            raise ValueError("%r is not a collection of addresses"
                             % (outputs,)) from None
        try:   # a bool is no address: a B holding one is checked below
            ints = [-1] if bool in map(type, B) else sorted(map(index, B))
        except TypeError:
            ints = [-1]
    if not B:
        raise ValueError("empty output set")
    x = check_address(d, n, x)
    if ints[0] < 0 or ints[-1] >= d ** n:
        for v in frozenset(B):   # so a range names the member a list does
            check_address(d, n, v)
    if size is not None and ints[0] // size != ints[-1] // size:
        raise ValueError("outputs span windows %s"
                         % sorted({y // size for y in ints}))
    return x, B, ints


def lcp(d, n, u, v):
    """Length of the longest common prefix of n-digit base-d values."""
    while u != v:
        u //= d
        v //= d
        n -= 1
    return n


def lcs(d, n, u, v):
    """Length of the longest common suffix of n-digit base-d values."""
    k = 0
    while k < n and u % d == v % d:
        u //= d
        v //= d
        k += 1
    return k


def all_strings(base, length):
    """All base**length addresses of the given shape, ascending."""
    for value in range(base ** length):
        yield DaryString.from_value(value, base, length)


class AddressSets:
    """Input and output address families around one multicast request (a, B).

    For an input a, the inputs u whose (n-1)-prefix shares a suffix of length
    exactly i with a's (n-1)-prefix form A_i (u = a excluded; i(a) is
    undefined and reported as None).  For an output set B inside one window,
    the outputs v whose (n-1)-prefix shares a prefix of length exactly j with
    some member of B form B_j; j(v) is the largest such j.  Windows other
    than B's own window get an index j(w) the same way, via their common
    prefix with B's window.

    Addresses are n-digit base-d ints.  Indices are computed from them when
    asked and counts in closed form, so nothing here enumerates addresses.
    The constructor is the one boundary for a request: it checks d, n and
    t by `check_sizes` and (a, B) by `check_request` in one window of d^t
    outputs, and keeps a as a plain int; an instance is a checked request.
    B has one form for its members: a `range` when they are contiguous, so
    its ends, length and membership cost O(1), and a frozenset otherwise.
    """

    def __init__(self, d, n, a, B, t):
        check_sizes(d, n, t)
        self._size = size = d ** t
        a, B, ints = check_request(d, n, a, B, size)
        lo, hi = ints[0], ints[-1]
        if hi - lo + 1 == len(B):
            B = range(lo, hi + 1)
        self.d, self.n, self.a, self.B, self.t = d, n, a, B, t
        self.home_window = lo // size

    @lazy
    def _prefixes(self):
        """The distinct q-digit prefixes of B for q = n-t .. n-1: the
        home-window outputs with j(v) >= q are exactly those extending one."""
        d, n = self.d, self.n
        return [{b // d ** (n - q) for b in self.B}
                for q in range(n - self.t, n)]

    @lazy
    def output_counts(self):
        """Number of home-window outputs outside B with index j, for
        j = 0 .. n-1; zero below n-t.  Those with j >= q lie under B's
        q-digit prefixes, p = d^(n-q) outputs each: hi // p - lo // p + 1
        prefixes for a range B from lo to hi.  B itself is not counted."""
        d, B, k = self.d, self.B, len(self.B)
        tails, p = [0], 1   # for q = n, n-1, .., n-t
        if type(B) is range:
            lo, hi = B[0], B[-1]
            for _ in range(self.t):
                p *= d
                tails.append((hi // p - lo // p + 1) * p - k)
        else:
            for heads in reversed(self._prefixes):
                p *= d
                tails.append(len(heads) * p - k)
        tails.reverse()
        return (0,) * (self.n - self.t) + tuple(map(sub, tails, tails[1:]))

    def i_of(self, u):
        """Suffix index of input u, or None for u == a."""
        check_address(self.d, self.n, u)
        if u == self.a:
            return None
        d = self.d
        return lcs(d, self.n - 1, self.a // d, u // d)

    def j_of_output(self, v):
        """Prefix index of home-window output v, or None for v in B."""
        check_address(self.d, self.n, v)
        if v // self._size != self.home_window:
            raise ValueError("%s is not in the home window" % v)
        B = self.B
        if v in B:
            return None
        if type(B) is range:   # the end of B nearer to v shares the most
            return lcp(self.d, self.n, v, B[0] if v < B[0] else B[-1])
        d, n, t = self.d, self.n, self.t
        for q in range(n - 1, n - t, -1):
            if v // d ** (n - q) in self._prefixes[q - (n - t)]:
                return q
        return n - t

    def j_of_window(self, w):
        """Prefix index of foreign window w, or None for the home window;
        w is checked by the rule `check_address` applies to terminals."""
        rest = self.n - self.t
        try:
            w = check_address(self.d, rest, w)
        except ValueError:
            raise ValueError("window index %r out of range" % (w,)) from None
        if w == self.home_window:
            return None
        return lcp(self.d, rest, w, self.home_window)

    def union_b_tail(self, q):
        """|{v in home window, v not in B : j(v) >= q}|."""
        return sum(self.output_counts[max(q, 0):])


def not_sets(value):
    """Refuse `value`, found not to be an `AddressSets`, as a request."""
    raise ValueError("%r is not a dary.AddressSets" % (value,))


def a_count_formula(d, n, i):
    """Closed form for |A_i|: d^(n-i) - d^(n-1-i)."""
    if not (0 <= i <= n - 1):
        raise ValueError("i out of range")
    return d ** (n - i) - d ** (n - 1 - i)


def canonical_sets(d, n, t, k):
    """AddressSets for the canonical request: a = 0^n, B = the k smallest
    outputs of window 0.  This is the worst-case shape the bound formulas
    are stated for, so the certificate grid runs on it.  The arguments are
    checked by `check_sizes` before the cache (`cache_info`) is asked; k,
    once d, n and t pass, as a request of the loosest fanout, f = d^n."""
    check_sizes(d, n, t)
    check_sizes(d, n, t, d ** n, k)
    return _canonical_sets(d, n, t, k)


@lru_cache(maxsize=4096)
def _canonical_sets(d, n, t, k):
    return AddressSets(d, n, 0, range(k), t)


canonical_sets.cache_info = _canonical_sets.cache_info


def frac_pow(d, e):
    """d**e as an exact rational, allowing negative exponents."""
    if e >= 0:
        return Fraction(d ** e)
    return Fraction(1, d ** (-e))
