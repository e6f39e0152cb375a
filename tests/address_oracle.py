"""Enumerating reference for `switchlp.dary.AddressSets`.

Walks every input, every output of the home window and every foreign
window, records each one's index in a dict and counts by scanning.  It is
slow on purpose: the differential tests in `test_dary.py` and
`test_lpcert.py` check the closed-form fast path against it.
"""

from switchlp.dary import (
    DaryString, all_strings, lcp, lcs, window_index, window_outputs,
)


def _lcp_raw(xs, ys):
    k = 0
    for a, b in zip(xs, ys):
        if a != b:
            break
        k += 1
    return k


class EnumeratedAddressSets:
    """Same interface and meaning as `AddressSets`; see its docstring."""

    def __init__(self, a, B, t):
        B = frozenset(B)
        if not B:
            raise ValueError("B must be nonempty")
        self.a = a
        self.B = B
        self.t = t
        self.d = a.base
        self.n = len(a)
        n, d = self.n, self.d
        if not (0 <= t <= n):
            raise ValueError("t=%d out of range for n=%d" % (t, n))
        windows = {window_index(b, t) for b in B}
        if len(windows) != 1:
            raise ValueError("B spans multiple windows: %s" % sorted(windows))
        (self.home_window,) = windows

        self._i_of = {}
        self.A = [set() for _ in range(n)]
        ap = a.prefix(n - 1)
        for u in all_strings(d, n):
            if u == a:
                continue
            i = lcs(ap, u.prefix(n - 1))
            self._i_of[u] = i
            self.A[i].add(u)

        # j(v) over outputs of the home window that are not in B
        bprefixes = [b.prefix(n - 1) for b in B]
        self._j_of_output = {}
        for v in window_outputs(d, n, t, self.home_window):
            if v in B:
                continue
            vp = v.prefix(n - 1)
            self._j_of_output[v] = max(lcp(vp, bp) for bp in bprefixes)

        # j(w) over foreign windows: common prefix of the window heads
        self._j_of_window = {}
        home_head = DaryString.from_value(self.home_window, d, n - t)
        for w in range(d ** (n - t)):
            if w == self.home_window:
                continue
            head = DaryString.from_value(w, d, n - t)
            self._j_of_window[w] = _lcp_raw(head.digits, home_head.digits)

    def i_of(self, u):
        if u == self.a:
            return None
        return self._i_of[u]

    def j_of_output(self, v):
        if v in self.B:
            return None
        try:
            return self._j_of_output[v]
        except KeyError:
            raise ValueError("%s is not in the home window" % v)

    def j_of_window(self, w):
        if w == self.home_window:
            return None
        return self._j_of_window[w]

    def a_count(self, i):
        return len(self.A[i])

    def window_count(self, j):
        return sum(1 for jj in self._j_of_window.values() if jj == j)

    def output_count(self, j):
        return sum(1 for jj in self._j_of_output.values() if jj == j)

    def union_b_tail(self, q):
        return sum(1 for jj in self._j_of_output.values() if jj >= q)

    def b_count(self, j):
        if j <= self.n - self.t - 1:
            return self.window_count(j) * self.d ** self.t
        return self.output_count(j)

    # the enumerated LP variable lists, as `LpInstance` built them eagerly

    def uw_pairs(self, thresh):
        return [(u, w) for u in self._i_of for w in self._j_of_window
                if self._i_of[u] + self._j_of_window[w] >= thresh]

    def uv_pairs(self, thresh):
        return [(u, v) for u in self._i_of for v in self._j_of_output
                if self._i_of[u] + self._j_of_output[v] >= thresh]
