"""Test-side references for the plane-count bounds and the LP export.

`sufficient_m_enumerated` is the ground truth the bound tables are checked
against: the family's max-min over the whole discrete (k, p, q) grid.  `h`
and `hbar` are the monotone helper forms of the derivation.  `parse_lp`
reads back the text `lpcert.export_lp` writes.
"""

from fractions import Fraction

from switchlp.bounds import LINK, c_cost, g_cost, ilog
from switchlp.dary import frac_pow


def sufficient_m_enumerated(d, n, t, f, mode):
    """Ground truth 1 + max_k min_{p,q} cost over the whole discrete grid."""
    cost = c_cost if mode == LINK else g_cost
    return 1 + max(min(cost(d, n, t, f, k, p, q)
                       for p in range(n - t) for q in range(n - t, n + 1))
                   for k in range(1, min(f, d ** t) + 1))


def h(d, n, k):
    if k < 1:
        raise ValueError("k must be >= 1")
    e = (n + ilog(d, k)) // 2
    return Fraction(d ** e) + k * (frac_pow(d, n - e - 1) - 1)


def hbar(d, n, k):
    if k < 1:
        raise ValueError("k must be >= 1")
    e = (ilog(d, k) + n + 1) // 2
    return Fraction(d ** e) + k * (frac_pow(d, n - e) - 1)


def parse_lp(text):
    """Minimal reference parser for the exported format; returns a dict with
    objective variable list and constraints as (name, vars, rhs) triples."""
    lines = [ln for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("\\")]
    out = {"objective": [], "constraints": [], "bounds": []}
    section = None
    for ln in lines:
        word = ln.strip()
        if word in ("Maximize", "Subject To", "Bounds", "End"):
            section = word
            continue
        if section == "Maximize":
            _, _, rhs = word.partition(":")
            out["objective"] = [v.strip() for v in rhs.split("+")]
        elif section == "Subject To":
            name, _, rest = word.partition(":")
            expr, _, rhs = rest.rpartition("<=")
            out["constraints"].append(
                (name.strip(), [v.strip() for v in expr.split("+")],
                 int(rhs)))
        elif section == "Bounds":
            out["bounds"].append(word.split("<=")[-1].strip())
    return out
