"""Integer-coefficient polynomials in one variable as degree -> coeff dicts."""

from __future__ import annotations

Poly = dict


def padd(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for d, c in b.items():
        v = out.get(d, 0) + c
        if v:
            out[d] = v
        else:
            out.pop(d, None)
    return out


def pmul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for da, ca in a.items():
        for db, cb in b.items():
            d = da + db
            v = out.get(d, 0) + ca * cb
            if v:
                out[d] = v
            else:
                out.pop(d, None)
    return out


def pstr(a: Poly) -> str:
    """Ascending-degree rendering: 1 + 2x^3 + x^5.  Zero renders as 0."""
    terms = []
    for d, c in sorted(a.items()):
        if c == 0:
            continue
        if d == 0:
            terms.append(str(c))
        else:
            x = "x" if d == 1 else f"x^{d}"
            terms.append(x if c == 1 else f"{c}{x}")
    return " + ".join(terms) if terms else "0"
