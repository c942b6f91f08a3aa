"""n-fold cyclic covers of a gluing, built from an integer face cocycle.

A cocycle assigns an integer c_g to each listed gluing g of a base
triangulation.  The n-fold cover has tetrahedra (t, i) for i in Z/n, numbered
i * T + t, and lifts g from tet t face f to tet t' face f' to the gluings
(t, i) -> (t', i + c_g mod n) with the same vertex permutation.  When the
cocycle sums to 0 mod n around every edge loop, the cover is unbranched: each
edge class of the base lifts to n classes of the same valence.

The figure-eight cocycle (-1, 0, -1, 0) on the four gluings of
fixtures/fig8.json sends the meridian to a generator of H_1 = Z, so every n
gives a closed, connected cover with 2n tetrahedra and 2n edge classes of
valence 6.
"""

import json

FIG8_COCYCLE = (-1, 0, -1, 0)


def load_gluing(path):
    """Read a triangulation JSON file as a plain dict."""
    with open(path) as fh:
        return json.load(fh)


def cyclic_cover(base, cocycle, n):
    """The n-fold cyclic cover of `base` (a triangulation dict) as a dict."""
    gluings = base["gluings"]
    if len(cocycle) != len(gluings):
        raise ValueError(f"cocycle has {len(cocycle)} entries for {len(gluings)} gluings")
    if n < 1:
        raise ValueError(f"cover degree must be positive, got {n}")
    tets = int(base["tets"])
    lifted = []
    for i in range(n):
        for g, c in zip(gluings, cocycle):
            lifted.append(
                {
                    "tet": i * tets + g["tet"],
                    "face": g["face"],
                    "to_tet": ((i + c) % n) * tets + g["to_tet"],
                    "to_face": g["to_face"],
                    "perm": list(g["perm"]),
                }
            )
    return {"tets": n * tets, "gluings": lifted}


def is_connected(tri):
    """True iff the face gluings connect all tetrahedra."""
    parent = list(range(int(tri["tets"])))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in tri["gluings"]:
        parent[find(g["tet"])] = find(g["to_tet"])
    return len({find(t) for t in range(len(parent))}) == 1


def relabel(tri, perm):
    """The same gluing with tetrahedron t renamed perm[t]."""
    return {
        "tets": tri["tets"],
        "gluings": [
            dict(g, tet=int(perm[g["tet"]]), to_tet=int(perm[g["to_tet"]])) for g in tri["gluings"]
        ],
    }
