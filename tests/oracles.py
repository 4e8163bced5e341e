"""Independent brute-force references the tests compare against.

Everything here is deliberately naive: grid scans, golden-section searches,
transitive-closure reachability, exhaustive enumeration, coordinate descent
over a fundamental cycle basis. Nothing imports the solver internals.
"""

import itertools
import math

import numpy as np
import scipy.linalg
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from dvrate import ChainSpec, stationary_distribution

GOLDEN = (math.sqrt(5) - 1) / 2


def golden_min(f, a, b, iters=120):
    """Golden-section minimum of a unimodal f on [a, b]."""
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def dense_generator(chain):
    """The n x n generator R - diag(exit rates), accumulated edge by edge."""
    L = np.zeros((chain.n_states, chain.n_states))
    np.add.at(L, (chain.edge_src, chain.edge_dst), chain.edge_rates)
    np.add.at(L, (chain.edge_src, chain.edge_src), -chain.edge_rates)
    return L


def gather_ref(chain, values, on_edges, default=0.0):
    """The array of a value mapping, one key at a time: a state's position
    in chain.states, an edge's in chain.edge_pairs(); missing keys get
    default."""
    keys = chain.edge_pairs() if on_edges else chain.states
    position = {k: p for p, k in enumerate(keys)}
    v = np.full(len(position), float(default))
    for key, w in values.items():
        v[position[key]] = float(w)
    return v


def stationary_ref(chain, steps=4):
    """pi from a dense LU of L^T with one balance row replaced by
    sum pi = 1, then `steps` rounds of iterative refinement whose residuals
    are formed in np.longdouble. The diagonal of that residual uses exit
    rates summed in long double, so the generator's rows sum to zero to
    long-double rounding rather than to double rounding.

    The replaced row is the last state's in a first solve, then the row of
    the state of largest mass: the dropped balance equation absorbs the
    other rows' residuals, which swamp a state of tiny mass."""
    n = chain.n_states
    diag = np.arange(n)
    LT = np.zeros((n, n))
    LT[chain.edge_dst, chain.edge_src] = chain.edge_rates
    LT[diag, diag] = -chain.exit_rates
    exits = np.add.reduceat(chain.edge_rates.astype(np.longdouble), chain.row_offsets[:-1])

    def solve(k):
        M = LT.copy()
        M[k, :] = 1.0
        lu = scipy.linalg.lu_factor(M)
        M = M.astype(np.longdouble)
        rows = diag[diag != k]
        M[rows, rows] = -exits[rows]
        b = np.zeros(n, dtype=np.longdouble)
        b[k] = 1.0
        x = scipy.linalg.lu_solve(lu, b.astype(float)).astype(np.longdouble)
        for _ in range(steps):
            x += scipy.linalg.lu_solve(lu, (b - M @ x).astype(float))
        return x / x.sum()

    return solve(int(np.argmax(solve(n - 1))))


def cumulative_rates_ref(chain):
    """Cumulative out-rates of each state, one np.cumsum per row."""
    cum = np.empty(chain.n_edges)
    for s in range(chain.n_states):
        lo, hi = chain.row_offsets[s], chain.row_offsets[s + 1]
        cum[lo:hi] = np.cumsum(chain.edge_rates[lo:hi])
    return cum


def max_spanning_tree_ref(n, weights):
    """Largest total weight of a spanning tree of the undirected graph
    {(a, b): w}, by trying every set of n - 1 pairs."""
    best = -math.inf
    for pairs in itertools.combinations(weights, n - 1):
        root = list(range(n))

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        for a, b in pairs:
            root[find(a)] = find(b)
        if len({find(v) for v in range(n)}) == 1:
            best = max(best, sum(weights[p] for p in pairs))
    return best


def reduced_laplacian_ref(src, dst, k, q):
    """L[1:,1:], dense, where L is the Laplacian of the undirected k-vertex
    graph carrying weight q on each edge (src, dst)."""
    A = np.zeros((k, k))
    np.add.at(A, (src, dst), q)
    A = A + A.T
    L = np.diag(A.sum(axis=1)) - A
    return L[1:, 1:]


def reduced_laplacian_solve_ref(src, dst, k, q, b):
    """x with L[1:,1:] x = b by dense LU."""
    return np.linalg.solve(reduced_laplacian_ref(src, dst, k, q), b)


def phi_ref(q, p):
    """Per-edge divergence, written as plainly as possible."""
    if q == 0.0 and p == 0.0:
        return 0.0
    if p == 0.0:
        return math.inf
    if q == 0.0:
        return p
    return q * math.log(q / p) - (q - p)


def joint_rate_ref(chain, mu_values, q_values, div_tol=1e-12):
    """Sum of per-edge divergences against mu(y) r(y,z), gated on divergence."""
    n = chain.n_states
    div = np.zeros(n)
    for e, (s, d) in enumerate(zip(chain.edge_src, chain.edge_dst)):
        div[s] += q_values[e]
        div[d] -= q_values[e]
    if np.abs(div).max() > div_tol * max(1.0, float(np.sum(q_values))):
        return math.inf
    total = 0.0
    for e, (s, d) in enumerate(zip(chain.edge_src, chain.edge_dst)):
        total += phi_ref(float(q_values[e]), float(mu_values[s] * chain.edge_rates[e]))
    return total


def two_state_symmetric_rate(chain, mu_values):
    """On a two-state chain every circulation is q on both edges; scan q."""
    assert chain.n_states == 2 and chain.n_edges == 2
    p = mu_values[chain.edge_src] * chain.edge_rates

    def obj(q):
        return phi_ref(q, p[0]) + phi_ref(q, p[1])

    hi = 3.0 * max(p.max(), 1.0)
    _, val = golden_min(obj, 1e-300, hi)
    return val


def single_cycle_rate(chain, mu_values):
    """On a single directed cycle every circulation is q on all edges."""
    p = mu_values[chain.edge_src] * chain.edge_rates

    def obj(q):
        return sum(phi_ref(q, float(pe)) for pe in p)

    hi = 3.0 * max(float(p.max()), 1.0)
    _, val = golden_min(obj, 1e-300, hi)
    return val


def phi_star_ref(chain, mu_values, f_values, iters=200):
    """sup_u { u f - phi(u, p) } edge by edge, by golden-section search."""
    total = 0.0
    for e, (s, _) in enumerate(zip(chain.edge_src, chain.edge_dst)):
        p = float(mu_values[s] * chain.edge_rates[e])
        if p == 0.0:
            continue
        fe = float(f_values[e])

        def neg(u):
            return -(u * fe - phi_ref(u, p))

        hi = 3.0 * p * math.exp(min(fe, 30.0)) + 1.0
        _, val = golden_min(neg, 0.0, hi, iters)
        total += -val
    return total


def reachable(n, edges):
    """Boolean transitive closure by repeated squaring-free propagation."""
    R = [[i == j for j in range(n)] for i in range(n)]
    for i, j in edges:
        R[i][j] = True
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if not R[i][j]:
                    if any(R[i][k] and R[k][j] for k in range(n)):
                        R[i][j] = True
                        changed = True
    return R


def mutual_classes_ref(vertices, edges):
    """Mutual-reachability classes as frozensets, via transitive closure."""
    verts = sorted(int(v) for v in vertices)
    pos = {v: i for i, v in enumerate(verts)}
    local = [(pos[int(a)], pos[int(b)]) for a, b in edges]
    R = reachable(len(verts), local)
    classes = []
    seen = set()
    for i, v in enumerate(verts):
        if v in seen:
            continue
        cls = {verts[j] for j in range(len(verts)) if R[i][j] and R[j][i]}
        seen |= cls
        classes.append(frozenset(cls))
    return sorted(classes, key=min)


def support_partition_ref(chain, mu_values):
    """Support vertices and mutual-reachability partition by sorting: the
    vertices by np.unique, local indices by searchsorted, scipy's strong
    components ordered by np.unique(..., return_index=True). Returns
    (vertices, classes, class_of, internal_edges, cross_edges) with the
    dtypes dvrate.mutual_reachability_classes gives them."""
    edge_ids = np.nonzero(mu_values[chain.edge_src] > 0)[0]
    s, d = chain.edge_src[edge_ids], chain.edge_dst[edge_ids]
    verts = np.unique(np.concatenate([s, d]))
    nv = len(verts)
    src, dst = np.searchsorted(verts, s), np.searchsorted(verts, d)
    indptr = np.searchsorted(src, np.arange(nv + 1))
    adj = csr_array((np.ones(len(src)), dst, indptr), shape=(nv, nv))
    n_classes, labels = connected_components(adj, directed=True, connection="strong")
    first = np.unique(labels, return_index=True)[1]
    rank = np.empty(n_classes, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(n_classes)
    local = rank[labels]
    class_of = np.full(chain.n_states, -1, dtype=np.int64)
    class_of[verts] = local

    def split(keys, values):
        order = np.argsort(keys, kind="stable")
        cuts = np.cumsum(np.bincount(keys, minlength=n_classes))[:-1]
        return np.split(values[order], cuts)

    ks, kd = local[src], local[dst]
    inside = ks == kd
    return (verts, split(local, verts), class_of,
            split(ks[inside], edge_ids[inside]), edge_ids[~inside])


def valid_level_assignments(n_classes, class_edges):
    """All injective level maps into 1..n that strictly decrease along edges."""
    valid = []
    for perm in itertools.permutations(range(1, n_classes + 1)):
        if all(perm[a] > perm[b] for a, b in class_edges):
            valid.append(perm)
    return valid


def wls_fit_ref(xs, ys, ws):
    """Weighted least squares y ~ a + b x by explicit normal equations."""
    xs, ys, ws = map(np.asarray, (xs, ys, ws))
    sw = ws.sum()
    sx = (ws * xs).sum()
    sy = (ws * ys).sum()
    sxx = (ws * xs * xs).sum()
    sxy = (ws * xs * ys).sum()
    det = sw * sxx - sx * sx
    b = (sw * sxy - sx * sy) / det
    a = (sy * sxx - sx * sxy) / det
    return a, b


def gillespie_ref(chain, x0_ix, horizon, seedseq):
    """(occ, counts) of one path, written as a plain per-jump loop.

    Spells out the documented order of uniform consumption: one uniform per
    holding time, -log1p(-u)/r(x) with the scalar math.log1p, then one for the
    target by searchsorted on the cumulative rate row; the censored last
    holding time takes its uniform and no target. The stream is read one
    uniform at a time, with no block."""
    cum = np.empty(chain.n_edges)
    for s in range(chain.n_states):
        lo, hi = chain.row_offsets[s], chain.row_offsets[s + 1]
        cum[lo:hi] = np.cumsum(chain.edge_rates[lo:hi])
    gen = np.random.Generator(np.random.Philox(seedseq))
    occ = np.zeros(chain.n_states)
    counts = np.zeros(chain.n_edges, dtype=np.int64)
    t = 0.0
    x = x0_ix
    while True:
        r = chain.exit_rates[x]
        dt = -math.log1p(-gen.random()) / r
        if t + dt >= horizon:
            occ[x] += horizon - t
            return occ, counts
        occ[x] += dt
        t += dt
        lo = chain.row_offsets[x]
        hi = chain.row_offsets[x + 1]
        e = lo + np.searchsorted(cum[lo:hi], gen.random() * r, side="right")
        if e >= hi:  # the rounding tie at the row total
            e = hi - 1
        counts[e] += 1
        x = chain.edge_dst[e]


def fundamental_cycle_basis(
    chain: ChainSpec, vertices: np.ndarray, edge_ids: np.ndarray
) -> list:
    """Signed fundamental cycles of the subgraph (vertices, edge_ids).

    A BFS spanning tree of the undirected view gives, for every non-tree
    edge (u,v), the cycle "edge forward, then tree path v back to u"; tree
    edges traversed against their direction get sign -1. Returns a list of
    (edge_id_array, sign_array) pairs; each is a circulation.
    """
    vset = {int(v) for v in vertices}
    adj: dict[int, list] = {v: [] for v in vset}
    for e in map(int, edge_ids):
        s, d = int(chain.edge_src[e]), int(chain.edge_dst[e])
        adj[s].append((d, e, +1))
        adj[d].append((s, e, -1))
    for v in adj:
        adj[v].sort()

    parent: dict[int, tuple] = {}  # vertex -> (prev vertex, edge id, sign)
    visited = set()
    tree_edges = set()
    for root in sorted(vset):
        if root in visited:
            continue
        visited.add(root)
        parent[root] = (-1, -1, 0)
        queue = [root]
        while queue:
            v = queue.pop(0)
            for w, e, sign in adj[v]:
                if w not in visited:
                    visited.add(w)
                    parent[w] = (v, e, sign)
                    tree_edges.add(e)
                    queue.append(w)

    def climb(v):
        steps = []
        while parent[v][0] != -1:
            p, e, sign = parent[v]
            steps.append((e, sign))
            v = p
        return steps, v

    basis = []
    for e in map(int, edge_ids):
        if e in tree_edges:
            continue
        u, v = int(chain.edge_src[e]), int(chain.edge_dst[e])
        up_u, root_u = climb(u)
        up_v, root_v = climb(v)
        assert root_u == root_v
        # drop the shared suffix above the LCA
        while up_u and up_v and up_u[-1] == up_v[-1]:
            up_u.pop()
            up_v.pop()
        # stored sign is for parent->child traversal; climbing v->lca crosses
        # each tree edge child->parent, the u side is walked lca->u as stored
        ids = [e]
        signs = [1]
        for ee, sign in up_v:
            ids.append(ee)
            signs.append(-sign)
        for ee, sign in reversed(up_u):
            ids.append(ee)
            signs.append(sign)
        basis.append((np.array(ids, dtype=np.int64), np.array(signs, dtype=np.int64)))
    return basis


def cycles_class_ref(chain, verts, eids, p, tol_first_order=1e-11, max_sweeps=5000):
    """Optimal class flow on (verts, eids) against typical flux p, by
    minimizing the class primal over fundamental-cycle coefficients.

    Returns (q, sweeps), q aligned with eids.

    Starts from the class-stationary flow (strictly positive circulation) and
    does cyclic exact coordinate descent: each 1-d problem is convex on its
    feasibility interval with derivative sum_e sign_e log((q_e + sign_e t)/p_e),
    solved by bisection. Stops when every basis cycle's first-order residual
    is below tol_first_order.
    """
    sub_states = [int(v) for v in verts]
    rates = {
        (int(chain.edge_src[e]), int(chain.edge_dst[e])): float(chain.edge_rates[e])
        for e in map(int, eids)
    }
    sub = ChainSpec(sub_states, rates)
    # sub-chain states are the sorted class vertices, so its edge order matches eids
    pi_sub = stationary_distribution(sub).values
    q = pi_sub[sub.edge_src] * sub.edge_rates

    pos = {int(e): i for i, e in enumerate(eids)}
    basis = [
        (np.array([pos[int(e)] for e in ids]), signs.astype(float))
        for ids, signs in fundamental_cycle_basis(chain, verts, eids)
    ]
    logp = np.log(p)

    def line_min(idxs, signs):
        qa = q[idxs]

        def deriv(t):
            vals = qa + signs * t
            if np.any(vals <= 0.0):
                return None
            return float(signs @ (np.log(vals) - logp[idxs]))

        lo = float(-qa[signs > 0].min())
        hi_edges = qa[signs < 0]
        hi = float(hi_edges.min()) if hi_edges.size else np.inf
        b = 1.0 if not np.isfinite(hi) else 0.5 * (hi + max(lo, 0.0))
        if np.isfinite(hi):
            a, b = lo, hi
        else:
            a = lo
            while True:
                d = deriv(b)
                if d is not None and d > 0.0:
                    break
                a = b
                b = 2.0 * b + 1.0
        for _ in range(200):
            mid = 0.5 * (a + b)
            d = deriv(mid)
            if d is None:
                # infeasible midpoint can only happen at the brackets' edges
                if mid > 0:
                    b = mid
                else:
                    a = mid
            elif d < 0.0:
                a = mid
            else:
                b = mid
            if b - a <= 1e-17 * max(1.0, abs(a), abs(b)):
                break
        t = 0.5 * (a + b)
        vals = qa + signs * t
        if np.any(vals <= 0.0):
            return 0.0
        q[idxs] = vals
        return t

    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        worst = 0.0
        for idxs, signs in basis:
            resid = abs(float(signs @ (np.log(q[idxs]) - logp[idxs])))
            worst = max(worst, resid)
            if resid > 1e-16:
                line_min(idxs, signs)
        if worst <= tol_first_order:
            return q, sweeps
    raise AssertionError(
        f"cycle-basis descent did not reach first-order tolerance in "
        f"{max_sweeps} sweeps"
    )


def approximating_ref(potential, classes, h, n):
    """g^(n) class by class: the potential's values on each class clipped to
    [-n/3, n/3] and lifted by h[k] * n; zero off the classes."""
    g = np.zeros(len(potential))
    cap = n / 3.0
    for k, verts in enumerate(classes):
        g[verts] = np.clip(potential[verts], -cap, cap) + float(h[k] * n)
    return g
