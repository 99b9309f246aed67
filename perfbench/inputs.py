"""Seeded inputs for the benchmark, generated here and nowhere else.

Every input the program receives is `.dlk` system text or a session
command built by this module from the run's seed, never through the
program's own generator, so a change to the program cannot change what
is measured. Each system carries the verdict it must get by
construction, never by an earlier run of the program:

* a system whose transactions are all two-phase (every lock precedes
  every unlock) is SAFE;
* a copy of the paper's Fig. 5 pair beside a disjoint two-phase group is
  SAFE (the pair is safe, and no cycle of G leaves a component);
* a system holding a crossed non-two-phase pair (T_a releases x before
  locking y, T_b releases y before locking x, x and y on two sites) is
  UNSAFE by Theorem 2.

Systems are kept to a band of reachable lock states (counted here, by a
search of the benchmark's own) so that no deadlock search nears the
analyzer's state budget and ops cost about the same on every seed.
"""

import hashlib
import random

SAFE = "SAFE"
UNSAFE = "UNSAFE"

# Band of states a deadlock search explores on a corpus system: the floor
# keeps the search a real share of every op, the narrow width keeps ops
# of similar cost. DISCOVERED_CAP keeps every search far below the
# analyzer's 16,384-state pass budget.
STATE_BAND = (500, 1500)
DISCOVERED_CAP = 4096
MAX_TRIES = 1000


class Txn:
    """A transaction: `steps` are (kind, entity) in file order, `edges`
    explicit precedences between step indices."""

    def __init__(self, name, steps, edges=()):
        self.name = name
        self.steps = list(steps)
        self.edges = list(edges)

    def block(self):
        lines = ["txn %s" % self.name]
        lines += ["  %s %s" % s for s in self.steps]
        lines += ["  edge %d %d" % e for e in self.edges]
        lines.append("end")
        return "\n".join(lines)


class System:
    """One generated system: its text, its known verdict and its shape."""

    def __init__(self, name, shape, expect, sites, site_of, txns):
        self.name = name
        self.shape = shape
        self.expect = expect
        self.sites = sites
        self.site_of = dict(site_of)
        self.txns = list(txns)
        self.text = self.render()

    def render(self):
        head = ["sites %d" % self.sites]
        head += ["entity %s %d" % (e, s) for e, s in self.site_of.items()]
        return ("\n".join(head) + "\n\n" +
                "\n\n".join(t.block() for t in self.txns) + "\n")


def two_phase(name, entities, site_of):
    """Locks, then unlocks, in file order. The parser chains the steps at
    one site, so only cross-site lock-before-unlock edges are explicit."""
    n = len(entities)
    steps = [("lock", e) for e in entities] + [("unlock", e) for e in entities]
    edges = [(i, n + j) for i, a in enumerate(entities)
             for j, b in enumerate(entities) if site_of[a] != site_of[b]]
    return Txn(name, steps, edges)


def crossed_pair(x, y):
    """T_a does x then y, T_b y then x; each releases its first entity
    before locking the second (x and y on different sites)."""
    def one(name, first, second):
        return Txn(name, [("lock", first), ("unlock", first),
                          ("lock", second), ("unlock", second)], [(1, 2)])
    return [one("Ca", x, y), one("Cb", y, x)]


FIG5_ENTITIES = ("x1", "x2", "y1", "y2")


def fig5_pair():
    """The paper's Fig. 5 safe pair over x1, x2, y1, y2 (one site each).

    Steps: 0 Lx1 1 Ux1 2 Lx2 3 Ux2 4 Ly1 5 Uy1 6 Ly2 7 Uy2.
    """
    steps = [(kind, e) for e in FIG5_ENTITIES for kind in ("lock", "unlock")]
    return [
        Txn("F1", steps,
            [(0, 3), (2, 1), (4, 7), (6, 5), (4, 1), (6, 3), (0, 5)]),
        Txn("F2", steps,
            [(2, 1), (0, 3), (6, 5), (4, 7), (2, 5), (0, 7), (4, 1)]),
    ]


def search_states(system, cap):
    """(explored, discovered) of a breadth-first search over the lock
    states of `system` that stops at the first dead state, as a deadlock
    search does; gives up once more than `cap` states are discovered."""
    txns = []
    for t in system.txns:
        preds = [0] * len(t.steps)
        last = {}
        for s, (_, e) in enumerate(t.steps):
            site = system.site_of[e]
            if site in last:
                preds[s] |= 1 << last[site]
            last[site] = s
        for a, b in t.edges:
            preds[b] |= 1 << a
        txns.append((t.steps, preds, (1 << len(t.steps)) - 1))
    start = tuple(0 for _ in txns)
    seen = {start}
    queue = [start]
    explored = 0
    while explored < len(queue):
        state = queue[explored]
        explored += 1
        held = {}
        for i, ((steps, _, _), done) in enumerate(zip(txns, state)):
            for s, (kind, e) in enumerate(steps):
                if done >> s & 1:
                    if kind == "lock":
                        held[e] = i
                    elif held.get(e) == i:
                        del held[e]
        moved = False
        for i, ((steps, preds, _), done) in enumerate(zip(txns, state)):
            for s, (kind, e) in enumerate(steps):
                if done >> s & 1 or preds[s] & ~done:
                    continue
                if kind == "lock" and e in held:
                    continue
                moved = True
                succ = state[:i] + (done | 1 << s,) + state[i + 1:]
                if succ not in seen:
                    seen.add(succ)
                    queue.append(succ)
                    if len(seen) > cap:
                        return explored, len(seen)
        if not moved and any(d != full for (_, _, full), d in
                             zip(txns, state)):
            break
    return explored, len(seen)


def entities(count, sites, prefix="e"):
    names = ["%s%d" % (prefix, i) for i in range(count)]
    return names, {e: i % sites for i, e in enumerate(names)}


def zipf_pick(rng, names, count, skew):
    weights = [1.0 / (i + 1) ** skew for i in range(len(names))]
    chosen = set()
    while len(chosen) < count:
        chosen.add(rng.choices(range(len(names)), weights)[0])
    return [names[i] for i in sorted(chosen)]


def ring_txns(names, site_of, prefix="T"):
    k = len(names)
    return [two_phase("%s%d" % (prefix, t + 1),
                      [names[t], names[(t + 1) % k]], site_of)
            for t in range(k)]


def make_ring(rng):
    names, site_of = entities(rng.randint(5, 7), 2)
    rng.shuffle(names)
    return System("", "ring", SAFE, 2, site_of, ring_txns(names, site_of))


def make_two_site(rng):
    names, site_of = entities(rng.randint(5, 7), 2)
    txns = [two_phase("T%d" % (t + 1),
                      sorted(rng.sample(names, 2), key=names.index), site_of)
            for t in range(rng.randint(5, 7))]
    return System("", "two_site", SAFE, 2, site_of, txns)


def make_hotkey(rng):
    names, site_of = entities(8, 4)
    txns = [two_phase("T%d" % (t + 1), zipf_pick(rng, names, 2, 1.2),
                      site_of)
            for t in range(rng.randint(5, 7))]
    return System("", "hotkey", SAFE, 4, site_of, txns)


def make_dense(rng):
    names, site_of = entities(rng.randint(5, 7), 2)
    txns = [two_phase("T%d" % (t + 1), names, site_of)
            for t in range(rng.randint(6, 7))]
    return System("", "dense", SAFE, 2, site_of, txns)


def make_fig5(rng):
    site_of = {e: j for j, e in enumerate(FIG5_ENTITIES)}
    names, ring_sites = entities(rng.randint(2, 4), 4, prefix="r")
    site_of.update(ring_sites)
    txns = fig5_pair() + ring_txns(names, site_of)
    rng.shuffle(txns)
    return System("", "fig5", SAFE, 4, site_of, txns)


def make_crossed(rng):
    names, site_of = entities(rng.randint(4, 6), 2)
    x = rng.choice(names)
    y = rng.choice([e for e in names if site_of[e] != site_of[x]])
    txns = ring_txns(names, site_of) + crossed_pair(x, y)
    rng.shuffle(txns)
    return System("", "crossed", UNSAFE, 2, site_of, txns)


SHAPES = [make_ring, make_two_site, make_hotkey, make_dense, make_fig5,
          make_crossed]


def corpus(seed, per_shape):
    """`per_shape` systems of every shape, interleaved, from `seed`; each
    inside STATE_BAND."""
    rng = random.Random("corpus:%d" % seed)
    out = []
    for i in range(per_shape):
        for make in SHAPES:
            for _ in range(MAX_TRIES):
                system = make(rng)
                explored, found = search_states(system, DISCOVERED_CAP)
                # Three or more transactions, so the analyzer states a
                # system-level verdict of its own (the gate needs one).
                if (len(system.txns) >= 3 and found <= DISCOVERED_CAP and
                        STATE_BAND[0] <= explored <= STATE_BAND[1]):
                    break
            else:
                raise RuntimeError("no %s system in the state band after %d "
                                   "tries" % (make.__name__, MAX_TRIES))
            system.name = "%s%d" % (system.shape, i)
            out.append(system)
    return out


def digest(parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def churn_streams(seed, clients, k, rounds, extra):
    """The edit_churn catalog and one edit stream per client.

    Each client owns a two-phase ring of k transactions over two sites
    (T_i locking {e_i, e_(i+1 mod k)}, names prefixed by the client), and
    the base catalog is all the rings. A client first adds `extra`
    transactions beside its ring; then every round adds one, removes one
    and replaces one, in a seeded order, and ends with a `check`. Each
    added transaction sits on a ring span apart from the others', so the
    cycle count of G stays the same on every seed while the transactions
    move. Every transaction stays two-phase, so every decided check must
    answer SAFE. Each stream ends back at its base ring, so it can be
    replayed in a loop. Returns (base, streams); a stream command is
    (verb, arg, block)."""
    site_of, txns, streams = {}, [], []
    for c in range(clients):
        names, sites = entities(k, 2, prefix="c%de" % c)
        ring = ring_txns(names, sites, prefix="c%dT" % c)
        site_of.update(sites)
        txns += ring
        streams.append(churn_client(random.Random("churn:%d:%d" % (seed, c)),
                                    names, sites, ring, "c%dA" % c, rounds,
                                    extra))
    return System("churn_base", "ring", SAFE, 2, site_of, txns), streams


def churn_client(rng, names, site_of, ring, prefix, rounds, extra):
    k = len(names)
    where = {}  # added transaction -> its ring position
    serial = [0]
    out = []

    def block(name, a):
        pair = [names[a], names[(a + 1) % k]]
        if rng.random() < 0.5:
            pair.reverse()
        return two_phase(name, pair, site_of).block()

    def free_position():
        taken = set(where.values())
        return rng.choice([a for a in range(k) if not taken &
                           {(a - 1) % k, a, (a + 1) % k}])

    def add():
        serial[0] += 1
        name = "%s%d" % (prefix, serial[0])
        where[name] = free_position()
        out.append(("add", None, block(name, where[name])))

    def remove():
        name = rng.choice(sorted(where))
        del where[name]
        out.append(("remove", name, None))

    def replace():
        if rng.random() < 0.5:
            # A ring transaction keeps its span, maybe flipping order.
            t = rng.randrange(k)
            out.append(("replace", ring[t].name, block(ring[t].name, t)))
        else:
            name = rng.choice(sorted(where))
            del where[name]
            where[name] = free_position()
            out.append(("replace", name, block(name, where[name])))

    for _ in range(extra):
        add()
    out.append(("check", None, None))
    for _ in range(rounds):
        edits = [add, remove, replace]
        rng.shuffle(edits)
        for edit in edits:
            edit()
        out.append(("check", None, None))
    for name in sorted(where):
        out.append(("remove", name, None))
    for t in ring:
        out.append(("replace", t.name, t.block()))
    out.append(("check", None, None))
    return out


# serve_mixed follows the client script of `dislock_bench --bench=serve`:
# a `check` every 32nd command of a client, and writes that keep a rolling
# window of at most 2 live transactions per client (add while fewer are
# live, else retire the oldest). Two extensions: the oldest is replaced
# once before it is removed, so adds, replaces and removes come in equal
# shares; and every other non-check slot, by a seeded coin, is a `list`
# or `stats` read instead, so reads and writes each fill about half of a
# block's samples.
MIXED_CHECK_EVERY = 32
MIXED_WINDOW = 2


def mixed_streams(seed, ring, clients, per_client):
    """The serve_mixed catalog and one command stream per client.

    The base is a two-phase ring of `ring` transactions plus four private
    entities per client. Each client's writes are two-phase transactions
    over its own private entities, so no client changes what another's
    commands cost. Returns (base, streams); a stream command is (verb,
    arg, block, the client's live transactions after it). Each stream
    ends with none of its client's transactions live, so it can be
    replayed in a loop."""
    names, site_of = entities(ring, 2)
    private = []
    for c in range(clients):
        own = ["p%d_%d" % (c, j) for j in range(4)]
        site_of.update({e: j % 2 for j, e in enumerate(own)})
        private.append(own)
    base = System("mixed_base", "ring", SAFE, 2, site_of,
                  ring_txns(names, site_of))
    streams = []
    for c in range(clients):
        rng = random.Random("mixed:%d:%d" % (seed, c))
        live, replaced, serial, out = [], set(), 0, []

        def txn(name):
            lock = sorted(rng.sample(private[c], 2))
            return two_phase(name, lock, site_of).block()

        for j in range(per_client):
            if j % MIXED_CHECK_EVERY == MIXED_CHECK_EVERY - 1:
                out.append(("check", None, None, tuple(live)))
            elif rng.random() < 0.5:
                verb = rng.choice(["list", "stats"])
                out.append((verb, None, None, tuple(live)))
            elif len(live) < MIXED_WINDOW:
                serial += 1
                name = "c%d_t%d" % (c, serial)
                live.append(name)
                out.append(("add", None, txn(name), tuple(live)))
            elif live[0] not in replaced:
                replaced.add(live[0])
                out.append(("replace", live[0], txn(live[0]), tuple(live)))
            else:
                name = live.pop(0)
                out.append(("remove", name, None, tuple(live)))
        while live:
            out.append(("remove", live.pop(), None, tuple(live)))
        streams.append(out)
    return base, streams
