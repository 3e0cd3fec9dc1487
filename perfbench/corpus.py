"""Seeded corpus, edit and request-schedule generator for the benchmark.

Everything the program sees is written by this module from the workload
seed alone, together with the ground truth the benchmark checks against:
the expected report set of the corpus (file, line, checker, message), the
expected report set and baseline delta after every edit, and the expected
reports of every one-file service request.

The corpus mixes three shapes (see README.md, "Workloads"):

  h*.c    private helpers with long correlated ``if (a > k)`` chains;
  lib*.c  a shared library DAG that the roots in app*.c call, with balanced
          locking in the roots and outside the callees' critical sections;
  fpp*.c  the Section 8 kill and false-path decoys (silent) beside the true
          use-after-free and synonym bugs they shadow.

Shape sizes are fixed and only names, constants, call targets and bug
positions vary with the seed, so every seed costs the program about the same.

One pattern is deliberately absent: a shared callee that re-acquires a lock
its caller holds. Its lock reports depend on ``--jobs`` (README.md, "Known
divergence"), so no ground truth can be stated for it.
"""

import os

HELPER_FILES = 84      # x 18 roots
HELPER_ROOTS = 18
HELPER_BUGS = 6        # use-after-free roots per helper file
HELPER_DIAMONDS = 14
LIB_LEVELS = 4
LIB_FILES_PER_LEVEL = 2
LIB_FNS = 12           # per lib file
LIB_DIAMONDS = 6
APP_FILES = 24         # x 16 roots
APP_ROOTS = 16
APP_BUGS = 2           # lost-lock roots per app file
FPP_FILES = 4
FPP_GROUPS = 6         # x (kill, fpp, real, syn) + one pad root per file

FREE = "free_checker"
LOCK = "lock_checker"


class Rng:
    """splitmix64: the same stream on every platform and Python version."""

    def __init__(self, seed):
        self.s = (seed * 0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019) & (2**64 - 1)

    def next(self):
        self.s = (self.s + 0x9E3779B97F4A7C15) & (2**64 - 1)
        z = self.s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
        return z ^ (z >> 31)

    def below(self, n):
        return self.next() % n

    def pick(self, seq):
        return seq[self.below(len(seq))]

    def sample(self, seq, k):
        pool = list(seq)
        for i in range(k):
            j = i + self.below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def shuffle(self, seq):
        for i in range(len(seq) - 1, 0, -1):
            j = self.below(i + 1)
            seq[i], seq[j] = seq[j], seq[i]


class Fn:
    """One editable function: its file, its edit-line constant, and (for app
    roots) whether its lost-lock bug is present and the constant of the
    branch that loses the lock. The fingerprint of a lost-lock report hashes
    that branch, so edits change only the edit line."""

    def __init__(self, kind, file, name, const, bug=False, cond=0):
        self.kind, self.file, self.name = kind, file, name
        self.const, self.bug, self.cond = const, bug, cond


class Corpus:
    """The generated program. ``render(file)`` gives a file's bytes and the
    reports it must produce; ``edit_*`` mutate it and return the edited file.
    """

    def __init__(self, seed, helper_files=HELPER_FILES):
        self.seed = seed
        self.helper_files = helper_files
        rng = Rng(seed)
        self.rng = rng
        self.files = []
        self.fns = {}          # name -> Fn (editable functions)
        self.by_file = {}      # file -> [Fn] in emission order
        self.helper = {}       # file -> (bug root indices, diamond consts)
        self.lib_calls = {}    # lib fn -> [lower lib fns]
        self.app_calls = {}    # app root -> [lib fns]
        self.fpp_order = {}    # fpp file -> group kinds order
        self.edit_counter = 1000 + rng.below(1000)
        self._reports = {}     # file -> report set, dropped on each edit

        for f in range(helper_files):
            name = "h%03d.c" % f
            bugs = set(rng.sample(range(HELPER_ROOTS), HELPER_BUGS))
            consts = [rng.below(90) + 1 for _ in range(HELPER_DIAMONDS)]
            self.helper[name] = (bugs, consts)
            self._add_file(name)
            for r in range(HELPER_ROOTS):
                self._add_fn(Fn("helper", name, "helper_%d_%d" % (f, r),
                                rng.below(500) + 1))

        # The library DAG and the roots' calls into it have one fixed shape;
        # the seed only relabels each level (a permutation), so every seed
        # gives an isomorphic call graph and the same analysis cost.
        levels = []
        for lvl in range(LIB_LEVELS):
            names = []
            below = levels[lvl - 1] if lvl else []
            for j in range(LIB_FILES_PER_LEVEL):
                fidx = lvl * LIB_FILES_PER_LEVEL + j
                name = "lib%02d.c" % fidx
                self._add_file(name)
                for k in range(LIB_FNS):
                    fn = "lib_%d_%d" % (fidx, k)
                    self._add_fn(Fn("lib", name, fn, rng.below(500) + 1))
                    i = len(names)
                    self.lib_calls[fn] = [below[i % len(below)],
                                          below[(i + 5) % len(below)]] \
                        if below else []
                    names.append(fn)
            rng.shuffle(names)
            levels.append(names)
        top = levels[-1] + levels[-2]

        for a in range(APP_FILES):
            name = "app%02d.c" % a
            self._add_file(name)
            bugs = set(rng.sample(range(APP_ROOTS), APP_BUGS))
            for r in range(APP_ROOTS):
                fn = "app_%d_%d" % (a, r)
                self._add_fn(Fn("app", name, fn, rng.below(500) + 1,
                                bug=r in bugs, cond=rng.below(13)))
                g = a * APP_ROOTS + r
                self.app_calls[fn] = [top[g % len(top)],
                                      top[(g + 7) % len(top)]]

        for d in range(FPP_FILES):
            name = "fpp%02d.c" % d
            self._add_file(name)
            order = ["kill", "fpp", "real", "syn"]
            rng.shuffle(order)
            self.fpp_order[name] = order
            self._add_fn(Fn("pad", name, "fpp_pad_%d" % d,
                            rng.below(500) + 1))

    def _add_file(self, name):
        self.files.append(name)
        self.by_file[name] = []

    def _add_fn(self, fn):
        self.fns[fn.name] = fn
        self.by_file[fn.file].append(fn)

    def roots(self):
        """Number of call-graph roots: defined functions nobody calls."""
        called = {c for cs in self.lib_calls.values() for c in cs}
        called.update(c for cs in self.app_calls.values() for c in cs)
        fns = [f.name for f in self.fns.values() if f.kind != "helper"]
        fns += ["%s_case%s_%d" % (k, name[3:5], g)
                for name in self.fpp_order for k in self.fpp_order[name]
                for g in range(FPP_GROUPS)]
        return len([f for f in fns if f not in called]) + \
            self.helper_files * HELPER_ROOTS

    # ------------------------------------------------------------------
    # Rendering

    def render(self, name):
        """Returns (text, reports) where reports are (file, line, checker,
        message) tuples this file must produce."""
        lines, reports = [], []

        def emit(s):
            lines.append(s)
            return len(lines)

        def report(line, checker, message):
            reports.append((name, line, checker, message))

        if name.startswith("h"):
            bugs, consts = self.helper[name]
            emit("void kfree(void *p);")
            for r, h in enumerate(self.by_file[name]):
                tag = h.name[len("helper_"):]
                emit("static int helper_%s(int *p, int a, int b) {" % tag)
                emit("  int acc = a;")
                emit("  acc = acc * 2 + %d;" % h.const)
                for d, c in enumerate(consts):
                    emit("  if (a > %d) { acc += %d; } else { acc -= b; }"
                         % (d, c))
                emit("  return acc + *p;")
                emit("}")
                emit("int root_%s(int v) {" % tag)
                emit("  int x = v;")
                emit("  int *p = &x;")
                if r in bugs:
                    emit("  kfree(p);")
                    ln = emit("  if (v > 1) { x = *p; }")
                    report(ln, FREE, "using p after free!")
                else:
                    emit("  x = helper_%s(p, v, 2);" % tag)
                    emit("  kfree(p);")
                emit("  return helper_%s(&x, x, v);" % tag)
                emit("}")
        elif name.startswith("lib"):
            fns = self.by_file[name]
            callees = sorted({c for f in fns for c in self.lib_calls[f.name]})
            for c in callees:
                emit("int %s(int v);" % c)
            for f in fns:
                emit("int %s(int v) {" % f.name)
                emit("  int acc = v;")
                emit("  acc = acc + %d;" % f.const)
                for d in range(LIB_DIAMONDS):
                    emit("  if (v > %d) { acc += %d; } else { acc -= 1; }"
                         % (d, (f.const + d) % 97))
                for c in self.lib_calls[f.name]:
                    emit("  acc += %s(acc);" % c)
                emit("  return acc;")
                emit("}")
        elif name.startswith("app"):
            fns = self.by_file[name]
            emit("void lock(int *l); void unlock(int *l);")
            callees = sorted({c for f in fns for c in self.app_calls[f.name]})
            for c in callees:
                emit("int %s(int v);" % c)
            for f in fns:
                emit("int %s(int *l, int v) {" % f.name)
                emit("  int r;")
                ln = emit("  lock(l);")
                emit("  r = v + %d;" % f.const)
                if f.bug:
                    emit("  if (v == %d) return -1;" % f.cond)
                    report(ln, LOCK, "lock l never released!")
                else:
                    emit("  if (v == %d) r = -1;" % f.cond)
                emit("  unlock(l);")
                for c in self.app_calls[f.name]:
                    emit("  r += %s(r);" % c)
                emit("  return r;")
                emit("}")
        else:
            d = name[3:5]
            emit("void kfree(void *p);")
            for g in range(FPP_GROUPS):
                for kind in self.fpp_order[name]:
                    fn = "%s_case%s_%d" % (kind, d, g)
                    if kind == "kill":
                        emit("int %s(int *p, int *q) {" % fn)
                        emit("  kfree(p);")
                        emit("  p = q;")
                        emit("  return *p;")
                        emit("}")
                    elif kind == "fpp":
                        emit("int %s(int *p, int x) {" % fn)
                        emit("  if (x) kfree(p);")
                        emit("  if (!x) return *p;")
                        emit("  return 0;")
                        emit("}")
                    elif kind == "real":
                        emit("int %s(int *p) {" % fn)
                        emit("  kfree(p);")
                        ln = emit("  return *p;")
                        emit("}")
                        report(ln, FREE, "using p after free!")
                    else:
                        emit("int %s(int *p) {" % fn)
                        emit("  int *alias;")
                        emit("  kfree(p);")
                        emit("  alias = p;")
                        emit("  p = 0;")
                        ln = emit("  return *alias;")
                        emit("}")
                        report(ln, FREE, "using alias after free!")
            pad = self.by_file[name][0]
            emit("int %s(int v) {" % pad.name)
            emit("  return v + %d;" % pad.const)
            emit("}")
        return "\n".join(lines) + "\n", reports

    def write(self, root):
        """Writes every file under ``root``; returns the full report set."""
        os.makedirs(root, exist_ok=True)
        expected = set()
        for name in self.files:
            text, reps = self.render(name)
            write_file(os.path.join(root, name), text)
            expected.update(reps)
        return expected

    def expected(self, files=None):
        out = set()
        for name in (files or self.files):
            if name not in self._reports:
                self._reports[name] = set(self.render(name)[1])
            out |= self._reports[name]
        return out

    # ------------------------------------------------------------------
    # Edits. Each keeps the file's line count, so untouched reports keep
    # their lines, and gives the function a never-seen constant, so the
    # edited file always misses the stores.

    def _bump(self, fn):
        self.edit_counter += 1 + self.rng.below(7)
        fn.const = self.edit_counter
        self._reports.pop(fn.file, None)
        return fn.file

    def edit_root(self):
        kind = "helper" if self.rng.below(5) else "app"
        fns = [f for f in self.fns.values() if f.kind == kind]
        return self._bump(self.rng.pick(fns))

    def edit_lib(self):
        """Edits a function of the library's top level: the 16 roots above it
        re-analyze."""
        called = {c for cs in self.lib_calls.values() for c in cs}
        top = [f for f in self.fns.values()
               if f.kind == "lib" and f.name not in called]
        return self._bump(self.rng.pick(top))

    def edit_file(self, name):
        return self._bump(self.rng.pick(self.by_file[name]))

    def toggle_bug(self, add):
        fns = [f for f in self.fns.values()
               if f.kind == "app" and f.bug != add]
        fn = self.rng.pick(fns)
        fn.bug = add
        self._reports.pop(fn.file, None)
        return fn.file


def write_file(path, text):
    with open(path, "w", newline="\n") as f:
        f.write(text)


def edit_plan(corpus, count):
    """A seeded edit sequence in blocks of ten: seven root-file edits, one
    shared-library edit, one bug added and one fixed, shuffled per block.
    Yields (kind, file, expected report set, expected baseline delta) after
    applying each edit to ``corpus``; the delta is (new, known, fixed)."""
    def kinds():
        for _ in range(0, count, 10):
            block = ["root"] * 7 + ["lib", "add", "fix"]
            corpus.rng.shuffle(block)
            yield from block

    before = len(corpus.expected())
    for _, kind in zip(range(count), kinds()):
        if kind == "root":
            f = corpus.edit_root()
        elif kind == "lib":
            f = corpus.edit_lib()
        else:
            f = corpus.toggle_bug(kind == "add")
        exp = corpus.expected()
        new = 1 if kind == "add" else 0
        fixed = 1 if kind == "fix" else 0
        assert len(exp) == before + new - fixed
        before = len(exp)
        yield kind, f, exp, (new, len(exp) - new, fixed)


def request_schedule(corpus, count, edit_every=10):
    """One-file service requests: (file, is_edit). Every ``edit_every``-th
    request (at a seeded phase) follows an edit of its file, always a helper
    file, so edit requests cost the same whatever the seed."""
    phase = corpus.rng.below(edit_every)
    helpers = [f for f in corpus.files if f.startswith("h")]
    out = []
    for i in range(count):
        edit = i % edit_every == phase
        out.append((corpus.rng.pick(helpers if edit else corpus.files), edit))
    return out
