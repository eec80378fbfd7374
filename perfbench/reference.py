#!/usr/bin/env python3
"""Reference outputs for the benchmark, computed apart from the program.

A standard-library evaluator (xml.parsers.expat) over the generated
documents. It never calls xqmft; it shares only the documents with it.

* The six selective Figure 3 queries (q01 q02 q04 q13 q16 q17) are
  evaluated directly: one expat pass collects each binding's subtree
  (person, open_auction, australia item, closed_auction) and applies the
  query's predicate and return clause to it.
* The deep-copy queries are checked by their defining property, built from
  the document's canonical re-serialization C (elements as <t>..</t>, text
  with & < > escaped, whitespace-only text dropped, as the program's
  parser does):
    double   = <double><r1>C</r1>C</double>
    deepdup  = <deepdup><r> then <r1><r2>Y</r2>Y</r1> per root child Y
               then </r></deepdup>
    fourstar = <fourstar> every element at depth >= 4, in document order,
               each with its subtree </fourstar>

Outputs are compared as (length, SHA-1) pairs; Expect is the checker.

Commands:
  python3 perfbench/reference.py expect <xmark|deep> <doc.xml> <cache-dir>
                                       [--rebuild]
      prints the expected CLI outputs of the document as JSON
      {query: [length, sha1]}. run.py calls this in a child process, so
      the reference's memory never shows in the peak RSS of the programs
      it spawns (Linux carries a parent's RSS high-water mark into an
      exec'd child's ru_maxrss).
  python3 perfbench/reference.py rebuild --workload W --seed N
      recomputes the references of one workload and seed, ignoring the
      memoized ones, and prints them (the generated inputs stay under
      .bench_work/<workload>-<seed>/).
  python3 perfbench/reference.py selftest
      shows that the checker accepts the program's output and rejects a
      one-byte change and a truncated output.
"""

import hashlib
import json
import os
import sys
import xml.parsers.expat

XMARK_QUERIES = ("q01", "q02", "q04", "q13", "q16", "q17")

# Where each selective query binds its for-variable.
_BINDINGS = {
    ("site", "people", "person"): ("q01", "q17"),
    ("site", "open_auctions", "open_auction"): ("q02", "q04"),
    ("site", "regions", "australia", "item"): ("q13",),
    ("site", "closed_auctions", "closed_auction"): ("q16",),
}

_WS = " \t\r\n"


def escape(text):
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class Node:
    __slots__ = ("tag", "kids")

    def __init__(self, tag):
        self.tag = tag
        self.kids = []  # Node or str (text)

    def children(self, tag):
        return [k for k in self.kids if isinstance(k, Node) and k.tag == tag]

    def texts(self):
        return [k for k in self.kids if isinstance(k, str)]

    def path(self, *tags):
        nodes = [self]
        for t in tags:
            nodes = [c for n in nodes for c in n.children(t)]
        return nodes

    def serialize(self, out):
        out.append("<%s>" % self.tag)
        for k in self.kids:
            if isinstance(k, str):
                out.append(escape(k))
            else:
                k.serialize(out)
        out.append("</%s>" % self.tag)


def _path_texts(node, *tags):
    return [t for n in node.path(*tags) for t in n.texts()]


def _q01(p, out):
    if "person0" in _path_texts(p, "person_id"):
        out.extend(escape(t) for t in _path_texts(p, "name"))


def _q17(p, out):
    if not _path_texts(p, "homepage"):
        out.append("<person><name>")
        out.extend(escape(t) for t in _path_texts(p, "name"))
        out.append("</name></person>")


def _q02(a, out):
    out.append("<increase>")
    for t in _path_texts(a, "bidder", "increase"):
        out.append("<bid>%s</bid>" % escape(t))
    out.append("</increase>")


def _q04(a, out):
    bidders = a.children("bidder")
    hit = False
    ref = ("personref", "personref_person")
    for i, b in enumerate(bidders):
        if "personXX" in _path_texts(b, *ref):
            later = bidders[i + 1:]
            if any("personYY" in _path_texts(c, *ref) for c in later):
                hit = True
                break
    if hit:
        out.append("<history>")
        out.extend(escape(t) for t in _path_texts(a, "reserve"))
        out.append("</history>")


def _q13(item, out):
    out.append("<item><name>")
    out.extend(escape(t) for t in _path_texts(item, "name"))
    out.append("</name><description>")
    for d in item.children("description"):
        d.serialize(out)
    out.append("</description></item>")


def _q16(c, out):
    chain = ("annotation", "description", "parlist", "listitem", "parlist",
             "listitem", "text", "emph", "keyword")
    if _path_texts(c, *chain):
        out.append("<person><id>")
        for s in c.path("seller", "seller_person"):
            s.serialize(out)
        out.append("</id></person>")


_EVAL = {"q01": _q01, "q02": _q02, "q04": _q04, "q13": _q13, "q16": _q16,
         "q17": _q17}
ROOT_TAG = {"q01": "query01", "q02": "query02", "q04": "query04",
         "q13": "query13", "q16": "query16", "q17": "query17"}


def _parser():
    p = xml.parsers.expat.ParserCreate()
    p.buffer_text = True
    p.buffer_size = 1 << 20

    def no_attrs(name, attrs):
        raise ValueError("unexpected attribute on <%s>" % name)
    return p, no_attrs


def xmark_bodies(path, queries=XMARK_QUERIES):
    """Query outputs over one XMark-profile document, as bytes without the
    CLI's trailing newline (what a server response carries)."""
    parts = {q: ["<%s>" % ROOT_TAG[q]] for q in queries}
    wanted = {k: tuple(q for q in v if q in parts)
              for k, v in _BINDINGS.items()}
    tags = []
    build = []
    binding = [None]
    p, no_attrs = _parser()

    def start(name, attrs):
        if attrs:
            no_attrs(name, attrs)
        if build:
            n = Node(name)
            build[-1].kids.append(n)
            build.append(n)
            return
        tags.append(name)
        qs = wanted.get(tuple(tags))
        if qs:
            binding[0] = qs
            build.append(Node(name))

    def end(name):
        if build:
            n = build.pop()
            if build:
                return
            tags.pop()
            for q in binding[0]:
                _EVAL[q](n, parts[q])
            return
        tags.pop()

    def text(data):
        if build and data.strip(_WS):
            build[-1].kids.append(data)

    p.StartElementHandler = start
    p.EndElementHandler = end
    p.CharacterDataHandler = text
    with open(path, "rb") as f:
        p.ParseFile(f)
    out = {}
    for q in queries:
        parts[q].append("</%s>" % ROOT_TAG[q])
        out[q] = "".join(parts[q]).encode()
    return out


def canonical(path):
    """The document's canonical serialization and the (start, end) byte
    spans of its elements in document order, with their depths."""
    parts = []
    pos = 0
    spans = []  # [start, end, depth]
    open_ = []
    p, no_attrs = _parser()

    def start(name, attrs):
        nonlocal pos
        if attrs:
            no_attrs(name, attrs)
        open_.append(len(spans))
        spans.append([pos, 0, len(open_)])
        s = "<%s>" % name
        parts.append(s)
        pos += len(s)

    def end(name):
        nonlocal pos
        s = "</%s>" % name
        parts.append(s)
        pos += len(s)
        spans[open_.pop()][1] = pos

    def text(data):
        nonlocal pos
        if data.strip(_WS):
            s = escape(data)
            parts.append(s)
            pos += len(s)

    p.StartElementHandler = start
    p.EndElementHandler = end
    p.CharacterDataHandler = text
    with open(path, "rb") as f:
        p.ParseFile(f)
    doc = "".join(parts).encode()
    assert len(doc) == pos, "reference needs ASCII documents"
    return doc, spans


class Expect:
    """Checker for one output: its length and SHA-1, fed in chunks."""

    def __init__(self, length, sha1):
        self.length = length
        self.sha1 = sha1

    @staticmethod
    def of(data):
        return Expect(len(data), hashlib.sha1(data).hexdigest())

    @staticmethod
    def of_parts(parts):
        h = hashlib.sha1()
        n = 0
        for part in parts:
            h.update(part)
            n += len(part)
        return Expect(n, h.hexdigest())

    def to_json(self):
        return [self.length, self.sha1]

    @staticmethod
    def from_json(v):
        return Expect(v[0], v[1])

    def matches(self, length, sha1):
        return length == self.length and sha1 == self.sha1

    def check(self, data):
        return self.matches(len(data), hashlib.sha1(data).hexdigest())


def deep_expectations(path):
    """Expected CLI outputs (trailing newline included) of the deep-copy
    queries, by property."""
    doc, spans = canonical(path)
    root_kids = [(s, e) for s, e, d in spans if d == 2]
    mv = memoryview(doc)
    double = Expect.of_parts([b"<double><r1>", mv, b"</r1>", mv,
                              b"</double>\n"])

    def fourstar_parts():
        yield b"<fourstar>"
        for s, e, d in spans:
            if d >= 4:
                yield mv[s:e]
        yield b"</fourstar>\n"

    def deepdup_parts():
        yield b"<deepdup><r>"
        for s, e in root_kids:
            y = mv[s:e]
            yield b"<r1><r2>"
            yield y
            yield b"</r2>"
            yield y
            yield b"</r1>"
        yield b"</r></deepdup>\n"

    return {
        "double": double,
        "fourstar": Expect.of_parts(fourstar_parts()),
        "deepdup": Expect.of_parts(deepdup_parts()),
    }


def xmark_expectations(path, queries=XMARK_QUERIES):
    return {q: Expect.of(body + b"\n")
            for q, body in xmark_bodies(path, queries).items()}


def _file_sha1(path):
    h = hashlib.sha1()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


_SELF_SHA1 = None


def cached(kind, path, cache_dir, rebuild=False):
    """Expectations of `kind` ("xmark" or "deep") for the
    document at `path`, memoized on disk by the document's and this file's
    SHA-1, so a seed seen before costs one hash of the input."""
    global _SELF_SHA1
    if _SELF_SHA1 is None:
        _SELF_SHA1 = _file_sha1(os.path.abspath(__file__))
    key = "%s-%s-%s" % (kind, _file_sha1(path)[:20], _SELF_SHA1[:12])
    cache = os.path.join(cache_dir, key + ".json")
    if os.path.exists(cache) and not rebuild:
        with open(cache) as f:
            return {q: Expect.from_json(v) for q, v in json.load(f).items()}
    if kind == "deep":
        exp = deep_expectations(path)
    else:
        exp = xmark_expectations(path)
    os.makedirs(cache_dir, exist_ok=True)
    tmp = cache + ".tmp"
    with open(tmp, "w") as f:
        json.dump({q: e.to_json() for q, e in exp.items()}, f)
    os.replace(tmp, cache)
    return exp


def _selftest():
    import run  # builds the program and makes the inputs
    harness, cli = run.build()
    work = run.work_dir("selftest", 1)
    xmark = run.gen(harness, "xmark", 1 << 20, 11, work)
    deep = run.gen(harness, "treebank", 1 << 19, 12, work)
    cases = [("q13", xmark, xmark_expectations(xmark)["q13"]),
             ("fourstar", deep, deep_expectations(deep)["fourstar"])]
    ok = True
    for q, doc, exp in cases:
        out = run.run_cli_capture(cli, run.query_file(work, q), doc)
        flipped = bytearray(out)
        flipped[len(out) // 2] ^= 0x01
        verdicts = [("program output", exp.check(out), True),
                    ("one byte changed", exp.check(bytes(flipped)), False),
                    ("truncated", exp.check(out[:-1]), False)]
        for what, got, want in verdicts:
            status = "ok" if got == want else "FAILED"
            ok = ok and got == want
            print("%-9s %-17s accepted=%-5s %s" % (q, what, got, status))
    run.cleanup(work)
    return 0 if ok else 1


def _rebuild(args):
    import argparse
    import run
    ap = argparse.ArgumentParser(prog="reference.py rebuild")
    ap.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    a = ap.parse_args(args)
    harness, _ = run.build()
    work = run.work_dir(a.workload, a.seed)
    refs = run.WORKLOADS[a.workload].references(harness, a.seed, work,
                                                rebuild=True)
    json.dump({k: e.to_json() for k, e in sorted(refs.items())}, sys.stdout,
              indent=1)
    print()
    return 0


def main(argv):
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if argv[:1] == ["selftest"]:
        return _selftest()
    if argv[:1] == ["rebuild"]:
        return _rebuild(argv[1:])
    if argv[:1] == ["expect"] and len(argv) in (4, 5):
        exp = cached(argv[1], argv[2], argv[3],
                     rebuild=argv[4:] == ["--rebuild"])
        json.dump({q: e.to_json() for q, e in exp.items()}, sys.stdout)
        print()
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
