#!/usr/bin/env python3
"""Assertions the Makefile gates run on the JSON their commands emit, and
the parent-against-change comparisons made of the same runs.

Usage: ci_check.py GATE ARG...   (one function per gate, named below)
"""
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def trace(path):
    """trace-export: the chrome trace of the fixture run is not empty."""
    assert load(path)['traceEvents'], 'empty trace'


def slo(sim_path, live_path):
    """loadgen: both backends' SLO reports follow the dcgn-loadgen/v1 schema."""
    for path, backend in [(sim_path, 'sim'), (live_path, 'live')]:
        rep = load(path)
        assert rep['schema'] == 'dcgn-loadgen/v1', rep['schema']
        assert rep['backend'] == backend
        assert rep['completed'] > 0, f'{path}: nothing completed'
        assert rep['offered'] == rep['completed'] + rep['rejected'] + rep['failed'] + rep['canceled']
        for scope in [rep['aggregate'], *rep['tenants'].values()]:
            for hist in ('queue_wait', 'match_wait', 'e2e'):
                st = scope[hist]
                assert set(st) == {'count', 'mean_ns', 'p50_ns', 'p95_ns', 'p99_ns', 'p999_ns'}, st
                assert st['p50_ns'] <= st['p95_ns'] <= st['p99_ns'] <= st['p999_ns'], st
        assert ('wall_s' in rep) == (backend == 'live'), 'wall clock leaked into a sim report'


def flow_events(path):
    """flows: a -critical-path chrome trace carries well-formed Perfetto flow arrows."""
    flows = [e for e in load(path)['traceEvents'] if e['ph'] in ('s', 't', 'f')]
    assert flows, 'no flow events in a -critical-path trace'
    for e in flows:
        assert e['name'] == 'flow' and e['cat'] == 'dcgn', e
        assert e.get('id', 0) != 0, f'flow event without an id: {e}'
    assert any(e['ph'] == 's' for e in flows), 'no flow start'
    assert any(e['ph'] == 't' for e in flows), 'no flow step (nothing stitched)'
    finishes = [e for e in flows if e['ph'] == 'f']
    assert finishes and all(e.get('bp') == 'e' for e in finishes), 'flow finishes must bind enclosing'


def flow_phases(path):
    """flows: per-tenant phase means of a flows-on SLO report sum to mean e2e."""
    rep = load(path)
    for name, scope in [('aggregate', rep['aggregate']), *rep['tenants'].items()]:
        total = sum(st['mean_ns'] for st in scope['phases'].values())
        e2e = scope['e2e']['mean_ns']
        assert abs(total - e2e) <= 0.01 * e2e, f'{name}: phases sum {total} vs e2e {e2e}'


def loc(*ceilings):
    """loc: no package outgrew its ceiling; prints the size table issues and CHANGES.md quote.

    Each argument is `package:lines:panics`. A package's lines are those of
    its non-test Go files that are neither blank nor comment-only, its panics
    the ones among them with a `panic(` site. A PR that needs more room
    raises the ceiling in the Makefile, in its own diff.
    """
    print(f"{'package':32} {'lines':>8} {'panics':>8} {'ceilings':>14}")
    over = []
    for pkg, *limits in (c.split(':') for c in ceilings):
        code = []
        for path in glob.glob(os.path.join(pkg, '*.go')):
            if not path.endswith('_test.go'):
                with open(path) as f:
                    code += [line for line in f if line.strip() and not line.lstrip().startswith('//')]
        sizes = [len(code), sum('panic(' in line for line in code)]
        limits = [int(x) for x in limits]
        print(f"{pkg:32} {sizes[0]:8} {sizes[1]:8} {limits[0]:8} {limits[1]:5}")
        over += [f'{pkg}: {n} {what}, ceiling {cap}'
                 for n, cap, what in zip(sizes, limits, ('lines', 'panic( sites')) if n > cap]
    assert not over, '; '.join(over)


def parent_tree(base, workdir):
    """Empties workdir and unpacks a `git archive` of commit `base` into workdir/parent."""
    parent = os.path.join(workdir, 'parent')
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(parent)
    archive = subprocess.run(['git', 'archive', base], check=True, capture_output=True).stdout
    subprocess.run(['tar', '-x', '-C', parent], input=archive, check=True)
    return parent


def virtual_diff(contract, base, workdir):
    """virtual-diff (not a gate): the deterministic metrics the change moved against commit `base`.

    One -trace 1 -seed 1 run of every workload of the contract on a `git
    archive` of base, twice, and on this tree, once. A traced metric that
    reads the same in both parent runs is deterministic — virtual times,
    counts per operation, shares, never a host timing — and each of those
    that reads differently on this tree is printed, `workload/metric parent
    → change`; a tally per workload goes to stderr. The host.* family (GC
    cycles, RSS) is left out: small numbers two runs can agree on by chance.
    The bufpool.* counts (hit ratio, acquires, leaks) are deterministic too,
    but they count the host's buffer pool, not virtual time: a change to pool
    classes or to the number of Gets moves them while every virtual time
    holds. They are printed apart, on a `workload: host counters moved:`
    line, and stay out of the tally, so `0 moved` there means virtual time
    did not move. serve_live runs on the wall clock, so a count it shows as
    moved (core.peak_pending) may be a race, not a change.
    """
    spec = load(contract)
    workdir = os.path.abspath(workdir)  # the command runs from another directory
    roots = {'parent': parent_tree(base, workdir), 'change': os.getcwd()}
    for w in (w['name'] for w in spec['workloads']):
        layers = []
        for side, run in (('parent', 'a'), ('parent', 'b'), ('change', 'c')):
            out = os.path.join(workdir, 'runs', f'{w}-{run}')
            subprocess.run(spec['command'] + ['-workload', w, '-seed', '1', '-trace', '1', '-out', out],
                           cwd=roots[side], check=True, stdout=subprocess.DEVNULL)
            layers.append(load(os.path.join(out, 'results.json'))['workloads'][0]['per_layer'])
        a, b, c = layers
        fixed = [m for m in sorted(a) if a[m] == b.get(m) and not m.startswith('host.')]
        pool = [m for m in fixed if m.startswith('bufpool.')]
        fixed = [m for m in fixed if m not in pool]
        moved = [m for m in fixed if c.get(m) != a[m]]
        for m in moved:
            print(f'{w}/{m} {a[m]!r} → {c.get(m)!r}')
        pool_moved = [f'{m} {a[m]!r} → {c.get(m)!r}' for m in pool if c.get(m) != a[m]]
        if pool_moved:
            print(f'{w}: host counters moved: ' + ', '.join(pool_moved))
        print(f'{w}: {len(fixed)} of {len(a)} traced metrics deterministic (and {len(pool)} host pool counts), '
              f'{len(moved)} moved', file=sys.stderr)


def benchmark_gate(contract, base, workdir, pairs, seconds):
    """benchmark-gate: the change against commit `base`, judged by the contract's own rule.

    Runs the contract's command with -trace 0 on a `git archive` of base and
    on this tree, every workload, `pairs` times each in alternating order, and
    compares the medians of every end-to-end metric against the bounds in
    `contract` (BENCHMARK.json). A metric the parent's own runs spread wider
    than its bound is unresolved, not failed. Prints the trajectory document
    (BENCH_<pr>.json) on stdout and the verdict table on stderr.
    """
    spec = load(contract)
    workdir = os.path.abspath(workdir)  # the command runs from another directory
    roots = {'parent': parent_tree(base, workdir), 'change': os.getcwd()}
    workloads = [w['name'] for w in spec['workloads']]

    runs = {}  # (side, workload) -> one results.json workload entry per pair
    hygiene = None  # results.json's header, less what differs from run to run
    for pair in range(1, int(pairs) + 1):
        for w in workloads:
            for side in ('parent', 'change') if pair % 2 else ('change', 'parent'):
                out = os.path.join(workdir, 'runs', f'{side}-{w}-{pair}')
                subprocess.run(spec['command'] + ['-workload', w, '-seed', str(pair), '-seconds', str(seconds),
                                                  '-trace', '0', '-out', out],
                               cwd=roots[side], check=True, stdout=subprocess.DEVNULL)
                res = load(os.path.join(out, 'results.json'))
                runs.setdefault((side, w), []).append(res['workloads'][0])
                hygiene = hygiene or {k: v for k, v in res['header'].items()
                                      if k not in ('commit', 'seed', 'repetitions', 'wall_s')}
                hygiene['gomaxprocs'].update(res['header']['gomaxprocs'])
                print(f'pair {pair} {w} {side}', file=sys.stderr)

    def git(*args):
        return subprocess.run(['git', *args], check=True, capture_output=True, text=True).stdout.strip()
    doc = {'parent': git('rev-parse', base), 'change': git('rev-parse', 'HEAD'),
           'change_uncommitted': bool(git('status', '--porcelain')), 'pairs': int(pairs), 'hygiene': hygiene,
           'metrics': {}, 'failed_frac': {}}
    bad = []
    for w in workloads:
        for m in spec['end_to_end']:
            p, c = ([r['end_to_end'][m['name']] for r in runs[side, w]] for side in ('parent', 'change'))
            sign = 1 if m['better'] == 'lower' else -1
            pm, cm = statistics.median(p), statistics.median(c)
            worse_by = sign * (cm - pm) / abs(pm)
            q = statistics.quantiles(p, n=4, method='inclusive') if len(p) > 1 else [pm] * 3
            spread = (q[2] - q[0]) / abs(pm)
            verdict = 'unresolved' if spread > m['bound'] else 'regressed' if worse_by > m['bound'] else 'ok'
            doc['metrics'][f"{w}/{m['name']}"] = {
                'unit': m['unit'], 'better': m['better'], 'bound': m['bound'], 'parent': pm, 'change': cm,
                'worse_by': worse_by, 'parent_spread': spread,
                'pairs_worse': sum(sign * (b - a) > 0 for a, b in zip(p, c)), 'verdict': verdict}
            print(f"{w + '/' + m['name']:32} parent {pm:12.6g} change {cm:12.6g} {m['unit']:6} "
                  f"worse by {worse_by:+7.2%} (bound {m['bound']:.0%}, parent spread {spread:.1%}) {verdict}",
                  file=sys.stderr)
            if verdict == 'regressed':
                bad.append(f"{w}/{m['name']} worse by {worse_by:.1%}")
        share = {side: sum(r['failed'] for r in runs[side, w]) / sum(r['attempted'] for r in runs[side, w])
                 for side in ('parent', 'change')}
        doc['failed_frac'][w] = share
        if share['change'] > share['parent']:
            bad.append(f"{w}: failed share {share['change']:.3g}, parent {share['parent']:.3g}")
    json.dump(doc, sys.stdout, indent='\t')
    print()
    assert not bad, '; '.join(bad)


GATES = {f.__name__.replace('_', '-'): f
         for f in (trace, slo, flow_events, flow_phases, loc, benchmark_gate, virtual_diff)}

if __name__ == '__main__':
    if len(sys.argv) < 3 or sys.argv[1] not in GATES:
        sys.exit(__doc__ + '\nGates: ' + ', '.join(GATES))
    GATES[sys.argv[1]](*sys.argv[2:])
