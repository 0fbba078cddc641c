#!/usr/bin/env python3
"""Assertions the Makefile gates run on the JSON their commands emit.

Usage: ci_check.py GATE FILE...   (one function per gate, named below)
"""
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def trace(path):
    """trace-export: the chrome trace of the fixture run is not empty."""
    assert load(path)['traceEvents'], 'empty trace'


def onesided(path):
    """bench-onesided: the triggered path beats the classic one without polling."""
    small = [r for r in load(path) if r['size'] <= 4096]
    assert small, 'no small-message rows'
    for r in small:
        assert r['triggered_ns'] < r['classic_ns'], f"triggered not faster at {r['size']}B"
        assert r['triggered_poll_hits'] == 0, f"triggered path consumed poll hits at {r['size']}B"


def multitenant(path):
    """multitenant: per-job overhead and per-tenant fair share stay in bounds."""
    rep = load(path)
    assert rep['perjob_overhead_pct'] <= 10, f"per-job overhead {rep['perjob_overhead_pct']:.1f}% > 10%"
    for t in rep['fairness']:
        assert abs(t['share'] - t['expected_share']) <= 0.15, \
            f"tenant {t['name']}: share {t['share']:.2f} vs expected {t['expected_share']:.2f}"


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


GATES = {f.__name__.replace('_', '-'): f
         for f in (trace, onesided, multitenant, slo, flow_events, flow_phases)}

if __name__ == '__main__':
    if len(sys.argv) < 3 or sys.argv[1] not in GATES:
        sys.exit(__doc__ + '\nGates: ' + ', '.join(GATES))
    GATES[sys.argv[1]](*sys.argv[2:])
