#!/usr/bin/env python3
"""Schema gates for the bench-smoke JSON outputs (DESIGN.md §4).

Checks the four files the CI bench-smoke job writes, all in one directory
(default: the current one):

  bench_reclaim.json        ebr and leaky rows: drain-to-zero, pool hits,
                            no frees under the leaky policy
  bench_bst.json            every tree publishes seq-bulk and scan rows
  bench_workload.json       consolidated schema, ycsb-e scans, both widths
  bench_workload_scan.json  the --engines filter and the forced ycsb-e mix

Run locally on the same smoke outputs (README.md, "Experiments"):

  python3 tools/check_bench.py [DIR]

Exits nonzero on the first failed assertion.
"""
import json
import os
import sys


def load(directory, name):
    with open(os.path.join(directory, name)) as f:
        return json.load(f)


def check_reclaim(directory):
    # E8's two policies and what each must show: EBR drains to zero and
    # its allocations hit the per-thread banks; the leaky policy frees
    # nothing.
    rows = load(directory, 'bench_reclaim.json')['rows']
    assert {r['mode'] for r in rows} == {'ebr', 'leaky'}, rows
    for r in rows:
        if r['mode'] == 'ebr':
            assert r['outstanding_after_drain'] == 0, r
            assert r['pool_hits'] > 0, r
        else:
            assert r['freed'] == 0, r
    print(f'bench_reclaim.json OK: {len(rows)} rows')


def check_bst(directory):
    # bench_bst carries the §15 rows: every tree must publish seq-bulk
    # (sorted-run insert_all) and scan (VLX range) cells alongside the
    # scalar streams, all with real throughput.
    d = load(directory, 'bench_bst.json')
    rows = d['rows']
    assert rows, 'no rows'
    for r in rows:
        assert {'structure', 'stream', 'threads', 'update_pct',
                'key_range', 'ops_per_sec'} <= r.keys(), r
        assert r['ops_per_sec'] > 0, ('zero-throughput cell', r)
    streams = {r['stream'] for r in rows}
    assert streams >= {'uniform', 'seq', 'seq-bulk', 'scan'}, streams
    for s in ('seq-bulk', 'scan'):
        trees = {r['structure'] for r in rows if r['stream'] == s}
        assert trees >= {'bst', 'patricia', 'chromatic'}, (s, trees)
    for r in rows:
        if r['stream'] == 'scan':
            assert r['update_pct'] == 0, r
    print(f'bench_bst.json OK: {len(rows)} rows')


def check_workload(directory):
    # The consolidated workload envelope (DESIGN.md §13) is the contract
    # every future perf change reads: schema keys present, every phase of
    # every regime actually ran ops, all three regime phases and all
    # three steady distributions covered.
    d = load(directory, 'bench_workload.json')
    assert d['bench'] == 'bench_workload', d.get('bench')
    rows = d['rows']
    assert rows, 'no rows'
    need = {'engine', 'dist', 'mix', 'phase', 'phase_stream',
            'phase_mix', 'threads', 'seconds', 'ops_per_sec',
            'ops', 'lat_ns', 'keys', 'batch', 'batched'}
    for r in rows:
        missing = need - r.keys()
        assert not missing, (missing, r)
        assert sum(r['ops'].values()) > 0, ('zero-op phase', r)
        assert r['batched'] == (r['batch'] > 1), r
        for t in ('read', 'insert', 'erase', 'scan'):
            assert {'samples', 'p50', 'p95', 'p99', 'p999',
                    'saturated'} <= \
                r['lat_ns'][t].keys(), r['lat_ns'][t]
    assert {r['phase'] for r in rows} >= {'grow', 'steady', 'churn'}
    assert {r['dist'] for r in rows} >= {'uniform', 'zipfian', 'hotset'}
    assert len({r['mix'] for r in rows}) >= 2
    # The YCSB-E combo must actually scan: nonzero scan ops in every
    # steady phase, and its percentiles must be a real distribution
    # (monotone p50 <= p95 <= p99 <= p999).
    escan = [r for r in rows
             if r['mix'] == 'ycsb-e' and r['phase'] == 'steady']
    assert escan, 'no ycsb-e steady rows'
    for r in escan:
        assert r['ops']['scan'] > 0, ('ycsb-e phase without scans', r)
        s = r['lat_ns']['scan']
        assert s['samples'] > 0, r
        assert s['p50'] <= s['p95'] <= s['p99'] <= s['p999'], s
    assert any(r['engine'].startswith('sharded+') for r in rows)
    # --batch=8 ran a batched sweep after the scalar one: both
    # dispatch widths must be present, batched under its own flag.
    assert {r['batch'] for r in rows} == {1, 8}, \
        sorted({r['batch'] for r in rows})
    assert any(r['batched'] for r in rows)
    assert any(not r['batched'] for r in rows)
    print(f'bench_workload.json OK: {len(rows)} rows')


def check_workload_scan(directory):
    # The --engines + --mix run: only the named engines appear, and the
    # forced YCSB-E grid is scan-dominant in its steady phases.
    d = load(directory, 'bench_workload_scan.json')
    rows = d['rows']
    assert rows, 'no rows'
    engines = {r['engine'] for r in rows}
    assert engines == {'llxscx-chromatic',
                       'sharded+llxscx-chromatic'}, engines
    assert {r['mix'] for r in rows} == {'ycsb-e'}
    for r in rows:
        if r['phase'] != 'steady':
            continue
        total = sum(r['ops'].values())
        assert total > 0 and r['ops']['scan'] > total // 2, r['ops']
    print(f'bench_workload_scan.json OK: {len(rows)} rows')


def main(argv):
    if len(argv) > 2:
        sys.exit(f'usage: {argv[0]} [DIR]')
    directory = argv[1] if len(argv) == 2 else '.'
    check_reclaim(directory)
    check_bst(directory)
    check_workload(directory)
    check_workload_scan(directory)


if __name__ == '__main__':
    main(sys.argv)
