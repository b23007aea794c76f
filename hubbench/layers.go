package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"entityid/internal/datagen"
	"entityid/internal/federate"
	"entityid/internal/match"
	"entityid/internal/relation"
	"entityid/internal/wal"
)

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounters sets the per-layer metrics taken from the program's
// own counters and histograms: deltas between two scrapes around the
// traced window.
func layerCounters(b *bench, sc0, sc1 scrape) {
	for _, st := range []string{"prepare", "wal_append", "apply", "cluster_fold"} {
		b.set("hub.stage."+st+"_us", sc1.meanUS(sc0, "hub_ingest_stage_seconds", `{stage="`+st+`"}`))
	}
	b.set("hub.commit_us", sc1.meanUS(sc0, "hub_ingest_commit_seconds", ""))
	for _, st := range []string{"admit", "encode", "commit"} {
		b.set("hub.pipeline.stalls."+st, sc1.sub(sc0, `hub_pipeline_stall_total{stage="`+st+`"}`))
	}
	b.set("hub.snapshot.count", sc1.sub(sc0, `hub_snapshot_total{outcome="ok"}`))
	b.set("hub.snapshot.busy_s", sc1.sub(sc0, "hub_snapshot_seconds_sum"))
	b.set("hub.snapshot.bytes", sc1.sub(sc0, "hub_snapshot_bytes_total"))
	reused := sc1.sub(sc0, "hub_snapshot_sections_reused_total")
	b.set("hub.snapshot.sections_reused_ratio", ratio(reused, reused+sc1.sub(sc0, "hub_snapshot_sections_written_total")))
	inserts := sc1.sub(sc0, `hub_ingest_total{outcome="ok"}`)
	merges := sc1.sub(sc0, "hub_cluster_merges_total")
	b.set("hub.uniqueness_rejections", sc1.sub(sc0, "hub_uniqueness_rejections_total"))
	b.set("hub.cluster_merges", merges)
	b.set("hub.merges_per_insert", ratio(merges, inserts))
	b.set("wal.append_us", sc1.meanUS(sc0, "wal_append_seconds", ""))
	b.set("wal.bytes_per_insert", ratio(sc1.sub(sc0, "wal_append_bytes_total"), inserts))
	b.set("wal.fsyncs", sc1.sub(sc0, "wal_fsync_seconds_count"))
	hits := sc1.sub(sc0, `store_tier_reads_total{tier="hot"}`)
	b.set("store.clusters.hit_rate", ratio(hits, hits+sc1.sub(sc0, `store_tier_reads_total{tier="cold"}`)))
	b.set("store.clusters.page_ins", sc1.sub(sc0, `store_tier_pageins_total{kind="cluster"}`))
	b.set("store.clusters.spills", sc1.sub(sc0, `store_tier_spills_total{kind="cluster"}`))
	b.set("store.pairs.page_ins", sc1.sub(sc0, `store_tier_pageins_total{kind="pair"}`))
	b.set("store.pairs.spills", sc1.sub(sc0, `store_tier_spills_total{kind="pair"}`))
	n := sc1.sub(sc0, `store_tier_pagein_seconds_count{kind="cluster"}`) + sc1.sub(sc0, `store_tier_pagein_seconds_count{kind="pair"}`)
	sum := sc1.sub(sc0, `store_tier_pagein_seconds_sum{kind="cluster"}`) + sc1.sub(sc0, `store_tier_pagein_seconds_sum{kind="pair"}`)
	b.set("store.pagein_us", ratio(sum, n)*1e6)
	b.note("window counters: %.0f inserts ok, %.0f rejected, %.0f WAL appends, %.0f snapshots",
		inserts, sc1.sub(sc0, `hub_ingest_total{outcome="rejected"}`), sc1.sub(sc0, "wal_append_total"),
		sc1.sub(sc0, `hub_snapshot_total{outcome="ok"}`))
}

// pairConfig is the matching configuration the hub builds for the link
// between sources i and j over the given relations.
func pairConfig(w *datagen.MultiWorkload, rels []*relation.Relation, i, j int) match.Config {
	mp := w.Pair(i, j)
	return match.Config{R: rels[i], S: rels[j], Attrs: mp.Attrs, ExtKey: mp.ExtKey, ILFDs: mp.ILFDs}
}

// probeLayers measures the layers beneath the hub by calling them
// directly on the workload's own data, outside any timed window:
//   - relation: the heap of the K source relations alone, per tuple;
//   - federate: the heap of one federation per pair, per tuple the pair
//     holds, and PrepareR/PrepareS (no commit) of held-out tuples
//     against the federations of the rest, timed and allocation-counted;
//   - match: match.Build on every pair's configuration.
func probeLayers(b *bench, w *datagen.MultiWorkload) error {
	wl, tr := b.wl, b.tr
	tuples := 0
	for _, rel := range w.Relations {
		tuples += rel.Len()
	}

	base := liveHeap()
	w2, err := generate(wl.k, b.entities(wl.entities), b.seed)
	if err != nil {
		return err
	}
	w2.ToEntity, w2.ILFDs = nil, nil
	b.set("relation.bytes_per_tuple", (liveHeap()-base)/float64(tuples))
	runtime.KeepAlive(w2)
	w2 = nil

	// Hold out a sample; the federations are built over the rest.
	rng := rand.New(rand.NewSource(b.seed + 1))
	all := shuffled(w, rng)
	held := all[:min(200, len(all)/10)]
	heldKeys := make([]map[string]bool, len(w.Names))
	for k := range heldKeys {
		heldKeys[k] = map[string]bool{}
	}
	for _, it := range held {
		heldKeys[it.src][it.t.Key()] = true
	}
	rels := make([]*relation.Relation, len(w.Names))
	for k, rel := range w.Relations {
		rels[k] = relation.New(rel.Schema())
		for _, t := range rel.Tuples() {
			if !heldKeys[k][t.Key()] {
				if err := rels[k].Insert(t); err != nil {
					return err
				}
			}
		}
	}

	type pairKey struct{ i, j int }
	feds := map[pairKey]*federate.Federation{}
	pairTuples := 0
	base = liveHeap()
	for i := range w.Names {
		for j := i + 1; j < len(w.Names); j++ {
			tr.begin("federate.New", 0)
			f, err := federate.New(pairConfig(w, rels, i, j))
			tr.end()
			if err != nil {
				return fmt.Errorf("federate.New %d-%d: %w", i, j, err)
			}
			feds[pairKey{i, j}] = f
			pairTuples += rels[i].Len() + rels[j].Len()
		}
	}
	b.set("federate.bytes_per_pair_tuple", (liveHeap()-base)/float64(pairTuples))

	prepares, matched := 0, 0
	var busy time.Duration
	a0 := readAllocs()
	for n, it := range held {
		for other := range w.Names {
			if other == it.src {
				continue
			}
			left := it.src < other
			f := feds[pairKey{min(it.src, other), max(it.src, other)}]
			tr.begin("federate.Prepare", uint64(n))
			t0 := time.Now()
			var pd *federate.Pending
			var err error
			if left {
				pd, err = f.PrepareR(it.t)
			} else {
				pd, err = f.PrepareS(it.t)
			}
			busy += time.Since(t0)
			tr.end()
			prepares++
			if err != nil {
				b.check(fmt.Errorf("prepare %s tuple %v: %w", w.Names[it.src], it.t, err))
				continue
			}
			b.check(nil)
			if len(pd.Pairs()) > 0 {
				matched++
			}
		}
	}
	allocs, _ := a0.perOp(prepares)
	b.set("federate.prepare_us", ratio(float64(busy.Nanoseconds())/1e3, float64(prepares)))
	b.set("federate.prepare.allocs_per_op", allocs)
	b.set("federate.match_ratio", ratio(float64(matched), float64(prepares)))
	runtime.KeepAlive(feds)

	builds := 0
	busy = 0
	a0 = readAllocs()
	for i := range w.Names {
		for j := i + 1; j < len(w.Names); j++ {
			cfg := pairConfig(w, w.Relations, i, j)
			tr.begin("match.Build", 0)
			t0 := time.Now()
			_, err := match.Build(cfg)
			busy += time.Since(t0)
			tr.end()
			b.check(err)
			builds++
		}
	}
	allocs, _ = a0.perOp(builds)
	b.set("match.build_ms", float64(busy.Nanoseconds())/1e6/float64(builds))
	b.set("match.build.allocs_per_op", allocs)
	b.note("layer probes: %d prepares of %d held-out tuples (%d matched), %d builds, %d federations over %d pair tuples",
		prepares, len(held), matched, builds, len(feds), pairTuples)
	return nil
}

// probeReplay times wal.Open plus a full Replay with a no-op callback
// on a closed hub's data directory.
func probeReplay(b *bench, dir string) error {
	tr := b.tr
	n := 0
	t0 := time.Now()
	tr.begin("wal.Open", 0)
	l, err := wal.Open(dir)
	tr.end()
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	tr.begin("wal.Replay", 0)
	err = l.Replay(0, func(wal.Record) error { n++; return nil })
	tr.end()
	d := time.Since(t0)
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	b.set("wal.replay_ms", float64(d.Nanoseconds())/1e6)
	b.set("wal.replay_records", float64(n))
	return nil
}
